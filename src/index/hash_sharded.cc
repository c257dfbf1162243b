#include "index/hash_sharded.h"

#include <queue>
#include <stdexcept>

namespace fastfair {

std::size_t TryParseHashedKind(std::string_view kind,
                               std::string* inner_kind) {
  return detail::ParseShardGrammar(kind, "hashed-", inner_kind);
}

HashShardedIndex::HashShardedIndex(std::string name, std::size_t num_shards,
                                   const ShardFactory& make)
    : name_(std::move(name)) {
  concurrent_ = detail::BuildShardVector(num_shards, make, &shards_);
  fp_cache_ = std::make_unique<FpProbeCache>(kDefaultProbeCacheEntries);
}

void HashShardedIndex::SetProbeCacheCapacity(std::size_t entries) {
  fp_cache_ = entries == 0 ? nullptr
                           : std::make_unique<FpProbeCache>(entries);
}

FpProbeCache::Stats HashShardedIndex::ProbeCacheStats() const {
  return fp_cache_ != nullptr ? fp_cache_->GetStats()
                              : FpProbeCache::Stats{};
}

namespace {

Key KeyOf(Key k) { return k; }
Key KeyOf(const core::Record& r) { return r.key; }

// Runs `write` (the authoritative shard writes), then drops the batch's
// keys from the probe tier — also when `write` throws (a null-out insert
// out of pool space may have applied a prefix). Invalidating *after* the
// writes is the fp_cache.h protocol: a fill racing ahead of it is dropped
// by the key-matched invalidation, one racing behind it aborts on the
// generation bump.
template <class Elem, class WriteFn>
void WriteThenInvalidate(FpProbeCache* cache, const Elem* elems,
                         std::size_t n, WriteFn&& write) {
  const auto invalidate = [&] {
    if (cache == nullptr) return;
    for (std::size_t i = 0; i < n; ++i) cache->Invalidate(KeyOf(elems[i]));
  };
  try {
    write();
  } catch (...) {
    invalidate();
    throw;
  }
  invalidate();
}

}  // namespace

void HashShardedIndex::SearchBatch(const Key* keys, std::size_t n,
                                   Value* out) const {
  // Read-through fill: each miss's generation is sampled before its shard
  // descent, so a writer that lands in between aborts the install.
  // Chunked so the generations live on the stack.
  const auto run = [this](std::size_t s, const Key* gk, std::size_t len,
                          Value* gout) {
    if (fp_cache_ == nullptr) {
      shards_[s]->SearchBatch(gk, len, gout);
      return;
    }
    constexpr std::size_t kChunk = 64;
    std::uint32_t gen[kChunk];
    for (std::size_t c = 0; c < len; c += kChunk) {
      const std::size_t m = std::min(kChunk, len - c);
      for (std::size_t j = 0; j < m; ++j) {
        gen[j] = fp_cache_->Generation(gk[c + j]);
      }
      shards_[s]->SearchBatch(gk + c, m, gout + c);
      for (std::size_t j = 0; j < m; ++j) {
        if (gout[c + j] != kNoValue) {
          fp_cache_->Install(gk[c + j], gout[c + j], gen[j]);
        }
      }
    }
  };
  const auto route = [this](Key k) { return ShardOf(k); };
  // Probe the fingerprint tier first; only the misses pay the routed
  // inner descent.
  std::size_t misses = n;
  if (fp_cache_ != nullptr) {
    misses = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = fp_cache_->Lookup(keys[i]);
      if (out[i] == kNoValue) ++misses;
    }
  }
  if (misses == n) {  // nothing to compact (every scalar miss lands here)
    detail::DispatchBatchByShard(keys, n, out, shards_.size(), route, run);
    return;
  }
  if (misses == 0) return;
  std::vector<Key> miss_keys;
  std::vector<std::uint32_t> miss_pos;
  miss_keys.reserve(misses);
  miss_pos.reserve(misses);
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i] == kNoValue) {
      miss_keys.push_back(keys[i]);
      miss_pos.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<Value> found(misses);
  detail::DispatchBatchByShard(miss_keys.data(), misses, found.data(),
                               shards_.size(), route, run);
  for (std::size_t j = 0; j < misses; ++j) out[miss_pos[j]] = found[j];
}

void HashShardedIndex::InsertBatch(const core::Record* ops, std::size_t n,
                                   InsertStatus* out) {
  WriteThenInvalidate(fp_cache_.get(), ops, n, [&] {
    detail::DispatchBatchByShard(
        ops, n, out, shards_.size(),
        [this](const core::Record& r) { return ShardOf(r.key); },
        [this](std::size_t s, const core::Record* gops, std::size_t len,
               InsertStatus* st) { shards_[s]->InsertBatch(gops, len, st); });
  });
}

void HashShardedIndex::RemoveBatch(const Key* keys, std::size_t n,
                                   bool* out) {
  WriteThenInvalidate(fp_cache_.get(), keys, n, [&] {
    detail::DispatchBatchByShard(
        keys, n, out, shards_.size(), [this](Key k) { return ShardOf(k); },
        [this](std::size_t s, const Key* gk, std::size_t len, bool* removed) {
          shards_[s]->RemoveBatch(gk, len, removed);
        });
  });
}

namespace {

// Bounded k-way merge: one streaming iterator per shard plus an N-entry
// min-heap of their current heads. Keys are unique across shards (hash
// routing), so ties can only pair distinct sources; src breaks them for
// determinism anyway.
class MergeScanIterator final : public ScanIterator {
 public:
  MergeScanIterator(const std::vector<std::unique_ptr<Index>>& shards,
                    Key min_key) {
    its_.reserve(shards.size());
    for (const auto& shard : shards) {
      auto it = shard->NewScanIterator(min_key);
      core::Record rec;
      if (it->Next(&rec)) heap_.push({rec, its_.size()});
      its_.push_back(std::move(it));
    }
  }

  bool Next(core::Record* out) override {
    if (heap_.empty()) return false;
    const Head head = heap_.top();
    heap_.pop();
    *out = head.rec;
    core::Record rec;
    if (its_[head.src]->Next(&rec)) heap_.push({rec, head.src});
    return true;
  }

 private:
  struct Head {
    core::Record rec;
    std::size_t src;
  };
  struct Greater {
    bool operator()(const Head& a, const Head& b) const {
      return a.rec.key != b.rec.key ? a.rec.key > b.rec.key : a.src > b.src;
    }
  };

  std::vector<std::unique_ptr<ScanIterator>> its_;
  std::priority_queue<Head, std::vector<Head>, Greater> heap_;
};

}  // namespace

std::unique_ptr<ScanIterator> HashShardedIndex::NewScanIterator(
    Key min_key) const {
  return std::make_unique<MergeScanIterator>(shards_, min_key);
}

std::size_t HashShardedIndex::MergeScan(Key min_key, std::size_t cap,
                                        core::Record* out) const {
  MergeScanIterator it(shards_, min_key);
  std::size_t n = 0;
  while (n < cap && it.Next(&out[n])) ++n;
  return n;
}

void HashShardedIndex::ScanBatch(const ScanOp* ops, std::size_t n,
                                 std::size_t* out_counts) const {
  if (n == 0) return;
  // Every shard may hold keys of every range, so the bounded merge
  // over-fetches up to `cap` candidates per shard per entry. Materializing
  // those runs lets each shard serve the whole batch through ONE native
  // ScanBatch call — grouped descents and hand-over-hand drains inside the
  // shard — at the price of scratch memory; a batch too large for the
  // budget keeps the streaming per-op merge (identical results).
  constexpr std::size_t kMergeScratchMax = std::size_t{1} << 16;  // records
  const std::size_t n_shards = shards_.size();
  std::size_t total_cap = 0;
  for (std::size_t i = 0; i < n; ++i) total_cap += ops[i].cap;
  if (total_cap == 0) {
    for (std::size_t i = 0; i < n; ++i) out_counts[i] = 0;
    return;
  }
  if (total_cap > kMergeScratchMax / n_shards) {
    for (std::size_t i = 0; i < n; ++i) {
      out_counts[i] = MergeScan(ops[i].min_key, ops[i].cap, ops[i].out);
    }
    return;
  }
  // Scratch layout: shard s's run for entry i lives at
  // runs[s * total_cap + prefix[i]], length run_len[s * n + i].
  std::vector<std::size_t> prefix(n);
  for (std::size_t i = 0, off = 0; i < n; ++i) {
    prefix[i] = off;
    off += ops[i].cap;
  }
  std::vector<core::Record> runs(n_shards * total_cap);
  std::vector<std::size_t> run_len(n_shards * n);
  std::vector<ScanOp> shard_ops(n);
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      shard_ops[i] = {ops[i].min_key, ops[i].cap,
                      runs.data() + s * total_cap + prefix[i]};
    }
    shards_[s]->ScanBatch(shard_ops.data(), n, run_len.data() + s * n);
  }
  // Per-entry k-way merge of its per-shard sorted runs. Keys are unique
  // across shards (hash routing), so a plain min-select suffices.
  std::vector<std::size_t> cur(n_shards);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(cur.begin(), cur.end(), 0);
    std::size_t got = 0;
    while (got < ops[i].cap) {
      std::size_t best = n_shards;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (cur[s] >= run_len[s * n + i]) continue;
        const Key k = runs[s * total_cap + prefix[i] + cur[s]].key;
        if (best == n_shards ||
            k < runs[best * total_cap + prefix[i] + cur[best]].key) {
          best = s;
        }
      }
      if (best == n_shards) break;
      ops[i].out[got++] = runs[best * total_cap + prefix[i] + cur[best]];
      ++cur[best];
    }
    out_counts[i] = got;
  }
}

std::size_t HashShardedIndex::CountEntries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->CountEntries();
  return total;
}

std::vector<std::size_t> HashShardedIndex::ShardEntryCounts() const {
  return detail::PerShardEntryCounts(shards_);
}

void HashShardedIndex::CollectMaintenanceTasks(
    const maint::TaskOptions& opts,
    std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) {
  for (const auto& shard : shards_) {
    shard->CollectMaintenanceTasks(opts, out);
  }
}

}  // namespace fastfair
