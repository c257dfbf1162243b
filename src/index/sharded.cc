#include "index/sharded.h"

#include <charconv>
#include <optional>
#include <stdexcept>
#include <thread>

#include "maint/tasks.h"
#include "pm/reclaim.h"

namespace fastfair {

namespace {
constexpr std::string_view kShardedPrefix = "sharded-";
constexpr std::string_view kHashedPrefix = "hashed-";
constexpr std::size_t kDefaultShards = 8;
}  // namespace

namespace detail {

std::size_t ParseShardGrammar(std::string_view kind, std::string_view prefix,
                              std::string* inner_kind) {
  if (kind.substr(0, prefix.size()) != prefix) return 0;
  std::string_view rest = kind.substr(prefix.size());
  std::size_t shards = kDefaultShards;
  if (const auto colon = rest.rfind(':'); colon != std::string_view::npos) {
    const std::string_view suffix = rest.substr(colon + 1);
    const auto [end, ec] =
        std::from_chars(suffix.data(), suffix.data() + suffix.size(), shards);
    if (ec != std::errc{} || end != suffix.data() + suffix.size() ||
        shards == 0 || shards > kMaxShards) {
      throw std::invalid_argument("bad shard count in index kind: " +
                                  std::string(kind));
    }
    rest = rest.substr(0, colon);
  }
  // Reject an empty inner kind and nested sharding adapters (a shard of
  // shards multiplies sub-indexes without a workload that wants it).
  if (rest.empty() ||
      rest.substr(0, kShardedPrefix.size()) == kShardedPrefix ||
      rest.substr(0, kHashedPrefix.size()) == kHashedPrefix) {
    throw std::invalid_argument("bad sharded index kind: " +
                                std::string(kind));
  }
  if (inner_kind != nullptr) *inner_kind = std::string(rest);
  return shards;
}

bool BuildShardVector(
    std::size_t num_shards,
    const std::function<std::unique_ptr<Index>(std::size_t)>& make,
    std::vector<std::unique_ptr<Index>>* out) {
  if (num_shards == 0) {
    throw std::invalid_argument("sharded index: num_shards must be > 0");
  }
  bool concurrent = true;
  out->reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    out->push_back(make(s));
    if (!out->back()->supports_concurrency()) concurrent = false;
  }
  return concurrent;
}

std::vector<std::size_t> PerShardEntryCounts(
    const std::vector<std::unique_ptr<Index>>& shards) {
  std::vector<std::size_t> out(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    out[s] = shards[s]->CountEntries();
  }
  return out;
}

void BucketByShard(const std::uint32_t* shard_ids, std::size_t n,
                   std::size_t num_shards, std::vector<std::uint32_t>* order,
                   std::vector<std::size_t>* start) {
  start->assign(num_shards + 1, 0);
  order->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*start)[shard_ids[i] + 1] += 1;
  for (std::size_t s = 0; s < num_shards; ++s) (*start)[s + 1] += (*start)[s];
  std::vector<std::size_t> cur(start->begin(), start->end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    (*order)[cur[shard_ids[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace detail

std::size_t TryParseShardedKind(std::string_view kind,
                                std::string* inner_kind) {
  return detail::ParseShardGrammar(kind, kShardedPrefix, inner_kind);
}

namespace {

// Drains every operation pinned at or before the current epoch: once this
// returns, any reader *or writer* still inside an Index op pinned *after*
// the caller's preceding (seq_cst) stores and therefore observes them.
// Pins are per-operation, so the wait is short; TryAdvance moves late
// arrivals to a newer epoch so the loop terminates even under constant
// load. Rebalance leans on this as a state-transition fence three times:
// after raising `migrating_` (old single-routed writers finish before the
// copy loop starts), after publishing the new boundaries (readers routed
// by the old set finish before their copies vanish), and after clearing
// `migrating_` (the last dual-routed writers' old-shard applies finish
// before phase 3 deletes them as stale).
void WaitForPinnedOps() {
  const std::uint64_t e = pm::epoch::Current();
  while (pm::epoch::MinPinned() <= e) {
    pm::epoch::TryAdvance();
    std::this_thread::yield();
  }
}

}  // namespace

double ImbalanceRatio(const std::vector<std::size_t>& shard_entries) {
  if (shard_entries.empty()) return 1.0;
  const auto [mn, mx] =
      std::minmax_element(shard_entries.begin(), shard_entries.end());
  if (*mx == 0) return 1.0;
  return static_cast<double>(*mx) /
         static_cast<double>(std::max<std::size_t>(*mn, 1));
}

void ShardedIndex::BuildShards(std::size_t num_shards,
                               const ShardFactory& make) {
  concurrent_ = detail::BuildShardVector(num_shards, make, &shards_);
  counters_ = std::make_unique<ShardCounters[]>(num_shards);
  // Value-initialized (zeroed) migration stripes, allocated up front so
  // the write path never branches on their existence.
  mig_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      std::size_t{1} << kMigStripeBits);
}

ShardedIndex::ShardedIndex(std::string name, std::size_t num_shards,
                           const ShardFactory& make)
    : name_(std::move(name)) {
  BuildShards(num_shards, make);
}

ShardedIndex::ShardedIndex(std::string name, std::vector<Key> boundaries,
                           const ShardFactory& make)
    : name_(std::move(name)) {
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    throw std::invalid_argument("ShardedIndex: boundaries must be sorted");
  }
  bounds_[0] = std::move(boundaries);
  BuildShards(bounds_[0].size() + 1, make);
}

std::vector<std::size_t> ShardedIndex::ApproxShardEntries() const {
  std::vector<std::size_t> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto e = counters_[s].entries.load(std::memory_order_relaxed);
    out[s] = e > 0 ? static_cast<std::size_t>(e) : 0;
  }
  return out;
}

std::vector<std::size_t> ShardedIndex::ShardEntryCounts() const {
  return detail::PerShardEntryCounts(shards_);
}

std::size_t ShardedIndex::CountEntries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->CountEntries();
  return total;
}

template <class ApplyFn>
std::size_t ShardedIndex::DualRoute(Key key, ApplyFn&& apply) {
  const unsigned a = active_.load(std::memory_order_seq_cst);
  const std::size_t s = ShardWith(bounds_[a], key);
  const std::size_t t = ShardWith(bounds_[a ^ 1u], key);
  // The stripe bump between the applies is the seqlock edge Rebalance's
  // copy loop synchronizes on: either the copy re-reads and sees this
  // write, or the second apply lands after the copy and is authoritative.
  if (apply(s, true) && t != s) {
    MigSeqOf(key).fetch_add(1, std::memory_order_acq_rel);
    apply(t, false);
  }
  return s;
}

void ShardedIndex::SearchBatch(const Key* keys, std::size_t n,
                               Value* out) const {
  // The pin spans route + lookup: Rebalance() publishes new boundaries and
  // then waits for every pinned op before deleting the old copies, so a
  // key routed under the old boundaries still finds its copy. (The epoch
  // machinery that defers node recycling, pm/reclaim.h, reused as a
  // routing grace period.)
  pm::EpochGuard guard;
  detail::DispatchBatchByShard(
      keys, n, out, shards_.size(), [this](Key k) { return ShardOf(k); },
      [this](std::size_t s, const Key* gk, std::size_t len, Value* gout) {
        shards_[s]->SearchBatch(gk, len, gout);
      });
}

void ShardedIndex::ScanBatch(const ScanOp* ops, std::size_t n,
                             std::size_t* out_counts) const {
  pm::EpochGuard guard;  // same routing grace period as SearchBatch
  detail::DispatchBatchByShard(
      ops, n, out_counts, shards_.size(),
      [this](const ScanOp& op) { return ShardOf(op.min_key); },
      [this](std::size_t s, const ScanOp* gops, std::size_t len,
             std::size_t* counts) {
        shards_[s]->ScanBatch(gops, len, counts);
        // Shards are ordered ranges: an op short of its cap resumes in the
        // next shard from key 0, and every key there exceeds its start
        // key, so the concatenation stays globally sorted.
        for (std::size_t j = 0; j < len; ++j) {
          for (std::size_t t = s + 1;
               t < shards_.size() && counts[j] < gops[j].cap; ++t) {
            counts[j] += shards_[t]->Scan(Key{0}, gops[j].cap - counts[j],
                                          gops[j].out + counts[j]);
          }
        }
      });
}

void ShardedIndex::InsertBatch(const core::Record* ops, std::size_t n,
                               InsertStatus* out) {
  // The pin spans route + apply: each of Rebalance's grace periods waits
  // out every pinned op, so a batch that routed under pre-transition state
  // finishes before the phase that depends on it starts, and `active_`
  // cannot flip mid-batch.
  pm::EpochGuard guard;
  if (migrating_.load(std::memory_order_seq_cst)) {
    for (std::size_t i = 0; i < n; ++i) {
      InsertStatus st = InsertStatus::kInserted;
      const std::size_t s =
          DualRoute(ops[i].key, [&](std::size_t x, bool routing) {
            InsertStatus xs = InsertStatus::kInserted;
            shards_[x]->InsertBatch(&ops[i], 1,
                                    out != nullptr ? &xs : nullptr);
            if (out == nullptr) return true;  // exhaustion threw instead
            // Readers observe the routing apply's status; a failed second
            // apply still reports the op as not (fully) applied.
            if (routing || xs == InsertStatus::kNoSpace) st = xs;
            return xs != InsertStatus::kNoSpace;
          });
      if (out != nullptr) out[i] = st;
      counters_[s].entries.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  detail::DispatchBatchByShard(
      ops, n, out, shards_.size(),
      [this](const core::Record& r) { return ShardOf(r.key); },
      [this](std::size_t s, const core::Record* gops, std::size_t len,
             InsertStatus* st) {
        shards_[s]->InsertBatch(gops, len, st);
        counters_[s].entries.fetch_add(static_cast<std::int64_t>(len),
                                       std::memory_order_relaxed);
      });
}

void ShardedIndex::RemoveBatch(const Key* keys, std::size_t n, bool* out) {
  pm::EpochGuard guard;  // same migration fencing as InsertBatch
  if (migrating_.load(std::memory_order_seq_cst)) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = false;
      const std::size_t s = DualRoute(keys[i], [&](std::size_t x, bool) {
        bool removed = false;
        shards_[x]->RemoveBatch(&keys[i], 1, &removed);
        out[i] = out[i] || removed;
        return true;
      });
      if (out[i]) counters_[s].entries.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  detail::DispatchBatchByShard(
      keys, n, out, shards_.size(), [this](Key k) { return ShardOf(k); },
      [this](std::size_t s, const Key* gk, std::size_t len, bool* removed) {
        shards_[s]->RemoveBatch(gk, len, removed);
        const auto hits = std::count(removed, removed + len, true);
        counters_[s].entries.fetch_sub(hits, std::memory_order_relaxed);
      });
}

namespace {

// Streams shard by shard in range order; opens each shard's iterator only
// when the previous shard is exhausted. With `pin`, holds an epoch pin
// for its whole lifetime so a concurrent Rebalance cannot delete the
// stale copies (or reclaim drained nodes) this snapshot still routes to.
// Rebalance's own internal scans pass pin=false: its grace periods wait
// on every pin, so pinning from the rebalancing thread would self-wait.
class ChainedScanIterator final : public ScanIterator {
 public:
  ChainedScanIterator(const std::vector<std::unique_ptr<Index>>* shards,
                      std::size_t first, Key min_key, bool pin)
      : shards_(shards), next_(first), min_key_(min_key), first_(first) {
    if (pin) pin_.emplace();
  }

  bool Next(core::Record* out) override {
    for (;;) {
      if (cur_ && cur_->Next(out)) return true;
      if (next_ >= shards_->size()) {
        // Exhausted: nothing left to protect, so release the pin now
        // rather than at destruction — a drained-but-still-in-scope
        // iterator must not stall a Rebalance (or deadlock one issued
        // from this very thread).
        cur_.reset();
        pin_.reset();
        return false;
      }
      cur_ = (*shards_)[next_]->NewScanIterator(next_ == first_ ? min_key_
                                                                : Key{0});
      ++next_;
    }
  }

 private:
  std::optional<pm::EpochGuard> pin_;  // declared first: released last
  const std::vector<std::unique_ptr<Index>>* shards_;
  std::unique_ptr<ScanIterator> cur_;
  std::size_t next_;
  Key min_key_;
  std::size_t first_;
};

}  // namespace

std::unique_ptr<ScanIterator> ShardedIndex::NewScanIterator(
    Key min_key) const {
  // Route under a pin, then hand the pin's lifetime to the iterator: a
  // Rebalance that publishes new boundaries while this snapshot is open
  // blocks at its grace periods until the iterator is destroyed, so the
  // copies the snapshot routes to stay live (epoch pins are thread-affine
  // — see the header contract). The iterator itself still holds shard
  // *indexes*, never boundary references.
  std::size_t first;
  {
    pm::EpochGuard guard;
    first = ShardOf(min_key);
  }
  return std::make_unique<ChainedScanIterator>(&shards_, first, min_key,
                                               /*pin=*/true);
}

void ShardedIndex::CollectMaintenanceTasks(
    const maint::TaskOptions& opts,
    std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) {
  out->push_back(std::make_unique<maint::ImbalancePolicyTask>(this, opts));
  for (const auto& shard : shards_) {
    shard->CollectMaintenanceTasks(opts, out);
  }
}

ShardedIndex::RebalanceResult ShardedIndex::Rebalance() {
  std::lock_guard lk(rebalance_mu_);
  // An op from a *previous* Rebalance could in principle still hold a
  // reference into the buffer this call will overwrite at publish time;
  // drain pinned ops once up front so the inactive buffer is provably
  // unreferenced.
  WaitForPinnedOps();
  const std::size_t n_shards = shards_.size();
  RebalanceResult r;

  // Per-shard counts: exact at quiescence, a relaxed snapshot under live
  // writers — they only seed the quantile targets and the counter resync,
  // neither of which needs exactness under churn.
  std::vector<std::size_t> counts = ShardEntryCounts();
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  r.imbalance_before = ImbalanceRatio(counts);
  r.imbalance_after = r.imbalance_before;
  if (n_shards == 1 || total == 0) {
    // Nothing to migrate, but still resync the approximate counters to the
    // exact counts: upserts over duplicate keys overcount them (+1 per
    // re-insert) and that phantom residue otherwise accumulates forever,
    // feeding the imbalance policy (maint/tasks.h) a signal with no
    // substance behind it.
    for (std::size_t s = 0; s < n_shards; ++s) {
      counters_[s].entries.store(static_cast<std::int64_t>(counts[s]),
                                 std::memory_order_relaxed);
    }
    return r;
  }

  // New boundaries at the observed key quantiles: boundary j (first key of
  // new shard j+1) is the key at global rank ceil((j+1) * total / N), so
  // every new shard holds ~total/N entries. Shards are ordered ranges, so
  // streaming them in index order visits the keys globally sorted.
  std::vector<Key> bounds;
  bounds.reserve(n_shards - 1);
  {
    std::size_t rank = 0;
    // Unpinned chained scan: the public NewScanIterator pins for its
    // lifetime, and this thread's own grace periods below would wait on
    // that pin forever. Under live writers the quantiles are a snapshot —
    // good enough for a balance heuristic.
    ChainedScanIterator it(&shards_, 0, Key{0}, /*pin=*/false);
    core::Record rec;
    while (bounds.size() < n_shards - 1 && it.Next(&rec)) {
      // total < N makes consecutive cuts collide; the inner loop then emits
      // duplicate boundaries (legal: the shard between them stays empty).
      while (bounds.size() < n_shards - 1 &&
             rank == (bounds.size() + 1) * total / n_shards) {
        bounds.push_back(rec.key);
      }
      ++rank;
    }
    // total < N leaves trailing shards empty: pad with the max key so the
    // boundary list keeps its fixed size (non-decreasing duplicates are
    // legal and route nothing past them).
    while (bounds.size() < n_shards - 1) bounds.push_back(~Key{0});
  }
  // Stage the new boundaries in the inactive buffer *before* opening the
  // migration window: dual-routing writers read bounds_[a ^ 1] as their
  // second route, so the buffer must be complete before any writer can
  // observe migrating_ == true. The copy loop routes by the same staged
  // buffer (`bounds` is moved-from past this point).
  const unsigned inactive = active_.load(std::memory_order_relaxed) ^ 1u;
  bounds_[inactive] = std::move(bounds);
  const std::vector<Key>& staged = bounds_[inactive];
  const auto new_shard_of = [&staged](Key key) {
    return static_cast<std::size_t>(
        std::upper_bound(staged.begin(), staged.end(), key) - staged.begin());
  };

  // Open the migration window (DESIGN.md §4.3). After the grace period,
  // every in-flight writer that single-routed under the old boundaries
  // has finished, and every new writer dual-routes: old shard, stripe
  // bump, new shard. From here to the post-clear grace period, a write
  // racing the copy loop is caught by the per-key seqlock below or lands
  // its own authoritative copy in the new shard — never silently lost.
  migrating_.store(true, std::memory_order_seq_cst);
  WaitForPinnedOps();

  // Phase 1: copy every entry whose shard changes into its new shard. Old
  // boundaries still route lookups, so concurrent readers keep finding the
  // old copies. Inserting into a *later* shard t while it has not been
  // walked yet is fine: the copy routes to t under the new boundaries too,
  // so the walk over t skips it. Nothing is staged here — phase 3
  // re-derives each shard's stale set by the same predicate, keeping peak
  // DRAM at one shard's moved keys instead of the whole migration's.
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto it = shards_[s]->NewScanIterator(Key{0});
    core::Record rec;
    while (it->Next(&rec)) {
      const std::size_t t = new_shard_of(rec.key);
      if (t == s) continue;
      // Per-key seqlock against dual-routing writers. Re-read the live
      // value between two acquire loads of the key's stripe; retry until
      // the stripe is stable across the read + copy. A writer whose bump
      // lands inside the window forces a re-read that observes its
      // old-shard apply; a writer whose bump lands after c1 necessarily
      // acquired the new shard's leaf lock after this copy did (the c1
      // load is ordered after our leaf-lock RMW, so a writer-first leaf
      // order would have made its pre-apply bump visible at c1), and its
      // own new-shard apply overwrites the copy. Either way the writer's
      // value wins. The value must be re-read inside the window — the
      // iterator's rec.ptr predates c0 and may be stale.
      std::atomic<std::uint64_t>& seq = MigSeqOf(rec.key);
      for (int spins = 0;;) {
        const std::uint64_t c0 = seq.load(std::memory_order_acquire);
        const Value v = shards_[s]->Search(rec.key);
        if (v != kNoValue) {
          shards_[t]->Insert(rec.key, v);
        } else {
          // Removed since the iterator saw it: propagate the removal in
          // case an earlier retry (or a racing writer's since-removed
          // insert) left a copy in the new shard.
          shards_[t]->Remove(rec.key);
        }
        if (seq.load(std::memory_order_acquire) == c0) break;
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      ++r.moved;
    }
  }

  // Phase 2: publish. A reader sees either boundary set, and every key is
  // present under both (old copy or migrated copy). seq_cst store so the
  // pin-ordering argument below is airtight: a reader whose (seq_cst) pin
  // follows the grace period's epoch reads must also observe this store.
  active_.store(inactive, std::memory_order_seq_cst);

  // Grace period: wait out every op that may have routed under the old
  // boundaries before deleting the copies it would look for. This is
  // what makes Search() *never* miss during a rebalance rather than
  // almost-never (the route is computed, then the shard searched — a
  // reader preempted between the two must still find the old copy). It
  // also orders the `migrating_` clear below after every writer that read
  // `active_` pre-publish: such a writer is still pinned, so it observes
  // migrating_ == true and dual-routes — it can never pair a pre-publish
  // route with a post-clear single-route decision and strand its write in
  // a shard phase 3 is about to clean.
  WaitForPinnedOps();

  // Close the migration window, then wait out the last dual-routing
  // writers before phase 3 scans for stale copies: a post-publish dual
  // writer's second apply lands in the *old* shard (its first, routing
  // apply already went to the new shard), and that stale copy must be
  // fully written before the cleanup below derives each shard's stale
  // set — one landing after the scan would survive as a phantom
  // duplicate visible to CountEntries and full-range scans.
  migrating_.store(false, std::memory_order_seq_cst);
  WaitForPinnedOps();

  // Phase 3: drop the stale copies — every key in shard s whose *new*
  // shard differs (original entries that migrated out; copies migrated in
  // route to s and are kept), re-derived per shard so peak staging is one
  // shard's moved keys, not the whole migration's. Readers now route via
  // the new boundaries and never look here again; with a reclaiming inner
  // kind the drained nodes go back to the pool free lists (epoch-deferred
  // — the inner Remove pins, pm/reclaim.h). Removal order matters to that
  // reclaimer (core/btree_impl.h TryUnlinkEmptySibling): it unlinks
  // drained leaves to the *right* of the op's leaf, and its route repair
  // needs a live key to the run's right as an upper routing hint. So
  // remove *descending* (right-to-left drains free as they go), keeping
  // the largest moved key as a sentinel until the very end: while it
  // lives, every lower removal finds it as the hint and the repairer
  // frees the run eagerly; removing it first would strand a top-of-tree
  // drained run until some later operation lands left of it.
  // (`bounds` was moved into the published buffer above — route via
  // ShardOf, which reads exactly those published boundaries.)
  std::vector<Key> stale;
  for (std::size_t s = 0; s < n_shards; ++s) {
    stale.clear();
    auto it = shards_[s]->NewScanIterator(Key{0});
    core::Record rec;
    while (it->Next(&rec)) {
      if (ShardOf(rec.key) != s) stale.push_back(rec.key);
    }
    if (stale.empty()) continue;
    for (auto k = stale.rbegin() + 1; k != stale.rend(); ++k) {
      shards_[s]->Remove(*k);
    }
    shards_[s]->Remove(stale.back());  // the sentinel
  }

  // Resync the approximate counters to the post-migration occupancy: new
  // shard j holds the ranks [j*total/N, (j+1)*total/N). Exact at
  // quiescence; writes racing the resync smear it by their in-flight
  // count, which the relaxed counters never promised to resolve anyway.
  std::vector<std::size_t> after(n_shards);
  for (std::size_t j = 0; j < n_shards; ++j) {
    after[j] = (j + 1) * total / n_shards - j * total / n_shards;
    counters_[j].entries.store(static_cast<std::int64_t>(after[j]),
                               std::memory_order_relaxed);
  }
  r.imbalance_after = ImbalanceRatio(after);
  return r;
}

}  // namespace fastfair
