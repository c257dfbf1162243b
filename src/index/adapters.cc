#include "index/index.h"

#include <new>
#include <stdexcept>
#include <vector>

#include "baselines/blink/blink.h"
#include "baselines/fptree/fptree.h"
#include "baselines/skiplist/skiplist.h"
#include "baselines/wbtree/wbtree.h"
#include "baselines/wort/wort.h"
#include "core/btree.h"
#include "index/hash_sharded.h"
#include "index/sharded.h"
#include "maint/tasks.h"

namespace fastfair {
namespace {

template <class T>
class Wrap final : public Index {
 public:
  template <typename... Args>
  Wrap(std::string name, bool concurrent, Args&&... args)
      : impl_(std::forward<Args>(args)...),
        name_(std::move(name)),
        concurrent_(concurrent) {}

  // The one place a structure gets its batch loop: forward to impl_'s
  // pipelined batch entry point when it has one (the core tree's grouped
  // descents), otherwise loop impl_'s scalar op.
  void SearchBatch(const Key* keys, std::size_t n,
                   Value* out) const override {
    if constexpr (requires { impl_.SearchBatch(keys, n, out); }) {
      impl_.SearchBatch(keys, n, out);
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = impl_.Search(keys[i]);
    }
  }
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override {
    if constexpr (requires { impl_.InsertBatch(ops, n, out); }) {
      impl_.InsertBatch(ops, n, out);
    } else if (out == nullptr) {
      // Null-out contract: exhaustion throws std::bad_alloc, as Insert does.
      for (std::size_t i = 0; i < n; ++i) {
        impl_.Insert(ops[i].key, ops[i].ptr);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        // The baselines' Insert does not report, so probe first: exact at
        // quiescence (an earlier duplicate in the batch is visible to the
        // probe), best-effort against concurrent same-key writers.
        out[i] = impl_.Search(ops[i].key) == kNoValue
                     ? InsertStatus::kInserted
                     : InsertStatus::kUpdated;
        // Baselines signal exhaustion by throwing; map it to the op's
        // status so one op out of pool space sheds instead of aborting the
        // whole batch (and the service worker above it).
        try {
          impl_.Insert(ops[i].key, ops[i].ptr);
        } catch (const std::bad_alloc&) {
          out[i] = InsertStatus::kNoSpace;
        }
      }
    }
  }
  void RemoveBatch(const Key* keys, std::size_t n, bool* out) override {
    // Every kind loops its scalar Remove; the core tree has no pipelined
    // remove.
    for (std::size_t i = 0; i < n; ++i) out[i] = impl_.Remove(keys[i]);
  }
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override {
    if constexpr (requires { impl_.ScanBatch(ops, n, out_counts); }) {
      impl_.ScanBatch(ops, n, out_counts);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out_counts[i] = impl_.Scan(ops[i].min_key, ops[i].cap, ops[i].out);
      }
    }
  }
  std::string_view name() const override { return name_; }
  bool supports_concurrency() const override { return concurrent_; }
  std::size_t CountEntries() const override {
    if constexpr (requires { impl_.CountEntries(); }) {
      return impl_.CountEntries();
    } else {
      return Index::CountEntries();
    }
  }

  void CollectMaintenanceTasks(
      const maint::TaskOptions& /*opts*/,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) override {
    // A reclaiming tree contributes the background drained-range sweep;
    // every other wrapped structure has nothing to maintain.
    if constexpr (requires {
                    impl_.SweepDrainedRanges(Key{0}, 1);
                    impl_.options();
                  }) {
      if (impl_.options().reclaim_empty_leaves) {
        out->push_back(
            std::make_unique<maint::SweepTask<T>>("sweep:" + name_, &impl_));
      }
    } else {
      (void)out;
    }
  }

 private:
  T impl_;
  std::string name_;
  bool concurrent_;
};

core::Options FFOpts(core::ConcurrencyMode cc, core::RebalanceMode rb,
                     core::SearchMode sm) {
  core::Options o;
  o.concurrency = cc;
  o.rebalance = rb;
  o.search = sm;
  return o;
}

}  // namespace

std::unique_ptr<Index> MakeIndex(std::string_view kind, pm::Pool* pool) {
  using core::ConcurrencyMode;
  using core::RebalanceMode;
  using core::SearchMode;
  if (kind == "fastfair") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-leaflock") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-leaflock", true, pool,
        FFOpts(ConcurrencyMode::kLeafLock, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-logging") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-logging", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kLogging,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-binary") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-binary", false, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kBinary));
  }
  if (kind == "fastfair-reclaim") {
    // Delete-churn variant: emptied leaves are unlinked and recycled
    // through the pool free lists. Concurrent: multi-writer unlinking is
    // covered by the split/unlink interlock (core/btree_impl.h, proven by
    // tests/concurrent_mutation_test.cc's seeded race sweep).
    core::Options o = FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
                             SearchMode::kLinear);
    o.reclaim_empty_leaves = true;
    return std::make_unique<Wrap<core::BTree>>("fastfair-reclaim", true,
                                               pool, o);
  }
  if (kind == "fastfair-1k") {  // Fig 4 uses 1 KB FAST+FAIR nodes
    return std::make_unique<Wrap<core::BTreeT<1024>>>(
        "fastfair-1k", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "wbtree") {
    return std::make_unique<Wrap<baselines::WBTree>>("wbtree", false, pool);
  }
  if (kind == "fptree") {
    return std::make_unique<Wrap<baselines::FPTree>>("fptree", true, pool);
  }
  if (kind == "wort") {
    return std::make_unique<Wrap<baselines::Wort>>("wort", false, pool);
  }
  if (kind == "skiplist") {
    return std::make_unique<Wrap<baselines::SkipList>>("skiplist", true,
                                                       pool);
  }
  if (kind == "blink") {
    return std::make_unique<Wrap<baselines::BLink>>("blink", true);
  }
  std::string inner;
  if (const std::size_t shards = TryParseShardedKind(kind, &inner);
      shards != 0) {
    // Structure-agnostic sharding: "sharded-<any registered kind>[:N]"
    // range-partitions N sub-indexes of that kind over the key space.
    return std::make_unique<ShardedIndex>(
        std::string(kind), shards,
        [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
  }
  if (const std::size_t shards = TryParseHashedKind(kind, &inner);
      shards != 0) {
    // "hashed-<any registered kind>[:N]": fibonacci-hash partitioning for
    // point-op balance under key skew; Scan k-way-merges across shards.
    return std::make_unique<HashShardedIndex>(
        std::string(kind), shards,
        [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
  }
  throw std::invalid_argument("unknown index kind: " + std::string(kind));
}

std::vector<std::string> AllIndexKinds() {
  return {"fastfair", "fastfair-leaflock", "fastfair-logging",
          "fastfair-binary", "fastfair-1k", "fastfair-reclaim", "wbtree",
          "fptree", "wort", "skiplist", "blink", "sharded-fastfair",
          "hashed-fastfair"};
}

void Index::CollectMaintenanceTasks(
    const maint::TaskOptions& /*opts*/,
    std::vector<std::unique_ptr<maint::MaintenanceTask>>* /*out*/) {}

std::size_t Index::CountEntries() const {
  // Chunked full scan; correct for any implementation whose Scan returns
  // ascending keys. Restarts one past the last key seen.
  constexpr std::size_t kBatch = 1024;
  std::vector<core::Record> buf(kBatch);
  std::size_t total = 0;
  Key next = 0;
  for (;;) {
    const std::size_t n = Scan(next, kBatch, buf.data());
    total += n;
    if (n < kBatch) return total;
    const Key last = buf[n - 1].key;
    if (last == ~Key{0}) return total;  // key space exhausted
    next = last + 1;
  }
}

namespace {

// Default streaming scan: pulls chunks through Scan (a ScanBatch of one)
// and restarts one past the last key seen, so every adapter (the Wrap<T>
// baselines included) gets an iterator without a native cursor.
// Batches start small and double per refill: consumers that take only a
// few entries (a bounded TPC-C scan through the k-way merge, which pulls
// one iterator per shard) don't pay for a full batch, while long scans
// amortize to kMaxBatch within a few refills.
class BatchedScanIterator final : public ScanIterator {
 public:
  BatchedScanIterator(const Index* idx, Key min_key)
      : idx_(idx), next_key_(min_key) {}

  bool Next(core::Record* out) override {
    if (pos_ == n_) {
      if (done_) return false;
      Refill();
      if (n_ == 0) return false;
    }
    *out = buf_[pos_++];
    return true;
  }

 private:
  static constexpr std::size_t kFirstBatch = 16;
  static constexpr std::size_t kMaxBatch = 256;

  void Refill() {
    n_ = idx_->Scan(next_key_, batch_, buf_);
    pos_ = 0;
    if (n_ < batch_) {
      done_ = true;
    } else {
      const Key last = buf_[n_ - 1].key;
      if (last == ~Key{0}) {
        done_ = true;  // key space exhausted
      } else {
        next_key_ = last + 1;
      }
    }
    if (batch_ < kMaxBatch) batch_ *= 2;
  }

  const Index* idx_;
  Key next_key_;
  core::Record buf_[kMaxBatch];
  std::size_t batch_ = kFirstBatch;
  std::size_t pos_ = 0;
  std::size_t n_ = 0;
  bool done_ = false;
};

}  // namespace

std::unique_ptr<ScanIterator> Index::NewScanIterator(Key min_key) const {
  return std::make_unique<BatchedScanIterator>(this, min_key);
}

}  // namespace fastfair
