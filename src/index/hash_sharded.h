// Hash-sharded index adapter: the skew-immune sibling of ShardedIndex
// (DESIGN.md §4.2).
//
// Keys route by fibonacci hashing — shard(k) = floor(mix(k) * N / 2^64)
// with mix(k) = k * 2^64/φ — so any key distribution, no matter how
// clustered in key space, spreads near-uniformly across the N sub-indexes:
// the property range partitioning loses under zipfian or sequential keys.
// The price is paid by Scan: per-shard results are each sorted but
// interleave globally, so a cross-shard scan runs a bounded k-way merge
// (one streaming ScanIterator per shard + an N-entry min-heap; memory is
// O(N · batch), never the result set).
//
// Registry grammar mirrors the range adapter: "hashed-<kind>[:N]" (default
// 8 shards), e.g. "hashed-fastfair:8", parsed by TryParseHashedKind. Pick
// hashed- for point-op-heavy skewed workloads, sharded- for scan-heavy
// ones; range sharding plus ShardedIndex::Rebalance() covers the middle
// (trade-offs in DESIGN.md §4, measured in bench/micro_skew.cc).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/fp_cache.h"
#include "index/sharded.h"

namespace fastfair {

/// Parser for the hashed kind grammar "hashed-<inner kind>[:N]", same
/// contract as TryParseShardedKind (0 when `kind` is not hashed-, throws on
/// malformed counts / empty or nested inner kinds).
std::size_t TryParseHashedKind(std::string_view kind,
                               std::string* inner_kind = nullptr);

class HashShardedIndex final : public Index {
 public:
  using ShardFactory = ShardedIndex::ShardFactory;

  /// N hash-partitioned sub-indexes. Throws std::invalid_argument when
  /// `num_shards` is zero.
  HashShardedIndex(std::string name, std::size_t num_shards,
                   const ShardFactory& make);

  /// The batch forms (DESIGN.md §8.3): one hash-routing pass buckets the
  /// batch, each shard gets its sub-batch in original order (the inner
  /// kind's pipelined batch runs per shard), results scatter back to the
  /// caller's positions. SearchBatch reads through the probe tier first;
  /// InsertBatch and RemoveBatch invalidate it after the shards apply.
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const override;
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override;
  void RemoveBatch(const Key* keys, std::size_t n, bool* out) override;

  /// Batched scans: hash routing interleaves every range across all
  /// shards, so each shard serves the whole batch through one native
  /// ScanBatch call (grouped descents inside the shard) into per-op
  /// scratch runs, then each batch entry k-way-merges its per-shard runs.
  /// A batch whose scratch would exceed a bounded budget falls back to
  /// the streaming per-op merge (MergeScan: same results, scalar
  /// descents).
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override;

  /// Same relaxed concurrent semantics as ShardedIndex::CountEntries:
  /// shard sums taken non-atomically, exact only at quiescence.
  std::size_t CountEntries() const override;

  /// The streaming form of the k-way merge.
  std::unique_ptr<ScanIterator> NewScanIterator(Key min_key) const override;

  std::string_view name() const override { return name_; }
  bool supports_concurrency() const override { return concurrent_; }

  std::size_t num_shards() const { return shards_.size(); }

  /// Fibonacci-hash routing: multiplying by 2^64/φ mixes low-entropy key
  /// prefixes across the high bits the fixed-point shard multiply reads,
  /// so clustered keys still spread (golden-ratio multiplicative hashing).
  std::size_t ShardOf(Key key) const {
    const Key mixed = key * 0x9E3779B97F4A7C15ull;  // 2^64 / φ
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(mixed) * shards_.size()) >> 64);
  }

  /// Exact per-shard entry counts (quiescent-state helper); feed to
  /// ImbalanceRatio (index/sharded.h) for the skew metric.
  std::vector<std::size_t> ShardEntryCounts() const;

  /// Resizes (or, with 0, disables) the fingerprint probe tier (DESIGN.md
  /// §9.4): a DRAM sidecar that answers repeat point lookups from three
  /// cache lines instead of a full shard descent. Read-through only — the
  /// shards stay authoritative; writes invalidate through it.
  /// Setup-time API: not safe against concurrent operations.
  void SetProbeCacheCapacity(std::size_t entries);

  /// Stats of the probe tier (zeros when disabled).
  FpProbeCache::Stats ProbeCacheStats() const;

  /// Default probe-tier capacity (entries) a fresh index starts with.
  static constexpr std::size_t kDefaultProbeCacheEntries = 16384;

  /// No policy task of its own (hash routing is skew-immune by
  /// construction); recurses into the shards so a reclaiming inner kind
  /// still contributes its per-shard sweep tasks.
  void CollectMaintenanceTasks(
      const maint::TaskOptions& opts,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) override;

 private:
  /// Bounded streaming k-way merge for one scan: one iterator per shard
  /// and an N-entry min-heap, O(N · refill) memory whatever `cap` is.
  std::size_t MergeScan(Key min_key, std::size_t cap,
                        core::Record* out) const;

  std::vector<std::unique_ptr<Index>> shards_;
  std::string name_;
  std::unique_ptr<FpProbeCache> fp_cache_;
  bool concurrent_ = true;
};

}  // namespace fastfair
