// Uniform index interface: every structure the paper evaluates implements
// it, so benchmarks, TPC-C, and comparative tests treat them identically.
//
// Implementations:
//   fastfair            FAST+FAIR B+-tree, lock-free search  (src/core)
//   fastfair-leaflock   FAST+FAIR + shared leaf latches (serializable reads)
//   fastfair-logging    FAST + undo-logged splits (Fig 5 "FAST+Logging")
//   fastfair-binary     FAST+FAIR with in-node binary search (Fig 3)
//   fastfair-reclaim    FAST+FAIR recycling emptied leaves through the
//                       pool free lists (delete churn; DESIGN.md §3.1)
//   wbtree              wB+-tree, slot-array + bitmap nodes          [14]
//   fptree              FP-tree, PM leaves + volatile inner nodes    [17]
//   wort                WORT write-optimal radix tree                [32]
//   skiplist            persistent skip list                         [33]
//   blink               volatile B-link tree (concurrency reference) [29]
//   sharded-<kind>[:N]  N range-partitioned sub-indexes of any kind
//                       above (index/sharded.h), e.g. "sharded-fastfair"
//                       (default 8 shards) or "sharded-fptree:4"
//   hashed-<kind>[:N]   N hash-partitioned sub-indexes (fibonacci hash,
//                       index/hash_sharded.h): balanced point ops under
//                       key skew, scans pay a k-way merge,
//                       e.g. "hashed-fastfair:8"
//
// README.md ("Index registry") holds the full reference table for the
// grammar; DESIGN.md §4 documents the sharding tier.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/defs.h"
#include "core/node.h"  // core::Record
#include "pm/pool.h"

namespace fastfair {

namespace maint {
class MaintenanceTask;
struct TaskOptions;
}  // namespace maint

/// Streaming cursor over an index's entries in ascending key order.
/// Obtained from Index::NewScanIterator; lives at most as long as the index
/// it iterates. Semantics under concurrent mutation match Scan's: entries
/// present for the whole iteration are returned exactly once, concurrently
/// inserted/removed entries may or may not appear (best effort).
class ScanIterator {
 public:
  virtual ~ScanIterator() = default;

  /// Writes the next entry to `*out` and returns true; returns false when
  /// the iteration is exhausted (then `*out` is untouched).
  virtual bool Next(core::Record* out) = 0;
};

/// The one operation interface every structure implements. Each operation
/// has exactly one virtual, its batch form — SearchBatch, InsertBatch,
/// RemoveBatch, ScanBatch — so routing, epoch pinning, migration
/// dual-routing and probe-cache read-through exist once per adapter, on
/// one path. Search/Insert/Remove/Scan are non-virtual batch-of-one
/// wrappers over them. Where the loop lives (DESIGN.md §8.3): the core
/// tree pipelines its batches natively (core/btree.h); Wrap<T>
/// (adapters.cc) loops a baseline's scalar ops; the sharded adapters
/// bucket each batch per shard and hand every shard its sub-batch.
///
/// Null `out` contract (DESIGN.md §11.1): InsertBatch with out == nullptr
/// throws std::bad_alloc when an op runs out of pool space, exactly like
/// Insert (ops before it are applied, later ones are not); with a status
/// array the op reports kNoSpace instead and the batch continues.
class Index {
 public:
  virtual ~Index() = default;

  /// Batched point lookups: out[i] = kNoValue if keys[i] is absent, else
  /// its value. Keys need not be sorted or distinct.
  virtual void SearchBatch(const Key* keys, std::size_t n,
                           Value* out) const = 0;

  /// Batched upserts applied in batch order (duplicate keys within the
  /// batch resolve to the last occurrence); values must not be kNoValue.
  /// When `out` is non-null, out[i] reports whether op i created its key
  /// (kInserted), overwrote an existing entry (kUpdated), or was skipped
  /// for lack of pool space (kNoSpace) — the service tier's Put replies
  /// depend on this. Kinds whose scalar insert does not report (the
  /// Wrap<T> baselines) probe with a Search first: exact at quiescence,
  /// best-effort against a concurrent writer on the same key.
  virtual void InsertBatch(const core::Record* ops, std::size_t n,
                           InsertStatus* out) = 0;

  /// Batched removals in batch order: out[i] = whether keys[i] was present
  /// (a key repeated within the batch reports true, then false). `out`
  /// must be non-null.
  virtual void RemoveBatch(const Key* keys, std::size_t n, bool* out) = 0;

  /// Batched range scans: out_counts[i] = the number of entries with key
  /// >= ops[i].min_key, ascending, written to ops[i].out (at most
  /// ops[i].cap). Start keys need not be sorted or distinct; the per-op
  /// output buffers must not alias.
  virtual void ScanBatch(const ScanOp* ops, std::size_t n,
                         std::size_t* out_counts) const = 0;

  /// Upsert. `value` must not be kNoValue. Throws std::bad_alloc when the
  /// pool cannot supply the space the op needs.
  void Insert(Key key, Value value) {
    const core::Record op{key, value};
    InsertBatch(&op, 1, nullptr);
  }

  /// Returns false if the key was absent.
  bool Remove(Key key) {
    bool removed = false;
    RemoveBatch(&key, 1, &removed);
    return removed;
  }

  /// kNoValue if absent.
  Value Search(Key key) const {
    Value v = kNoValue;
    SearchBatch(&key, 1, &v);
    return v;
  }

  /// Up to `max_results` entries with key >= min_key, ascending. Returns
  /// the count written to `out`.
  std::size_t Scan(Key min_key, std::size_t max_results,
                   core::Record* out) const {
    const ScanOp op{min_key, max_results, out};
    std::size_t got = 0;
    ScanBatch(&op, 1, &got);
    return got;
  }

  virtual std::string_view name() const = 0;

  /// True when concurrent callers are supported (Fig 7 set).
  virtual bool supports_concurrency() const { return false; }

  /// Total live entries. Quiescent-state helper for tests and examples; the
  /// default walks the index with Scans, adapters with a native counter
  /// override it.
  virtual std::size_t CountEntries() const;

  /// Streaming scan starting at the first key >= `min_key`. The default
  /// refills through ScanBatch (adapters.cc), so every registered
  /// kind gets an iterator for free; composite indexes override it to
  /// stream across sub-indexes without materializing (sharded: shard
  /// chaining; hashed: bounded k-way merge). The iterator borrows the
  /// index — it must not outlive it.
  virtual std::unique_ptr<ScanIterator> NewScanIterator(Key min_key) const;

  /// Maintenance integration (src/maint, DESIGN.md §6): appends this
  /// index's background tasks to `*out` — an imbalance policy for the
  /// range-sharded adapter, a drained-range sweep per reclaiming tree;
  /// composite adapters recurse into their sub-indexes. Default: no tasks
  /// (most kinds have nothing to maintain). The tasks borrow this index —
  /// stop the scheduler before destroying it — and inherit the quiesced-
  /// writer contract of the operations they wrap (maint/maintenance.h).
  virtual void CollectMaintenanceTasks(
      const maint::TaskOptions& opts,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out);
};

/// Factory over the registry above; throws std::invalid_argument for an
/// unknown kind. Node sizes follow each paper's best setting (wB+-tree and
/// FP-tree leaves 1 KB; FAST+FAIR 512 B) unless the caller overrides.
std::unique_ptr<Index> MakeIndex(std::string_view kind, pm::Pool* pool);

/// All registry kinds, in the order the paper's figures list them.
std::vector<std::string> AllIndexKinds();

}  // namespace fastfair
