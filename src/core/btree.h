// FAST+FAIR persistent B+-tree: the paper's primary contribution.
//
// Public API (all methods thread-safe):
//
//   pm::Pool pool(1ull << 30);
//   core::BTree tree(&pool);              // 512-byte nodes, lock-free reads
//   tree.Insert(k, v);                    // upsert; v must be non-zero
//   Value v = tree.Search(k);             // lock-free, non-blocking
//   tree.Remove(k);
//   tree.Scan(lo, n, out);                // sorted range scan via leaf chain
//
// Durability contract: when Insert/Remove returns, the operation is
// persistent.  At *every* instant in between, the durable bytes form a tree
// that readers (and post-crash recovery) interpret correctly — that is the
// paper's "endurable transient inconsistency".  No logging, no
// copy-on-write, no read latches (in kLockFree mode).
//
// Value-uniqueness contract (paper §3.1: "all pointers in B+-tree nodes are
// unique"): the duplicate-pointer validity rule requires that two *adjacent*
// records in one node never legitimately share a value.  Store pointers or
// otherwise distinct values; kNoValue (0) is reserved.
//
// Node size is a template parameter (the Fig 3 experiment sweeps it);
// BTreeT<512> is the paper's default and is aliased as BTree.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/defs.h"
#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "core/node_search_simd.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "pm/reclaim.h"

namespace fastfair::core {

enum class ConcurrencyMode : std::uint8_t {
  kLockFree,  // readers never lock (read-uncommitted, paper §4.1)
  kLeafLock,  // readers take a shared leaf latch (serializable commits)
};

enum class RebalanceMode : std::uint8_t {
  kFair,     // FAIR in-place split (the paper's contribution)
  kLogging,  // FAST+Logging baseline: undo-log the node image before split
};

enum class SearchMode : std::uint8_t {
  kLinear,  // required for lock-free reads; fast at small node sizes
  kBinary,  // single-threaded only (Fig 3 comparison)
};

struct Options {
  ConcurrencyMode concurrency = ConcurrencyMode::kLockFree;
  RebalanceMode rebalance = RebalanceMode::kFair;
  SearchMode search = SearchMode::kLinear;
  // Lazy reclamation of emptied leaves (paper §4.2's merge path):
  // empty leaves are marked dead, unlinked from the chain, and their
  // parent routes repaired lazily; the repairer that removes the last
  // persistent route returns the node to the pool's free lists, where
  // concurrent readers are covered by epoch-based deferral (DESIGN.md
  // §3.1). Verified by tests/btree_merge_test and the delete-churn tests;
  // multi-writer unlinking is covered by the split/unlink interlock (a
  // dead-child re-check under the parent lock in InsertInternal /
  // SplitAndInsert, plus lock-protected fence lowering) and proven by the
  // seeded race sweep in tests/concurrent_mutation_test.cc. The feature
  // stays opt-in only because unreclaimed trees skip the epoch pin on the
  // read path (the paper-reproduction configuration must stay untouched).
  bool reclaim_empty_leaves = false;
};

/// Persistent per-tree anchor. Lives in the pool; an application stores its
/// address (e.g. via Pool::SetRoot) to find the tree after restart.
struct TreeMeta {
  std::uint64_t magic;
  std::uint64_t root;       // Node<PageSize>*; updated by 8-byte CAS + flush
  std::uint64_t page_size;
  std::uint64_t split_log;  // SplitLog* (RebalanceMode::kLogging only)
};

inline constexpr std::uint64_t kTreeMagic = 0xb7ee'fa57'fa12ull;

template <std::size_t PageSize = 512>
class BTreeT {
 public:
  using NodeT = Node<PageSize>;
  using Ops = NodeOps<NodeT, RealMem>;
  static constexpr std::size_t kPageSize = PageSize;
  static constexpr int kNodeCapacity = NodeT::kCapacity;

  /// Creates a new empty tree in `pool`.
  explicit BTreeT(pm::Pool* pool, const Options& opts = {});

  /// Attaches to an existing tree (recovery path). Reinitializes volatile
  /// lock words and adopts any crash-orphaned root-level siblings; node
  /// interior inconsistencies are repaired lazily by subsequent writers.
  BTreeT(pm::Pool* pool, TreeMeta* meta, const Options& opts = {});

  TreeMeta* meta() const { return meta_; }
  const Options& options() const { return opts_; }

  /// Upsert. `value` must not be kNoValue. Returns true when the key was
  /// newly inserted, false when an existing entry was overwritten. Throws
  /// std::bad_alloc when the pool cannot supply a needed split (the tree is
  /// left untouched and fully valid — see TryInsert for the status form).
  bool Insert(Key key, Value value);

  /// Status-propagating upsert: kInserted / kUpdated, or kNoSpace when the
  /// pool could not supply the split the op needed. On kNoSpace the key was
  /// not inserted and the tree is structurally untouched: a failed split
  /// unwinds before mutating the node (the sibling is allocated first), and
  /// a split whose *parent* publication cannot allocate simply stops there —
  /// the sibling stays reachable through the B-link chain, the exact state a
  /// crash between split and parent insert leaves, which move-right +
  /// AdoptSibling already complete lazily (paper §4.2).
  InsertStatus TryInsert(Key key, Value value);

  /// Removes `key`; returns false if absent.
  bool Remove(Key key);

  /// Point lookup; kNoValue if absent. Non-blocking in kLockFree mode.
  Value Search(Key key) const;

  /// Descent group size for the batched pipeline (DESIGN.md §8.1): large
  /// enough to hide one emulated PM read stall behind seven peers. A wave
  /// of G whole-node prefetches exceeds the 10-12 line-fill buffers of
  /// current x86 cores; the excess requests queue behind the first ones.
  static constexpr std::size_t kBatchGroup = 8;

  /// Batched point lookups: out[i] = Search(keys[i]) for every i, same
  /// per-key semantics and thread-safety as Search. Keys need not be
  /// sorted or distinct. Descents run interleaved in groups of
  /// kBatchGroup with each child prefetched one level ahead, so the
  /// emulated serial PM read stall is paid once per group of leaves
  /// instead of once per key (pm::AnnotateReadGroup).
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const;

  /// Batched upserts: equivalent to Insert(ops[i].key, ops[i].ptr) in
  /// order (duplicate keys within the batch resolve to the last
  /// occurrence). Descents pipeline exactly like SearchBatch; the leaf
  /// writes themselves run one at a time under the usual leaf locks.
  /// When `out` is non-null, out[i] records whether op i created its key
  /// or overwrote an existing entry (a duplicate key's second occurrence
  /// reports kUpdated), or kNoSpace when the pool could not supply op i's
  /// split (that op alone is skipped — the tree stays valid and later ops
  /// still run). With out == nullptr such an op throws std::bad_alloc like
  /// Insert: the ops before it are applied, the ops after it are not.
  void InsertBatch(const Record* ops, std::size_t n,
                   InsertStatus* out = nullptr);

  /// Collects up to `max_results` records with key >= min_key in ascending
  /// order. Returns the number written.
  std::size_t Scan(Key min_key, std::size_t max_results, Record* out) const;

  /// Collects records with min_key <= key <= max_key (up to `cap`).
  std::size_t ScanRange(Key min_key, Key max_key, Record* out,
                        std::size_t cap) const;

  /// Batched range scans: out_counts[i] = Scan(ops[i].min_key, ops[i].cap,
  /// ops[i].out) for every i, same per-op semantics and thread-safety as
  /// Scan. Start keys need not be sorted or distinct; output buffers must
  /// not alias. Descents to the start leaves run interleaved in groups of
  /// kBatchGroup (DescendGroup), then the leaf chains drain hand-over-hand:
  /// each wave collects one leaf per live cursor and prefetches the
  /// siblings together, charging one grouped read stall per wave
  /// (pm::AnnotateReadGroup) instead of one per leaf hop per scan. A group
  /// smaller than kBatchGroup fills the descent's stall with the next
  /// leaves its parents already name (DESIGN.md §8.2b), so a lone scan
  /// takes its first hops without a stall.
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const;

  /// Tree height in levels (1 = a single leaf).
  int Height() const;

  /// Structural statistics (quiescent-state helper).
  struct TreeStats {
    int height = 0;
    std::size_t entries = 0;
    std::vector<std::size_t> nodes_per_level;  // [0] = leaves
    double leaf_fill = 0.0;  // live entries / leaf capacity
  };
  TreeStats GetTreeStats() const;

  /// Total live entries (quiescent-state helper for tests/examples).
  std::size_t CountEntries() const;

  /// One budgeted quantum of the background drained-range sweep
  /// (maintenance tier, DESIGN.md §6). Visits up to `max_leaves` leaves
  /// starting at the one covering `cursor`, feeding each to
  /// TryUnlinkEmptySibling so abandoned empty runs — ranges drained by a
  /// workload that never revisits them, the stranding case lazy repair
  /// cannot reach — are unlinked, route-repaired, and freed without
  /// waiting for a writer. Returns the resume cursor; `wrapped` means the
  /// chain's live tail was passed and the next call should restart at 0.
  /// Requires Options::reclaim_empty_leaves (no-op otherwise, reported as
  /// wrapped). Safe under live foreground writers: the quantum takes the
  /// same per-leaf locks as any writer op and the split/unlink interlock
  /// keeps concurrent splits from re-linking a node mid-reclaim; readers
  /// are covered by the epoch pin the quantum holds.
  struct SweepResult {
    Key next_cursor = 0;       // pass back on the next call
    bool wrapped = false;      // swept past the last live key; restart at 0
    std::size_t unlinked = 0;  // dead leaves unlinked + eagerly repaired
  };
  SweepResult SweepDrainedRanges(Key cursor, int max_leaves);

  /// Structural validation for tests: sortedness, fences, level links,
  /// global leaf-chain order. Quiescent trees only. Returns true if OK.
  bool CheckInvariants(std::string* msg = nullptr) const;

 private:
  static NodeT* AsNode(std::uint64_t p) { return reinterpret_cast<NodeT*>(p); }
  static const NodeT* Resolve(std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  }

  NodeT* Root() const {
    return AsNode(std::atomic_ref<std::uint64_t>(meta_->root)
                      .load(std::memory_order_acquire));
  }
  bool CasRoot(NodeT* expected, NodeT* desired);

  /// Node allocation goes through the pool's per-thread arena path
  /// (pm/pool.h): concurrent writers splitting leaves never contend on the
  /// global bump offset. crashsim intercepts these allocations via
  /// Pool::SetAllocHook (see crashsim::SimMem::InterceptPool).
  NodeT* AllocNode(std::uint16_t level);

  /// Nothrow variant (Pool::TryAlloc): nullptr when the pool is exhausted
  /// or the fault injector fails the site. The split path uses this so a
  /// failed allocation unwinds into an InsertStatus::kNoSpace instead of an
  /// exception mid-mutation.
  NodeT* TryAllocNode(std::uint16_t level);

  /// In-node search dispatch, resolved once at construction from
  /// Options::search and the active SIMD ISA (simd::ActiveIsa) instead of
  /// branching per node visit (the hot-path hoist): leaf probe, internal
  /// child selection, and valid-record collection for scans. kLinear
  /// resolves to the vectorized protocol of core/node_search_simd.h when a
  /// vector ISA is active (FASTFAIR_SIMD=scalar recovers the paper's scalar
  /// reference); kBinary stays scalar (single-threaded-only mode).
  using LeafSearchFn = Value (*)(RealMem&, const NodeT*, Key);
  using ChildSearchFn = std::uint64_t (*)(RealMem&, const NodeT*, Key);
  using CollectFn = int (*)(RealMem&, const NodeT*, Record*);
  void InitSearchDispatch();

  /// Touches the lines the in-node search of `n` will read, so the fetch
  /// overlaps work on the other descents of a batch group: the whole node,
  /// header first, capped at 8 lines because past that (1-4 KB nodes) a
  /// single descent's own demand loads queue behind its prefetches (Fig 3
  /// search rows, EXPERIMENTS.md).
  static void PrefetchNode(const NodeT* n) {
    constexpr std::size_t kLines =
        std::min<std::size_t>(8, sizeof(NodeT) / kCacheLineSize);
    const char* p = reinterpret_cast<const char*>(n);
    for (std::size_t i = 0; i < kLines; ++i) {
      __builtin_prefetch(p + i * kCacheLineSize, 0, 3);
    }
  }

  /// Lock-free descent to the leaf whose range covers `key`: a one-key
  /// DescendGroup, charged as one read stall.
  NodeT* FindLeaf(Key key) const;

  /// Interleaved lock-free descent of `g` keys (g <= kBatchGroup) to their
  /// covering leaves: one wave per level below the root, each slot's child
  /// prefetched a full wave before it is searched, and the g leaf arrivals
  /// of the last wave charged as one grouped read stall
  /// (pm::AnnotateReadGroup). With `parents`, also returns each slot's
  /// level-1 node, the parent its leaf was chosen from (nullptr when the
  /// root is a leaf), and leaves the charge to the caller, which adds its
  /// own fetches to the group's stall first (ScanBatch's parent hints).
  void DescendGroup(const Key* keys, std::size_t g, NodeT** leaves,
                    const NodeT** parents = nullptr) const;

  /// Search tail: probes `n` (a leaf from FindLeaf/DescendGroup) and
  /// follows the sibling chain while the key may live right of it.
  Value SearchInLeaf(NodeT* n, Key key) const;

  /// Insert tail: locks the covering leaf starting from hint `leaf`
  /// (re-descending if the hint died) and performs the upsert/split.
  /// kInserted for a fresh insert, kUpdated for an in-place update,
  /// kNoSpace when the needed split could not allocate (key not inserted,
  /// tree untouched).
  InsertStatus InsertFrom(NodeT* leaf, Key key, Value value);

  /// Locks `n`, hopping right while the key belongs to a sibling. On a hop
  /// triggered at leaf level, lazily completes a possibly-crashed split by
  /// ensuring the parent knows the sibling (paper §4.2). Returns nullptr if
  /// the locked node turned out to be dead (emptied + unlinked); the dead
  /// node's parent separator has then been repaired and the caller must
  /// retry from the root.
  NodeT* LockCovering(NodeT* n, Key key);

  /// Lazy merge (paper §4.2), extended with reclamation: marks the maximal
  /// run of empty leaves right of `n` dead, unlinks them from the chain,
  /// and eagerly repairs + frees them via RepairDeadRoutes. Caller holds
  /// `n`'s lock and passes the key its operation targeted (the repair
  /// range's lower bound). Only with Options::reclaim_empty_leaves.
  /// Returns the number of leaves unlinked (the sweep task's work metric).
  int TryUnlinkEmptySibling(NodeT* n, Key op_key);

  /// Removes the parent separator routing to `dead` (found via `hint_key`,
  /// the key whose traversal hit the dead node). Idempotent.
  void RemoveChildFromParent(const NodeT* dead, std::uint16_t parent_level,
                             Key hint_key);

  /// True when locked internal `p` routes to no live child.
  bool AllRoutesDead(NodeT* p);

  /// Removes every dead-child route of locked `p` (delete the separator
  /// where safe, else duplicate an adjacent route over it and let the
  /// duplicate-pointer rule + FixNode merge the pair), reclaiming each
  /// unrouted child subtree. Redirects never leave `p`, so a child always
  /// has exactly one routing parent.
  void CleanDeadRoutes(NodeT* p);

  /// Claims and frees dead node `c` and, for internal `c`, its dead-child
  /// subtrees (whose only routes lived inside `c`).
  void ReclaimDeadSubtree(const NodeT* c);

  /// After a route widening (dup-merge in CleanDeadRoutes), split-created
  /// descendants of `c` must present a low-fence record key equal to the
  /// widened route's key, or keys in the widened range would fall through
  /// SearchInternal's degenerate fallback and, once inserted below a stale
  /// fence, invert key-vs-chain order after a split. Recursively lowers
  /// records[0].key down the leftmost-child spine (8-byte atomic stores).
  bool LowerFence(NodeT* c, Key low);

  /// Walks level `level`'s sibling chain across the parents covering
  /// [lo, hi]: cleans dead routes in each, unlinks nodes whose children
  /// all died (the drained-subtree case), and recurses one level up to
  /// remove — and reclaim — those nodes in turn.
  void RepairDeadRoutes(std::uint16_t level, Key lo, Key hi);

  /// Splits locked `node` and inserts (key, down) into the proper half;
  /// releases locks and updates the parent (Alg 2). Returns false when the
  /// sibling allocation failed: `node` is then unlocked and untouched and
  /// (key, down) was not inserted. Failure of the *parent* update's own
  /// allocation does not fail the op — the committed split stays reachable
  /// through the B-link chain and is adopted lazily.
  bool SplitAndInsert(NodeT* node, Key key, std::uint64_t down);

  /// Inserts separator (sep -> right) at `level`, growing the root if
  /// needed. Idempotent: skips if `right` is already present.
  void InsertInternal(Key sep, NodeT* right, std::uint16_t level);

  /// Best-effort lazy split completion: make sure `right`'s fence is in the
  /// parent level. No-op if already there.
  void AdoptSibling(NodeT* right, std::uint16_t parent_level);

  /// Undo-log used by RebalanceMode::kLogging (FAST+Logging baseline).
  void LogNodeImage(const NodeT* node);
  void ClearLog();

  /// Recovery helpers (attach constructor).
  void ReinitVolatileState();
  void AdoptRootChain();

  pm::Pool* pool_;
  TreeMeta* meta_;
  Options opts_;
  LeafSearchFn leaf_search_;    // set by InitSearchDispatch()
  ChildSearchFn child_search_;  // set by InitSearchDispatch()
  CollectFn collect_valid_;     // set by InitSearchDispatch()
  // kLogging mode: persistent undo area (image + active flag), allocated at
  // construction so split-time allocation isn't part of the logging cost.
  struct SplitLog {
    std::uint64_t active;  // node address being split, 0 = idle
    std::uint8_t image[PageSize];
  };
  SplitLog* split_log_ = nullptr;
};

using BTree = BTreeT<512>;

extern template class BTreeT<256>;
extern template class BTreeT<512>;
extern template class BTreeT<1024>;
extern template class BTreeT<2048>;
extern template class BTreeT<4096>;

}  // namespace fastfair::core

#include "core/btree_impl.h"
