// Persistence primitives + PM emulation layer.
//
// This module is the substrate the paper obtains from real hardware plus the
// Quartz DRAM-based PM latency emulator:
//
//  * `Clflush` / `Persist` / `Sfence` wrap the real cache-line flush and store
//    fence instructions, so flush *counts* and cache-eviction side effects are
//    the real thing.
//  * Configurable latency injection substitutes for Quartz (see DESIGN.md
//    §5.1): every flushed cache line spins for `write_latency_ns`, and every
//    `AnnotateRead` (called once per pointer-chased PM node by the index
//    implementations) spins for `read_latency_ns`.  The paper's performance
//    arguments are about flush/fence/serial-read counts, and this layer makes
//    those counts the directly priced quantities.
//  * `FenceIfNotTso` implements the paper's `mfence_IF_NOT_TSO()`: a no-op on
//    TSO (x86) and a real fence plus a `dmb` cost surrogate in the emulated
//    non-TSO mode used by the Fig 5(d) experiment.
//  * Per-thread counters record flushed lines, fences, barrier calls, read
//    annotations, and time spent flushing; the Fig 5(a) breakdown and the
//    barrier-count ablations read them.
//
// Thread safety: configuration is global and read with relaxed atomics (set it
// before or between benchmark phases); statistics are thread-local.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/defs.h"

namespace fastfair::pm {

enum class MemModel : std::uint8_t {
  kTso,     // x86-like: stores are not reordered with stores.
  kNonTso,  // ARM-like: FAST must fence between dependent stores.
};

enum class Persistency : std::uint8_t {
  kStrict,   // persist order == volatile store order (paper's main model)
  kRelaxed,  // epoch-style: a persist barrier is required per ordered flush
};

struct Config {
  std::uint64_t write_latency_ns = 0;  // injected per flushed cache line
  std::uint64_t read_latency_ns = 0;   // injected per AnnotateRead call
  std::uint64_t barrier_ns = 0;        // injected per FenceIfNotTso (non-TSO)
  MemModel model = MemModel::kTso;
  // Paper §VI: under relaxed persistency FAST/FAIR must issue a persist
  // barrier per ordered cache-line flush (they already do for in-node
  // shifts; this additionally orders multi-line persists, e.g. split
  // copies). Enables the ablation_persistency experiment.
  Persistency persistency = Persistency::kStrict;
  // Opt-in flush coalescing (DESIGN.md §8.2): while a FlushScope is open,
  // same-cache-line flushes dedupe into a write-combining buffer and the
  // scope drains as one clflushopt train plus a single trailing fence.
  // Only honoured under Persistency::kRelaxed — strict mode keeps the
  // paper's eager per-boundary flush order untouched.
  bool coalesce_flushes = false;
};

/// Installs a new global emulation config. Not meant to race with operations;
/// benchmarks call it between phases.
void SetConfig(const Config& cfg);
Config GetConfig();

/// Convenience setter for the memory-model knobs alone.
void SetMemModel(MemModel model, std::uint64_t barrier_ns = 0);

/// Per-thread persistence statistics.
struct ThreadStats {
  std::uint64_t flush_lines = 0;       // cache lines flushed
  std::uint64_t fences = 0;            // sfence count
  std::uint64_t barriers = 0;          // FenceIfNotTso count (non-TSO only)
  std::uint64_t read_annotations = 0;  // PM node visits charged read latency
  std::uint64_t read_stalls = 0;       // serialized read-latency stalls paid
  std::uint64_t read_hints = 0;        // extra fetches a grouped stall covered
  std::uint64_t read_hint_hits = 0;    // node visits served by such a fetch
  std::uint64_t wc_lines_saved = 0;    // same-line flushes a FlushScope deduped
  std::uint64_t wc_fences_saved = 0;   // fences a FlushScope deferred/elided
  std::uint64_t flush_ns = 0;          // wall time inside Clflush/Persist
  std::uint64_t allocs = 0;            // PM pool allocations
  std::uint64_t alloc_bytes = 0;       // bytes handed out to this thread
  std::uint64_t arena_refills = 0;     // arena chunk reservations (global CAS)
  std::uint64_t frees = 0;             // Pool::Free calls from this thread
  std::uint64_t free_bytes = 0;        // bytes this thread logically freed
  std::uint64_t recycles = 0;          // allocations served from a free list
  std::uint64_t recycle_bytes = 0;     // bytes served from free lists
  std::uint64_t freelist_spills = 0;   // cache -> global batch pushes
  std::uint64_t freelist_refills = 0;  // global -> cache batch pops

  ThreadStats& operator-=(const ThreadStats& o);
  ThreadStats operator-(const ThreadStats& o) const;
  /// Member-wise sum: aggregates per-thread deltas across a worker pool
  /// (the service tier folds each worker's phase delta into one total).
  ThreadStats& operator+=(const ThreadStats& o);
  ThreadStats operator+(const ThreadStats& o) const;
};

/// Mutable reference to this thread's counters.
ThreadStats& Stats();
void ResetStats();

/// Flushes one cache line containing `addr` and charges write latency.
void Clflush(const void* addr);

/// Flushes every cache line in [addr, addr+len) and issues a store fence.
/// This is the paper's `clflush_with_mfence`.
void Persist(const void* addr, std::size_t len);

/// Flushes the range without a trailing fence (used when several ranges are
/// persisted together, with one explicit Sfence at the end).
void FlushRange(const void* addr, std::size_t len);

/// Store fence: orders flushes with subsequent stores.
void Sfence();

/// The paper's `mfence_IF_NOT_TSO()`. No-op under TSO; real fence plus `dmb`
/// cost surrogate under the emulated non-TSO model.
void FenceIfNotTso();

/// Read-latency injection point: indexes call this once per PM node they
/// pointer-chase into. Models serial (dependent) PM reads; adjacent lines
/// within a node are assumed fetched in parallel by MLP / prefetch, per the
/// paper's §5.4 argument. Charges one read_stall (and one latency spin).
void AnnotateRead(const void* node);

/// Grouped read annotation for the batched descent pipeline (DESIGN.md
/// §8.1): `nodes` PM nodes whose addresses were all known before any was
/// dereferenced (an interleaved group of descents that prefetched each
/// child one level ahead), so the fetches overlap in the memory system the
/// same way a node's adjacent lines do. Counts `nodes` read_annotations
/// (node-visit accounting is unchanged) but only ONE serialized stall —
/// one read_stall, one latency spin. No-op when nodes == 0.
///
/// `hinted` more fetches may ride the same stall (counted in read_hints,
/// not in read_annotations): nodes whose addresses a parent node already
/// held, prefetched before a walk reaches them (ScanBatch's parent-hinted
/// leaves, DESIGN.md §8.2b). The group's nodes + hinted stay within the
/// same memory-parallelism budget a descent group assumes.
void AnnotateReadGroup(std::size_t nodes, std::size_t hinted = 0);

/// Count-only read annotation: a node visit whose fetch an earlier
/// AnnotateReadGroup(..., hinted) already covered. Counts one
/// read_annotation (node visits stay one per visited node) and one
/// read_hint_hit, but no stall and no latency spin. read_hints minus
/// read_hint_hits is the hinted fetches no walk used.
void AnnotateHintedRead();

/// Write-combining flush scope (DESIGN.md §8.2). While the innermost
/// engaged scope on this thread is open, Clflush/FlushRange record their
/// cache lines into a thread-local buffer (duplicates dedupe; counted in
/// ThreadStats::wc_lines_saved) and Sfence defers (wc_fences_saved); the
/// outermost scope's destructor flushes each distinct line once — charging
/// the usual per-line write latency — and issues a single trailing fence.
/// Engages only when the global config is Persistency::kRelaxed AND
/// Config::coalesce_flushes, so the paper's strict-order flush argument is
/// untouched by default; under the opt-in the durability point of an
/// operation moves from each internal boundary to scope exit (the whole
/// operation becomes one persist epoch — a crash mid-scope may lose the
/// in-flight operation, never the ordering of completed ones).
class FlushScope {
 public:
  FlushScope();
  ~FlushScope();
  FlushScope(const FlushScope&) = delete;
  FlushScope& operator=(const FlushScope&) = delete;

  /// True when a scope is currently capturing on this thread (tests).
  static bool Active();

 private:
  bool engaged_ = false;
};

/// Busy-waits approximately `ns` nanoseconds (TSC-calibrated).
void SpinNs(std::uint64_t ns);

/// Monotonic nanosecond clock (TSC-based when available).
std::uint64_t NowNs();

}  // namespace fastfair::pm
