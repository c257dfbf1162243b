// Background maintenance tier (DESIGN.md §6): a scheduler thread that runs
// pluggable, budgeted maintenance tasks off the operation path.
//
// The paper keeps every repair on the foreground path: limbo draining and
// dead-range sweeping happen only when a writer passes by, and the per-shard
// skew counters (DESIGN.md §4.3) are observed but never acted on.  This
// tier moves that work to a dedicated thread so foreground operations never
// pay for cleanup or rebalancing they did not cause:
//
//  * `MaintenanceTask` — one unit of background work with a budgeted,
//    interruptible `RunQuantum()` step.  A quantum is bounded (a few dozen
//    leaves, a batch of limbo blocks, one rebalance decision), so the
//    scheduler regains control frequently and `Stop()` is prompt.
//  * `MaintenanceThread` — round-robins the registered tasks, one quantum
//    each per cycle.  A cycle that produced useful work (items or bytes)
//    loops immediately; an idle cycle sleeps `Options::interval` so a quiet
//    system costs one bounded scan per interval.  `RunPass()` is the
//    synchronous variant (tests, deterministic drains): it cycles until
//    every task reports itself at rest.
//
// Concurrency contract: all tasks run on the one scheduler thread, so tasks
// never race each other.  Against the *foreground*, every task is safe
// under live readers AND writers — there is no "maintenance window" to
// schedule around.  PoolDrainTask only touches the pool's shared reclaim
// state; the drained-range sweep rides the split/unlink interlock
// (core/btree_impl.h), and `ShardedIndex::Rebalance` dual-routes racing
// writers through its migration window (DESIGN.md §4.3) — both proven by
// the seeded race sweep in tests/concurrent_mutation_test.cc.  The only
// structural caveat left is the inner index's own concurrency support: an
// inherently single-writer inner kind (wort, wbtree) keeps its contract,
// maintenance or not.  All tasks pin the reclamation epoch exactly like
// foreground ops do.
//
// Shutdown: `Stop()` interrupts *between* quanta, never inside one, then
// joins — an in-flight rebalance migration always completes its
// copy→publish→delete protocol, so stopping mid-quantum loses no keys
// (tests/rebalance_test.cc: StopMidRebalanceLosesNoKeys).  The scheduler
// thread's epoch pin slot is released by the thread-exit hooks in
// pm/reclaim.cc, so a stopped maintenance thread never blocks reclamation.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fastfair::maint {

/// What one `RunQuantum()` step accomplished.
struct QuantumResult {
  std::uint64_t items = 0;  // task units: blocks drained / leaves unlinked /
                            // rebalances triggered
  std::uint64_t bytes = 0;  // bytes made recyclable by this quantum
  bool at_rest = false;     // nothing pending: the task covered all its
                            // ground (sweep wrapped, limbo empty, imbalance
                            // below threshold)
};

/// Per-task telemetry, ThreadStats-style (pm/persist.h): plain counters,
/// snapshotted with relaxed loads.
struct TaskStats {
  std::uint64_t quanta = 0;         // RunQuantum invocations
  std::uint64_t useful_quanta = 0;  // quanta that reported items or bytes
  std::uint64_t items = 0;          // cumulative QuantumResult::items
  std::uint64_t bytes = 0;          // cumulative QuantumResult::bytes
};

/// Knobs of the built-in tasks; carried by Index::CollectMaintenanceTasks
/// so every layer reads one struct. The per-quantum budgets and the
/// policy's size gate are constants of the tasks (maint/tasks.{h,cc}).
struct TaskOptions {
  // ImbalancePolicyTask: trigger Rebalance() when the per-shard imbalance
  // ratio exceeds this (must be > 1.0).
  double rebalance_threshold = 1.2;
};

/// One unit of background work. Implementations live in maint/tasks.h; any
/// subsystem can contribute its own (Index::CollectMaintenanceTasks).
class MaintenanceTask {
 public:
  virtual ~MaintenanceTask() = default;

  virtual std::string_view name() const = 0;

  /// One budgeted step. Must be bounded (the scheduler interrupts between
  /// quanta, never inside one) and must leave the maintained structure
  /// consistent at return.
  virtual QuantumResult RunQuantum() = 0;

  /// Called by RunPass() on every task before its first quantum of the
  /// pass: a task with coverage state (the sweep's cursor and clean-wrap
  /// memory) resets it so the pass re-covers all its ground — work that
  /// appeared since the task last rested must not be skipped because the
  /// task still remembers an older clean pass. Default: nothing to reset.
  virtual void OnPassBegin() {}

  /// Relaxed snapshot of this task's counters.
  TaskStats stats() const {
    TaskStats s;
    s.quanta = quanta_.load(std::memory_order_relaxed);
    s.useful_quanta = useful_.load(std::memory_order_relaxed);
    s.items = items_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class MaintenanceThread;
  void Account(const QuantumResult& r) {
    quanta_.fetch_add(1, std::memory_order_relaxed);
    if (r.items != 0 || r.bytes != 0) {
      useful_.fetch_add(1, std::memory_order_relaxed);
    }
    items_.fetch_add(r.items, std::memory_order_relaxed);
    bytes_.fetch_add(r.bytes, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> quanta_{0};
  std::atomic<std::uint64_t> useful_{0};
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// The scheduler. Owns its tasks; tasks borrow the structures they maintain
/// (pool, index), so Stop() — or destruction, which stops — must happen
/// before those structures are destroyed.
class MaintenanceThread {
 public:
  struct Options {
    // Sleep after an idle cycle (one with no useful work). The --maint-
    // interval-us bench flag lands here.
    std::chrono::microseconds interval{1000};
  };

  MaintenanceThread();  // default Options
  explicit MaintenanceThread(Options opts);
  ~MaintenanceThread();  // Stop()s if running

  MaintenanceThread(const MaintenanceThread&) = delete;
  MaintenanceThread& operator=(const MaintenanceThread&) = delete;

  /// Registers a task. Only before Start() (or after Stop()).
  void AddTask(std::unique_ptr<MaintenanceTask> task);

  /// Launches the scheduler thread. No-op if already running.
  void Start();

  /// Interrupts the scheduler between quanta and joins it. The in-flight
  /// quantum (if any) completes first — see the shutdown contract in the
  /// file comment. No-op if not running.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Synchronous maintenance pass on the *caller's* thread (tests, and
  /// callers that want a deterministic drain point): cycles the tasks
  /// until a full cycle reports no useful work with every task at rest, or
  /// `max_cycles` elapse. Returns the number of useful quanta run. Must not
  /// be called while the scheduler thread runs.
  std::size_t RunPass(std::size_t max_cycles = 4096);

  /// Blocks until the scheduler completes an idle cycle (no useful work,
  /// all tasks at rest) that *started* after this call, or `timeout`
  /// elapses. True when idleness was observed — the convergence signal the
  /// benches poll instead of sleeping blind.
  bool WaitIdle(std::chrono::milliseconds timeout);

  struct TaskReport {
    std::string name;
    TaskStats stats;
  };
  /// Per-task counter snapshot, in registration order.
  std::vector<TaskReport> StatsSnapshot() const;

 private:
  void Loop();

  Options opts_;
  std::vector<std::unique_ptr<MaintenanceTask>> tasks_;
  mutable std::mutex mu_;            // guards cv + idle_cycles_
  std::condition_variable cv_;       // woken by Stop() and idle transitions
  std::uint64_t idle_cycles_ = 0;    // completed idle cycles (under mu_)
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace fastfair::maint
