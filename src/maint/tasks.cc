#include "maint/tasks.h"

#include <algorithm>
#include <new>

#include "pm/reclaim.h"

namespace fastfair::maint {

namespace {
// PoolDrainTask: limbo blocks recycled per quantum.
constexpr std::size_t kDrainBlocksPerQuantum = 256;
// ImbalancePolicyTask: skip indexes smaller than this many entries per
// shard on average — quantile boundaries over a handful of keys are
// noise, not signal.
constexpr std::size_t kRebalanceMinEntriesPerShard = 64;
}  // namespace

std::unique_ptr<MaintenanceThread> MakeMaintenanceThread(
    pm::Pool* pool, const std::vector<Index*>& indexes,
    const TaskOptions& opts, std::chrono::microseconds interval) {
  MaintenanceThread::Options mo;
  mo.interval = interval;
  auto mt = std::make_unique<MaintenanceThread>(mo);
  mt->AddTask(std::make_unique<PoolDrainTask>(pool));
  std::vector<std::unique_ptr<MaintenanceTask>> tasks;
  for (Index* idx : indexes) {
    if (idx != nullptr) idx->CollectMaintenanceTasks(opts, &tasks);
  }
  for (auto& t : tasks) mt->AddTask(std::move(t));
  return mt;
}

QuantumResult PoolDrainTask::RunQuantum() {
  // Advance the epoch first: entries stamped at the previous epoch become
  // recyclable as soon as every reader pinned at it unpins, without any
  // foreground free having to notice.
  pm::epoch::TryAdvance();
  QuantumResult q;
  q.bytes = pool_->DrainLimboQuantum(kDrainBlocksPerQuantum);
  q.items = q.bytes != 0 ? 1 : 0;
  // limbo_empty is the lock-free mirror: entries still epoch-pinned keep
  // it false, which is right — they are pending work for a later quantum.
  q.at_rest = pool_->limbo_empty();
  return q;
}

ImbalancePolicyTask::ImbalancePolicyTask(ShardedIndex* idx,
                                         const TaskOptions& opts)
    : idx_(idx),
      threshold_(std::max(opts.rebalance_threshold, 1.01)),
      min_entries_(kRebalanceMinEntriesPerShard * idx->num_shards()),
      name_("rebalance:" + std::string(idx->name())) {}

QuantumResult ImbalancePolicyTask::RunQuantum() {
  QuantumResult q;
  // Backing off after pool exhaustion: a migration copy needs allocations,
  // and retrying the instant the scheduler comes around again would burn
  // quanta rediscovering kNoSpace. Skip a doubling number of quanta, then
  // re-probe; reported not-at-rest so the scheduler keeps coming back.
  if (backoff_quanta_ != 0) {
    --backoff_quanta_;
    return q;
  }
  // The relaxed live counters are always current and cost N relaxed loads.
  const auto approx = idx_->ApproxShardEntries();
  std::size_t total = 0;
  for (const std::size_t c : approx) total += c;
  if (total < min_entries_ || ImbalanceRatio(approx) <= threshold_) {
    q.at_rest = true;
    return q;
  }
  ShardedIndex::RebalanceResult r;
  try {
    r = idx_->Rebalance();
  } catch (const std::bad_alloc&) {
    // Migration copy ran the pool dry mid-rebalance. The index stays valid
    // (per-op kNoSpace semantics: the un-migrated tail simply stays where
    // it was), but letting the exception escape would kill the scheduler
    // thread and take every other task down with it. Back off and re-arm:
    // deletes or limbo drains may return capacity.
    backoff_quanta_ = next_backoff_;
    next_backoff_ = std::min(next_backoff_ * 2, kMaxBackoff);
    return q;  // not at rest: the skew (and the work) are still there
  }
  backoff_quanta_ = 0;
  next_backoff_ = 1;
  if (r.moved == 0) {
    // The signal was stale or noise (e.g. counter drift on an index whose
    // exact occupancy is already balanced): Rebalance resynced the
    // counters, nothing was actionable — rest, don't spin.
    q.at_rest = true;
    return q;
  }
  q.items = 1;  // rebalances triggered
  // Not at rest: the next quantum re-reads the (resynced) counters and
  // confirms convergence — or fires again if the workload re-skewed.
  return q;
}

}  // namespace fastfair::maint
