#include "server/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "index/hash_sharded.h"
#include "pm/reclaim.h"

namespace fastfair::server {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

// Relative submit deadline -> absolute ring-slot stamp (0 stays "none").
inline std::uint64_t AbsDeadline(std::uint64_t deadline_us) {
  return deadline_us == 0 ? 0 : pm::NowNs() + deadline_us * 1000;
}

}  // namespace

// ---------------------------------------------------------------------------
// Completion

ReqStatus Completion::Wait() const {
  // Spin briefly (the common case: the owning worker is mid-group), then
  // yield so a single-core host lets the worker run.
  for (int i = 0; i < 1024; ++i) {
    const ReqStatus s = status_.load(std::memory_order_acquire);
    if (s != ReqStatus::kPending) return s;
    CpuRelax();
  }
  for (;;) {
    const ReqStatus s = status_.load(std::memory_order_acquire);
    if (s != ReqStatus::kPending) return s;
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// TokenBucket

namespace detail {

bool TokenBucket::TryAcquire() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t now = pm::NowNs();
  if (now > last_ns_) {
    tokens_ = std::min(
        rate_, tokens_ + static_cast<double>(now - last_ns_) * 1e-9 * rate_);
    last_ns_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Session

Session::Session(KvService* service, std::uint32_t id, std::uint64_t tenant,
                 detail::TokenBucket* quota, std::size_t depth)
    : service_(service),
      id_(id),
      tenant_(tenant),
      quota_(quota),
      mask_(std::bit_ceil(std::max<std::size_t>(depth, 2)) - 1),
      ring_(new detail::Request[mask_ + 1]) {}

bool Session::Get(Key key, Completion* done, std::uint64_t deadline_us) {
  return Submit({detail::OpType::kGet, key, kNoValue, 0, nullptr, done,
                 AbsDeadline(deadline_us)});
}

bool Session::Put(Key key, Value value, Completion* done,
                  std::uint64_t deadline_us) {
  return Submit({detail::OpType::kPut, key, value, 0, nullptr, done,
                 AbsDeadline(deadline_us)});
}

bool Session::Del(Key key, Completion* done, std::uint64_t deadline_us) {
  return Submit({detail::OpType::kDel, key, kNoValue, 0, nullptr, done,
                 AbsDeadline(deadline_us)});
}

bool Session::Scan(Key min_key, std::uint32_t max_results, core::Record* out,
                   Completion* done, std::uint64_t deadline_us) {
  return Submit({detail::OpType::kScan, min_key, kNoValue, max_results, out,
                 done, AbsDeadline(deadline_us)});
}

bool Session::Submit(const detail::Request& r) {
  KvService* s = service_;
  // Shutdown handshake, producer half (see KvService::Stop for the proof):
  // raise pending_submits_ FIRST, then test accepting_. Both seq_cst, so
  // either Stop's accepting_=false store is visible here (we reject) or our
  // increment is visible to Stop's drain loop (it waits for our publish).
  s->pending_submits_.fetch_add(1, std::memory_order_seq_cst);
  ReqStatus reject{};
  std::uint64_t retry_us = 0;
  bool admitted = false;
  if (!s->accepting_.load(std::memory_order_seq_cst)) {
    reject = ReqStatus::kShutdown;
    s->rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
  } else if (r.type == detail::OpType::kPut &&
             (retry_us = s->DegradedRetryUs()) != 0) {
    // Degraded mode: the pool is (or was just measured) out of space, so a
    // write would only burn a descent to rediscover kNoSpace. Shed it here
    // with the remaining backoff as a retry hint — before it costs a ring
    // slot or a quota token. Reads, scans, and Dels (which free space)
    // flow through untouched.
    reject = ReqStatus::kRejectedCapacity;
    s->rejected_capacity_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t h = head_.load(std::memory_order_acquire);
    if (t - h > mask_) {  // ring at capacity: backpressure, never buffer
      reject = ReqStatus::kRejectedQueueFull;
      s->rejected_full_.fetch_add(1, std::memory_order_relaxed);
    } else if (quota_ != nullptr && !quota_->TryAcquire()) {
      reject = ReqStatus::kRejectedQuota;
      s->rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ring_[t & mask_] = r;
      tail_.store(t + 1, std::memory_order_release);  // publish to the worker
      s->submitted_.fetch_add(1, std::memory_order_relaxed);
      admitted = true;
    }
  }
  s->pending_submits_.fetch_sub(1, std::memory_order_release);
  if (!admitted) {
    r.done->complete_ns_ = 0;
    r.done->retry_after_us_ = static_cast<std::uint32_t>(
        retry_us > 0xffffffffull ? 0xffffffffull : retry_us);
    r.done->status_.store(reject, std::memory_order_release);
  }
  return admitted;
}

std::size_t Session::Drain(std::vector<detail::Request>* out,
                           std::size_t max) {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  const std::size_t tail = tail_.load(std::memory_order_acquire);
  std::size_t n = tail - head;
  if (n > max) n = max;
  for (std::size_t i = 0; i < n; ++i) {
    out->push_back(ring_[(head + i) & mask_]);
  }
  if (n != 0) head_.store(head + n, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// KvService

KvService::KvService(Index* index, const ServiceOptions& opts)
    : index_(index), opts_(opts) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.queue_depth < 2) opts_.queue_depth = 2;
  if (opts_.max_sessions == 0) opts_.max_sessions = 1;
  num_workers_ = index_->supports_concurrency() ? opts_.workers : 1;
  // Probe tier (DESIGN.md §9.4): when serving a hashed-* index, resolve
  // the concrete adapter once so Stats() can report its fingerprint
  // cache's hit counters.
  probe_host_ = dynamic_cast<HashShardedIndex*>(index_);
  workers_.reserve(num_workers_);
  for (std::size_t i = 0; i < num_workers_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->next_session = i;
  }
  // Reserved once; OpenSession never reallocates, so workers may walk
  // sessions_[0, num_sessions_) without the open_mu_ lock.
  sessions_.reserve(opts_.max_sessions);
}

KvService::~KvService() { Stop(); }

Session* KvService::OpenSession(std::uint64_t tenant) {
  std::lock_guard<std::mutex> lk(open_mu_);
  if (!accepting_.load(std::memory_order_acquire)) return nullptr;
  const std::size_t i = num_sessions_.load(std::memory_order_relaxed);
  if (i >= opts_.max_sessions) return nullptr;
  detail::TokenBucket* bucket = nullptr;
  if (opts_.quota_ops_per_sec > 0) {
    auto& slot = tenants_[tenant];
    if (slot == nullptr) {
      slot = std::make_unique<detail::TokenBucket>(
          static_cast<double>(opts_.quota_ops_per_sec));
    }
    bucket = slot.get();
  }
  sessions_.push_back(std::unique_ptr<Session>(new Session(
      this, static_cast<std::uint32_t>(i), tenant, bucket,
      opts_.queue_depth)));
  num_sessions_.store(i + 1, std::memory_order_release);
  return sessions_.back().get();
}

void KvService::Start() {
  std::lock_guard<std::mutex> lk(stop_mu_);
  if (joined_ || started_.load(std::memory_order_acquire)) return;
  for (std::size_t w = 0; w < num_workers_; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
  started_.store(true, std::memory_order_release);
}

void KvService::Stop() {
  std::lock_guard<std::mutex> lk(stop_mu_);
  if (joined_) return;
  // Graceful-drain proof. (1) Fence out new submits: after this seq_cst
  // store, any producer that has not yet raised pending_submits_ will see
  // accepting_ == false and reject. (2) A producer already past its
  // increment either rejects too or publishes its slot and then lowers
  // pending_submits_; spinning that counter to zero therefore orders every
  // successful tail_ publish before (3) the stopping_ store. A worker that
  // observes stopping_ == true BEFORE a drain pass thus sees every admitted
  // request in that pass — its empty final drain is definitive.
  accepting_.store(false, std::memory_order_seq_cst);
  while (pending_submits_.load(std::memory_order_acquire) != 0) {
    CpuRelax();
  }
  stopping_.store(true, std::memory_order_seq_cst);
  if (started_.load(std::memory_order_acquire)) {
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
  // Safety net for a service that was never Start()ed (or whose workers
  // were clamped away from some sessions by a bug): nothing admitted may
  // be left pending forever.
  CompleteRemaining(ReqStatus::kShutdown);
  started_.store(false, std::memory_order_release);
  joined_ = true;
}

void KvService::WorkerLoop(std::size_t w) {
  Worker& wk = *workers_[w];
  const pm::ThreadStats start = pm::Stats();
  std::vector<detail::Request>& reqs = wk.reqs;
  std::uint32_t idle_spins = 0;
  // max_batch == 1 is scalar dispatch: a pass takes up to one request from
  // every assigned session and runs each as its own group of one — no
  // descent interleaving, no shared grouped stalls, no flush to count.
  // Polling once per pass rather than once per request keeps a busy
  // worker running requests instead of sweeping near-empty rings.
  const bool scalar = opts_.max_batch == 1;
  const std::size_t budget =
      scalar ? std::numeric_limits<std::size_t>::max() : opts_.max_batch;
  for (;;) {
    reqs.clear();
    // Load-before-drain: when this is true and the drain below comes up
    // empty, every admitted request has been seen (Stop's proof above).
    const bool stop_seen = stopping_.load(std::memory_order_acquire);
    DrainAssigned(w, &reqs, budget, opts_.max_batch);
    if (reqs.empty()) {
      if (stop_seen) break;
      if (++idle_spins < 64) {
        CpuRelax();
      } else if (idle_spins < 128) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      continue;
    }
    idle_spins = 0;
    if (scalar) {
      for (detail::Request& r : reqs) ExecuteGroup(wk, &r, 1);
      continue;
    }
    if (reqs.size() >= opts_.max_batch) {
      ++wk.full;
    } else if (!stop_seen) {
      switch (GatherGroup(w, &reqs)) {
        case FlushReason::kFull: ++wk.full; break;
        case FlushReason::kTimeout: ++wk.timeout; break;
        case FlushReason::kIdle: ++wk.idle; break;
        case FlushReason::kStop: break;
      }
    }
    ExecuteGroup(wk, reqs.data(), reqs.size());
  }
  wk.pm_delta = pm::Stats() - start;
}

std::size_t KvService::DrainAssigned(std::size_t w,
                                     std::vector<detail::Request>* out,
                                     std::size_t budget,
                                     std::size_t per_session) {
  const std::size_t n = num_sessions_.load(std::memory_order_acquire);
  if (n <= w) return 0;
  Worker& wk = *workers_[w];
  // Worker w owns sessions w, w + W, w + 2W, ...; walk them once, starting
  // at the cursor (always one of them, and below n: n never shrinks) and
  // wrapping.
  const std::size_t start = wk.next_session;
  std::size_t i = start;
  std::size_t total = 0;
  do {
    const std::size_t got =
        sessions_[i]->Drain(out, std::min(per_session, budget - total));
    i += num_workers_;
    if (i >= n) i = w;
    if (got != 0) {
      total += got;
      wk.next_session = i;
    }
  } while (i != start && total < budget);
  return total;
}

KvService::FlushReason KvService::GatherGroup(
    std::size_t w, std::vector<detail::Request>* reqs) {
  // Precondition: 0 < reqs->size() < max_batch. Hold the partial group for
  // at most batch_timeout_us while requests keep arriving, but flush as
  // soon as a few consecutive polls find the rings dry — waiting longer
  // cannot grow the group, and this is what keeps a lone request's latency
  // near scalar dispatch instead of a full timeout.
  constexpr std::size_t kIdlePollLimit = 4;
  const std::uint64_t deadline =
      pm::NowNs() + opts_.batch_timeout_us * 1000;
  std::size_t empty_polls = 0;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return FlushReason::kStop;
    const std::size_t got =
        DrainAssigned(w, reqs, opts_.max_batch - reqs->size(),
                      opts_.max_batch);
    if (reqs->size() >= opts_.max_batch) return FlushReason::kFull;
    if (got == 0) {
      if (++empty_polls >= kIdlePollLimit) return FlushReason::kIdle;
    } else {
      empty_polls = 0;
    }
    if (pm::NowNs() >= deadline) return FlushReason::kTimeout;
    CpuRelax();
  }
}

void KvService::ExecuteGroup(Worker& wk, detail::Request* reqs,
                             std::size_t n) {
  // Deadline pass: requests that expired while queued (ring wait plus
  // group formation) complete as kDeadlineExceeded right here and never
  // occupy a batch slot. The clock is read at most once, and only when
  // some request actually carries a deadline.
  {
    std::uint64_t now = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const detail::Request& r = reqs[i];
      bool expired = false;
      if (FASTFAIR_UNLIKELY(r.deadline_ns != 0)) {
        if (now == 0) now = pm::NowNs();
        expired = now > r.deadline_ns;
      }
      if (FASTFAIR_UNLIKELY(expired)) {
        r.done->complete_ns_ = now;
        r.done->status_.store(ReqStatus::kDeadlineExceeded,
                              std::memory_order_release);
        ++wk.deadline_hits;
      } else {
        if (kept != i) reqs[kept] = reqs[i];
        ++kept;
      }
    }
    n = kept;
  }
  if (n == 0) return;
  std::vector<ReqStatus>& st = wk.req_st;
  st.assign(n, ReqStatus::kOk);
  // Positions of the group's requests of one type, in group order.
  std::vector<std::uint32_t>& pos = wk.pos;
  const auto gather = [&](detail::OpType type) {
    pos.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i].type == type) pos.push_back(static_cast<std::uint32_t>(i));
    }
    return pos.size();
  };
  // One reader pin for the whole group; the index's own batch pins nest
  // reentrantly inside it. Writes before reads (header ordering
  // contract), each type through its batch entry point, so the sharded
  // adapters route per shard and the core tree interleaves descents.
  pm::EpochGuard guard;
  if (const std::size_t m = gather(detail::OpType::kPut); m != 0) {
    wk.put_recs.resize(m);
    wk.put_st.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      wk.put_recs[j] = {reqs[pos[j]].key, reqs[pos[j]].value};
    }
    index_->InsertBatch(wk.put_recs.data(), m, wk.put_st.data());
    for (std::size_t j = 0; j < m; ++j) {
      const InsertStatus is = wk.put_st[j];
      if (FASTFAIR_UNLIKELY(is == InsertStatus::kNoSpace)) {
        st[pos[j]] = ReqStatus::kRejectedCapacity;
        reqs[pos[j]].done->retry_after_us_ =
            static_cast<std::uint32_t>(opts_.capacity_backoff_us);
        EnterDegraded();
      } else {
        st[pos[j]] = is == InsertStatus::kInserted ? ReqStatus::kInserted
                                                   : ReqStatus::kUpdated;
      }
    }
    wk.puts += m;
  }
  if (const std::size_t m = gather(detail::OpType::kDel); m != 0) {
    wk.keys.resize(m);
    for (std::size_t j = 0; j < m; ++j) wk.keys[j] = reqs[pos[j]].key;
    if (wk.removed_cap < m) {
      wk.removed = std::make_unique_for_overwrite<bool[]>(m);
      wk.removed_cap = m;
    }
    index_->RemoveBatch(wk.keys.data(), m, wk.removed.get());
    for (std::size_t j = 0; j < m; ++j) {
      st[pos[j]] = wk.removed[j] ? ReqStatus::kOk : ReqStatus::kNotFound;
    }
    wk.dels += m;
  }
  if (const std::size_t m = gather(detail::OpType::kGet); m != 0) {
    wk.keys.resize(m);
    wk.get_vals.resize(m);
    for (std::size_t j = 0; j < m; ++j) wk.keys[j] = reqs[pos[j]].key;
    index_->SearchBatch(wk.keys.data(), m, wk.get_vals.data());
    for (std::size_t j = 0; j < m; ++j) {
      const Value v = wk.get_vals[j];
      reqs[pos[j]].done->value_ = v;
      st[pos[j]] = v == kNoValue ? ReqStatus::kNotFound : ReqStatus::kOk;
    }
    wk.gets += m;
  }
  if (const std::size_t m = gather(detail::OpType::kScan); m != 0) {
    wk.scan_ops.resize(m);
    wk.scan_counts.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      const detail::Request& r = reqs[pos[j]];
      wk.scan_ops[j] = {r.key, r.scan_cap, r.scan_out};
    }
    index_->ScanBatch(wk.scan_ops.data(), m, wk.scan_counts.data());
    for (std::size_t j = 0; j < m; ++j) {
      reqs[pos[j]].done->scan_n_ =
          static_cast<std::uint32_t>(wk.scan_counts[j]);
    }
    wk.scans += m;
  }
  wk.groups += 1;
  // One clock read per group; the status store is the publication point
  // for every result field written above.
  const std::uint64_t now = pm::NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].done->complete_ns_ = now;
    reqs[i].done->status_.store(st[i], std::memory_order_release);
  }
  wk.executed += n;
}

std::uint64_t KvService::DegradedRetryUs() {
  std::uint64_t until = degraded_until_ns_.load(std::memory_order_relaxed);
  if (FASTFAIR_LIKELY(until == 0)) return 0;  // normal path: one load
  const std::uint64_t now = pm::NowNs();
  if (now >= until) {
    // Window over: clear it (CAS so a concurrent EnterDegraded that just
    // re-armed a fresh window is not wiped) and admit this write as the
    // capacity probe.
    degraded_until_ns_.compare_exchange_strong(until, 0,
                                               std::memory_order_relaxed);
    return 0;
  }
  return (until - now) / 1000 + 1;  // ceil to a nonzero retry hint
}

void KvService::EnterDegraded() {
  degraded_until_ns_.store(pm::NowNs() + opts_.capacity_backoff_us * 1000,
                           std::memory_order_relaxed);
  rejected_capacity_.fetch_add(1, std::memory_order_relaxed);
}

void KvService::CompleteRemaining(ReqStatus status) {
  const std::size_t n = num_sessions_.load(std::memory_order_acquire);
  std::vector<detail::Request> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    reqs.clear();
    while (sessions_[i]->Drain(&reqs, 256) != 0) {
      for (const detail::Request& r : reqs) {
        r.done->complete_ns_ = 0;
        r.done->status_.store(status, std::memory_order_release);
      }
      reqs.clear();
    }
  }
}

ServiceStats KvService::Stats() const {
  // Worker counters are single-writer plain fields; reading them while the
  // service runs gives a racy-but-monotonic snapshot, exact after Stop().
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  s.rejected_capacity = rejected_capacity_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    s.deadline_exceeded += w->deadline_hits;
    s.executed += w->executed;
    s.gets += w->gets;
    s.puts += w->puts;
    s.dels += w->dels;
    s.scans += w->scans;
    s.groups += w->groups;
    s.full_flushes += w->full;
    s.timeout_flushes += w->timeout;
    s.idle_flushes += w->idle;
    s.pm += w->pm_delta;
  }
  if (probe_host_ != nullptr) s.probe = probe_host_->ProbeCacheStats();
  return s;
}

}  // namespace fastfair::server
