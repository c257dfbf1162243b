// In-process KV service tier (DESIGN.md §10): the pipelined request server
// the batch APIs were built for.
//
// Shape: many clients — each holding a Session — enqueue Get/Put/Del/Scan
// requests with completion slots into lock-free single-producer rings; N
// worker threads drain the sessions round-robin, form *cross-client* groups,
// and execute each group through Index::SearchBatch / InsertBatch under one
// epoch pin. The descent-interleaving amortization of DESIGN.md §8 therefore
// applies across independent clients: eight different users' point lookups
// share one grouped PM read stall per tree level, and the sharded adapters'
// one-route/one-pin-per-shard-group batching (detail::BucketByShard) groups
// their requests per destination shard with no service-side routing code.
//
// Admission control keeps the tail bounded:
//   * per-session queue depth — a full ring rejects (kRejectedQueueFull)
//     instead of buffering unboundedly; the client sheds or retries.
//   * per-tenant token bucket — Sessions opened with a tenant id share that
//     tenant's bucket (ServiceOptions::quota_ops_per_sec); an empty bucket
//     rejects with kRejectedQuota at submit time, before the op costs the
//     service anything.
//   * batch-formation timeout — a worker holding a partial group waits at
//     most batch_timeout_us for peers, and flushes as soon as four
//     consecutive poll passes find nothing new (kIdlePollLimit in
//     service.cc: the rings are dry, so waiting longer cannot grow the
//     group); under low load a lone request pays the execution latency
//     plus four empty poll passes, not the full timeout, which is
//     what keeps service p999 within sight of scalar dispatch
//     (bench/bench_service.cc gates it).
//   * degraded mode — a Put the index answers with InsertStatus::kNoSpace
//     (pool exhausted) completes as kRejectedCapacity, and for the next
//     capacity_backoff_us further writes are shed at submit time with a
//     retry-after hint (Completion::retry_after_us) while reads and scans
//     keep serving from the intact tree; when the window expires one write
//     is let through to re-probe, so recovered capacity (deletes,
//     maintenance reclaim) re-admits the write path automatically.
//   * per-request deadlines — submits carrying deadline_us are completed
//     as kDeadlineExceeded by the draining worker once expired, instead of
//     occupying a batch slot; under overload, work that can no longer meet
//     its SLA stops costing index time.
//
// Ordering contract: requests whose completion the client observed before
// submitting a later request are strictly ordered. Requests in flight
// together (pipelined without waiting) may be grouped, and a group executes
// writes before reads — so a Get admitted with a Put of the same key
// observes that Put, whichever was submitted first. Clients needing
// read-before-write semantics wait for the read's completion before
// submitting the write, exactly as with any pipelined connection.
//
// Threading contract: each Session has ONE producer (one client thread) and
// one consumer (the worker owning it); OpenSession may be called while the
// service runs (the session table is pre-sized, never reallocated). Stop()
// is graceful: it fences out new submits, waits out in-flight ones, lets
// the workers drain and EXECUTE everything already admitted, then joins
// them; submits arriving after Stop began are rejected with kShutdown.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/defs.h"
#include "core/node.h"  // core::Record
#include "index/fp_cache.h"  // FpProbeCache::Stats (probe-tier counters)
#include "index/index.h"
#include "pm/persist.h"

namespace fastfair {
class HashShardedIndex;
}

namespace fastfair::server {

/// Outcome of a service request, readable from its Completion once done.
/// Every kRejected* / kDeadlineExceeded / kShutdown value sorts after the
/// success statuses, so `status >= kRejectedQueueFull` tests "not served".
enum class ReqStatus : std::uint8_t {
  kPending = 0,        // not yet executed (Completion's initial state)
  kOk,                 // Get hit / Del removed / Scan finished
  kNotFound,           // Get miss / Del of an absent key
  kInserted,           // Put created the key
  kUpdated,            // Put overwrote an existing entry
  kRejectedQueueFull,  // session ring at queue_depth — backpressure
  kRejectedQuota,      // tenant token bucket empty
  kRejectedCapacity,   // pool out of space: write shed, retry after
                       // Completion::retry_after_us() (degraded mode;
                       // reads and scans keep serving)
  kDeadlineExceeded,   // deadline_us expired before execution; the op was
                       // completed without occupying a batch slot
  kShutdown,           // submitted after Stop() began (never executed)
};

/// Completion slot, owned by the client and passed with each request; the
/// worker publishes the result into it with one release store. Poll done()
/// or block in Wait(). Reusable via Reset() once observed done.
class Completion {
 public:
  bool done() const {
    return status_.load(std::memory_order_acquire) != ReqStatus::kPending;
  }

  /// Spin-then-yield until done; returns the final status.
  ReqStatus Wait() const;

  ReqStatus status() const {
    return status_.load(std::memory_order_acquire);
  }
  /// Get result (kNoValue on miss). Valid once done().
  Value value() const { return value_; }
  /// Scan result count. Valid once done().
  std::uint32_t scan_count() const { return scan_n_; }
  /// Worker-side completion timestamp (pm::NowNs clock, one read per
  /// executed group). 0 for rejected requests. Valid once done().
  std::uint64_t complete_ns() const { return complete_ns_; }
  /// Degraded-mode backoff hint: how long the client should wait before
  /// retrying a write shed with kRejectedCapacity (the remaining width of
  /// the service's capacity-backoff window). 0 for every other status.
  std::uint32_t retry_after_us() const { return retry_after_us_; }

  void Reset() {
    value_ = kNoValue;
    scan_n_ = 0;
    complete_ns_ = 0;
    retry_after_us_ = 0;
    status_.store(ReqStatus::kPending, std::memory_order_release);
  }

 private:
  friend class KvService;
  friend class Session;
  Value value_ = kNoValue;
  std::uint32_t scan_n_ = 0;
  std::uint32_t retry_after_us_ = 0;
  std::uint64_t complete_ns_ = 0;
  std::atomic<ReqStatus> status_{ReqStatus::kPending};
};

namespace detail {

enum class OpType : std::uint8_t { kGet, kPut, kDel, kScan };

struct Request {
  OpType type;
  Key key;
  Value value;             // Put payload
  std::uint32_t scan_cap;  // Scan bound
  core::Record* scan_out;  // Scan destination (client-owned)
  Completion* done;
  std::uint64_t deadline_ns;  // absolute pm::NowNs deadline; 0 = none
};

/// Per-tenant token bucket: `rate` tokens/sec refill up to a burst of one
/// second's worth (== `rate`). A mutex suffices — only the tenant's own
/// sessions contend on it, and only when a quota is configured at all.
class TokenBucket {
 public:
  explicit TokenBucket(double rate_per_sec)
      : tokens_(rate_per_sec), last_ns_(pm::NowNs()), rate_(rate_per_sec) {}

  bool TryAcquire();

 private:
  std::mutex mu_;
  double tokens_;
  std::uint64_t last_ns_;
  const double rate_;
};

}  // namespace detail

class KvService;

/// One client's pipe into the service: a bounded single-producer ring of
/// requests, drained by the worker that owns the session. All submit
/// methods are non-blocking: true = admitted (the completion will
/// eventually fire), false = rejected with the reason already published to
/// the completion (kRejectedQueueFull / kRejectedQuota / kShutdown).
/// Exactly one client thread may submit on a given session.
class Session {
 public:
  /// All submit methods take an optional relative deadline: with
  /// deadline_us != 0, a request still queued when the deadline passes is
  /// completed as kDeadlineExceeded by the draining worker instead of
  /// occupying a batch slot (checked once per group formation, so expiry
  /// resolution is one group execution, not a timer tick).
  bool Get(Key key, Completion* done, std::uint64_t deadline_us = 0);
  bool Put(Key key, Value value, Completion* done,
           std::uint64_t deadline_us = 0);
  bool Del(Key key, Completion* done, std::uint64_t deadline_us = 0);
  /// Up to `max_results` records with key >= min_key into client-owned
  /// `out` (must stay valid until completion); scan_count() reports the
  /// number written.
  bool Scan(Key min_key, std::uint32_t max_results, core::Record* out,
            Completion* done, std::uint64_t deadline_us = 0);

  std::uint64_t tenant() const { return tenant_; }

 private:
  friend class KvService;
  Session(KvService* service, std::uint32_t id, std::uint64_t tenant,
          detail::TokenBucket* quota, std::size_t depth);

  bool Submit(const detail::Request& r);
  /// Consumer side: pops up to `max` requests into `*out`; returns count.
  std::size_t Drain(std::vector<detail::Request>* out, std::size_t max);

  KvService* service_;
  const std::uint32_t id_;
  const std::uint64_t tenant_;
  detail::TokenBucket* quota_;  // nullptr = unlimited
  const std::size_t mask_;      // ring capacity - 1 (power of two)
  std::unique_ptr<detail::Request[]> ring_;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  // producer
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  // consumer
};

struct ServiceOptions {
  /// Worker threads draining sessions. Clamped to 1 when the index does
  /// not support concurrent callers (Index::supports_concurrency).
  std::size_t workers = 4;
  /// Per-session ring capacity (rounded up to a power of two); a full
  /// ring rejects with kRejectedQueueFull.
  std::size_t queue_depth = 1024;
  /// Flush a group at this many ops. 1 disables batch formation: each
  /// request executes alone, as its own group of one, through the same
  /// batch entry points — the scalar-dispatch baseline bench_service
  /// gates against.
  std::size_t max_batch = 256;
  /// Longest a worker holds a partial group while requests keep
  /// trickling in; four consecutive empty poll passes flush it early
  /// regardless.
  std::uint64_t batch_timeout_us = 100;
  /// Per-tenant token-bucket rate, which is also the bucket's burst
  /// capacity (one second's worth); 0 = unlimited.
  std::uint64_t quota_ops_per_sec = 0;
  /// Session table capacity (fixed at construction so workers can walk it
  /// lock-free while OpenSession runs).
  std::size_t max_sessions = 1024;
  /// Degraded-mode backoff window: after a Put comes back kNoSpace from
  /// the index (pool exhausted), the service sheds subsequent writes at
  /// submit time with kRejectedCapacity for this long — reads and scans
  /// keep serving — then lets one write through to re-probe capacity
  /// (space may have returned via deletes or maintenance reclaim). The
  /// remaining window is published to shed clients as
  /// Completion::retry_after_us().
  std::uint64_t capacity_backoff_us = 1000;
};

struct ServiceStats {
  std::uint64_t submitted = 0;  // requests admitted into rings
  std::uint64_t executed = 0;
  std::uint64_t gets = 0, puts = 0, dels = 0, scans = 0;
  std::uint64_t groups = 0;           // executed groups (incl. scalar "groups")
  std::uint64_t full_flushes = 0;     // group reached max_batch
  std::uint64_t timeout_flushes = 0;  // batch_timeout_us expired
  std::uint64_t idle_flushes = 0;     // empty poll pass — rings drained dry
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;
  /// Writes shed by degraded mode: submit-time sheds within the backoff
  /// window plus executed Puts that came back kNoSpace from the index.
  std::uint64_t rejected_capacity = 0;
  /// Requests whose deadline_us expired before execution.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t rejected_shutdown = 0;
  /// PM counter deltas aggregated across worker threads (read_stalls is
  /// the batching amortization signal). Populated at Stop().
  pm::ThreadStats pm;
  /// Probe-tier counters of the served index (zeros for kinds without
  /// one): hits here are point lookups the service answered from DRAM.
  FpProbeCache::Stats probe;

  double AvgGroupOps() const {
    return groups == 0 ? 0.0
                       : static_cast<double>(executed) /
                             static_cast<double>(groups);
  }
};

/// The service. Construct over any registered Index, OpenSession per
/// client, Start(), submit, Stop(). The index and pool outlive the
/// service; the service owns its sessions.
class KvService {
 public:
  explicit KvService(Index* index, const ServiceOptions& opts = {});
  ~KvService();  // Stop()s if still running

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Opens a session for `tenant` (sessions sharing a tenant id share its
  /// quota bucket). Returns nullptr when the table is full or the service
  /// stopped. Safe to call while the service runs.
  Session* OpenSession(std::uint64_t tenant = 0);

  void Start();
  /// Graceful: rejects new submits (kShutdown), waits out in-flight ones,
  /// drains and executes everything admitted, joins the workers.
  /// Idempotent.
  void Stop();

  bool running() const { return started_.load(std::memory_order_acquire); }
  /// Worker count after the non-concurrent-index clamp.
  std::size_t workers() const { return num_workers_; }
  const ServiceOptions& options() const { return opts_; }

  ServiceStats Stats() const;

 private:
  friend class Session;

  enum class FlushReason : std::uint8_t { kFull, kTimeout, kIdle, kStop };

  // Padded per-worker state: counters are single-writer, scratch vectors
  // keep group execution allocation-free after warm-up.
  struct alignas(kCacheLineSize) Worker {
    std::thread thread;
    std::uint64_t executed = 0, gets = 0, puts = 0, dels = 0, scans = 0;
    std::uint64_t groups = 0, full = 0, timeout = 0, idle = 0;
    std::uint64_t deadline_hits = 0;  // ops expired before execution
    std::size_t next_session = 0;  // DrainAssigned's round-robin cursor
    pm::ThreadStats pm_delta;  // set once at worker exit
    std::vector<detail::Request> reqs;
    std::vector<std::uint32_t> pos;  // one request type's group positions
    std::vector<Key> keys;           // Del, then Get keys
    std::vector<core::Record> put_recs;
    std::vector<InsertStatus> put_st;
    // RemoveBatch results: not a std::vector<bool>, which has no data().
    std::unique_ptr<bool[]> removed;
    std::size_t removed_cap = 0;
    std::vector<Value> get_vals;
    std::vector<ScanOp> scan_ops;
    std::vector<std::size_t> scan_counts;
    std::vector<ReqStatus> req_st;
  };

  void WorkerLoop(std::size_t w);
  /// Drains every session assigned to worker `w` once, appending at most
  /// `budget` requests in all and `per_session` from any one session;
  /// returns the number drained. Each pass starts after the session the
  /// previous pass last drained, so the sessions are served round-robin
  /// whatever the budget.
  std::size_t DrainAssigned(std::size_t w, std::vector<detail::Request>* out,
                            std::size_t budget, std::size_t per_session);
  FlushReason GatherGroup(std::size_t w, std::vector<detail::Request>* reqs);
  /// Executes reqs[0..n) as one group, the service's one execution path.
  void ExecuteGroup(Worker& wk, detail::Request* reqs, std::size_t n);
  void CompleteRemaining(ReqStatus status);
  /// Degraded-mode gate for the submit path: 0 when writes are admitted,
  /// else the microseconds remaining in the capacity-backoff window (the
  /// retry-after hint). An expired window is cleared here so exactly the
  /// next write probes the pool again.
  std::uint64_t DegradedRetryUs();
  /// A Put came back kNoSpace: (re)open the backoff window and count the
  /// shed op.
  void EnterDegraded();

  Index* index_;
  HashShardedIndex* probe_host_ = nullptr;  // hashed-* only: probe stats
  ServiceOptions opts_;
  std::size_t num_workers_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex open_mu_;  // guards OpenSession (table fill + tenant map)
  std::vector<std::unique_ptr<Session>> sessions_;  // fixed capacity
  std::atomic<std::size_t> num_sessions_{0};
  std::map<std::uint64_t, std::unique_ptr<detail::TokenBucket>> tenants_;

  // Submit-side admission handshake (see Stop() in service.cc for the
  // proof): accepting_ fences out new submits, pending_submits_ lets Stop
  // wait out the ones already past the fence.
  std::atomic<bool> accepting_{true};
  std::atomic<std::size_t> pending_submits_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  bool joined_ = false;  // guarded by stop_mu_
  std::mutex stop_mu_;

  // Degraded mode (pool exhaustion): nonzero = absolute pm::NowNs end of
  // the write-shedding window. Workers open it on a kNoSpace Put; the
  // submit path sheds writes until it expires, then clears it.
  std::atomic<std::uint64_t> degraded_until_ns_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_quota_{0};
  std::atomic<std::uint64_t> rejected_capacity_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
};

}  // namespace fastfair::server
