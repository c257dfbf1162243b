// Service workloads: one generator thread drives a KvService (2 workers)
// over "sharded-fastfair:8" preloaded with N keys, through 4 sessions.
//
//   svc-pipelined    64 requests in flight per session: groups form across
//                    clients, so batching and grouped PM stalls do the work.
//   svc-interactive  1 request in flight per session: batching is
//                    bypassed, per-request overhead dominates.
//
// Closed loop: a slot submits its next request only after observing the
// previous one's completion. Per 1000 requests: 50 Scan(100), the rest
// Get:Put:Del at 16:4:1 on preloaded keys. Emulated PM read/write
// 300/300 ns. Latency runs from just before the submit call to the poll
// that observes the completion.
//
// The traced run (--trace 1) alternates untraced and traced slices on one
// service (overhead), splitting each traced request into submit, residence
// (submit return to Completion::complete_ns) and notice (complete_ns to the
// poll that sees it), then replays the same op mix on one thread through
// the Index batch calls in groups of the measured average group size.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "index/index.h"
#include "pm/pool.h"
#include "server/service.h"

namespace perfbench {
namespace {

namespace pm = fastfair::pm;
namespace core = fastfair::core;
namespace server = fastfair::server;
using fastfair::Index;
using server::ReqStatus;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kLatencyNs = 300;
constexpr std::uint64_t kTraceEvery = 256;  // one op (or group) in 256
const char* const kKind = "sharded-fastfair:8";

enum OpKind : std::uint8_t { kGet, kPut, kDel, kScan, kNumKinds };

// The op mix: per 1000 requests 50 scans, the rest 16:4:1 Get:Put:Del.
struct OpGen {
  explicit OpGen(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  void Next(std::size_t n, OpKind* kind, std::uint32_t* key_idx) {
    if (rng.Below(1000) < 50) {
      *kind = kScan;
    } else {
      const std::uint64_t r = rng.Below(21);
      *kind = r < 16 ? kGet : r < 20 ? kPut : kDel;
    }
    *key_idx = static_cast<std::uint32_t>(rng.Below(n));
  }
};

struct Slot {
  server::Completion done;
  core::Record scan_out[kScanLen];
  OpKind kind = kGet;
  bool busy = false;
  std::uint32_t key_idx = 0;
  std::uint64_t op_id = 0;
  std::uint64_t t0 = 0, t1 = 0;  // before / after the submit call
};

struct Client {
  server::Session* session = nullptr;
  std::unique_ptr<Slot[]> slots;
  std::unique_ptr<OpGen> gen;
};

struct Data {
  std::vector<Key> keys;
  std::vector<std::uint8_t> del_sent;  // a Del was submitted for key i
  Key scan_tail = 0;  // a Scan from below this key must fill all 100
};

// What one measured phase collects.
struct PhaseStats {
  Histogram lat[kNumKinds];
  Histogram submit, residence, notice;  // traced phases only
  std::uint64_t completed = 0;
  double secs = 0;
};

// Checks one observed completion against the workload's invariants.
void CheckReply(const Slot& s, const Data& d, Report* r) {
  const Key key = d.keys[s.key_idx];
  const ReqStatus st = s.done.status();
  switch (s.kind) {
    case kGet:
      if (st == ReqStatus::kOk) {
        if (s.done.value() != ValueFor(key)) r->Fail("get: wrong value", key);
      } else if (st != ReqStatus::kNotFound || !d.del_sent[s.key_idx]) {
        r->Fail("get: missed a key never deleted", key);
      }
      return;
    case kPut:
      if (st != ReqStatus::kInserted && st != ReqStatus::kUpdated) {
        r->Fail("put: not applied", key);
      }
      return;
    case kDel:
      if (st != ReqStatus::kOk && st != ReqStatus::kNotFound) {
        r->Fail("del: not applied", key);
      }
      return;
    default: {
      if (st != ReqStatus::kOk) return r->Fail("scan: not served", key);
      const std::uint32_t n = s.done.scan_count();
      if (n > kScanLen) return r->Fail("scan: overlong", key);
      if (n < kScanLen && key < d.scan_tail) {
        return r->Fail("scan: short far from the end", key);
      }
      Key prev = key;
      for (std::uint32_t j = 0; j < n; ++j) {
        const core::Record& rec = s.scan_out[j];
        if ((j == 0 ? rec.key < prev : rec.key <= prev) ||
            rec.ptr != ValueFor(rec.key)) {
          return r->Fail("scan: out of order or wrong value", rec.key);
        }
        prev = rec.key;
      }
    }
  }
}

class Driver {
 public:
  Driver(Data* d, std::uint64_t seed, std::size_t window, Report* r)
      : d_(d), seed_(seed), window_(window), r_(r) {}

  // Opens the sessions on `svc` (not yet started). Each client keeps its
  // own op stream across services, so phases continue one sequence.
  void Attach(server::KvService* svc) {
    for (std::size_t c = 0; c < kSessions; ++c) {
      if (clients_.size() <= c) {
        Client cl;
        cl.slots = std::make_unique<Slot[]>(window_);
        cl.gen = std::make_unique<OpGen>(StreamSeed(seed_, 100 + c));
        clients_.push_back(std::move(cl));
      }
      clients_[c].session = svc->OpenSession();
    }
  }

  // Keeps every slot busy until the wall clock passes `deadline`.
  // Completions observed are checked, and recorded into `ps` when it is
  // non-null (adding to its counts); `tr` non-null also times
  // submit/residence/notice and keeps spans for the ops it samples.
  void Run(double deadline, PhaseStats* ps, Tracer* tr) {
    const double t_start = WallSeconds();
    for (std::uint64_t pass = 0;; ++pass) {
      if ((pass & 15) == 0 && WallSeconds() >= deadline) break;
      for (Client& c : clients_) {
        for (std::size_t w = 0; w < window_; ++w) {
          Slot& s = c.slots[w];
          if (s.busy) {
            if (!s.done.done()) continue;
            Observe(s, ps, tr);
          }
          Issue(c, s, tr != nullptr);
        }
      }
    }
    if (ps != nullptr) ps->secs += WallSeconds() - t_start;
  }

  // Waits out every request in flight (checked, not recorded).
  void Drain() {
    for (Client& c : clients_) {
      for (std::size_t w = 0; w < window_; ++w) {
        Slot& s = c.slots[w];
        if (!s.busy) continue;
        s.done.Wait();
        Observe(s, nullptr, nullptr);
      }
    }
  }

 private:
  void Issue(Client& c, Slot& s, bool traced) {
    c.gen->Next(d_->keys.size(), &s.kind, &s.key_idx);
    const Key key = d_->keys[s.key_idx];
    if (s.kind == kDel) d_->del_sent[s.key_idx] = 1;
    s.done.Reset();
    s.op_id = next_op_++;
    s.t0 = pm::NowNs();
    bool ok = false;
    switch (s.kind) {
      case kGet: ok = c.session->Get(key, &s.done); break;
      case kPut: ok = c.session->Put(key, ValueFor(key), &s.done); break;
      case kDel: ok = c.session->Del(key, &s.done); break;
      default: ok = c.session->Scan(key, kScanLen, s.scan_out, &s.done);
    }
    if (traced) s.t1 = pm::NowNs();
    ++r_->attempted;
    if (ok) {
      s.busy = true;
    } else {
      r_->Fail("request rejected", key);
    }
  }

  void Observe(Slot& s, PhaseStats* ps, Tracer* tr) {
    const std::uint64_t t2 = pm::NowNs();
    s.busy = false;
    CheckReply(s, *d_, r_);
    if (ps == nullptr) return;
    ps->lat[s.kind].Add(t2 - s.t0);
    ++ps->completed;
    if (tr == nullptr) return;
    const std::uint64_t c = std::clamp(s.done.complete_ns(), s.t1, t2);
    ps->submit.Add(s.t1 - s.t0);
    ps->residence.Add(c - s.t1);
    ps->notice.Add(t2 - c);
    if (tr->Sampled(s.op_id)) {
      const auto p = tr->Add("client.op", s.op_id, -1, s.t0, t2);
      if (p >= 0) {
        tr->Add("server.submit", s.op_id, p, s.t0, s.t1);
        tr->Add("server.residence", s.op_id, p, s.t1, c);
        tr->Add("server.notice", s.op_id, p, c, t2);
      }
    }
  }

  Data* d_;
  std::uint64_t seed_;
  std::size_t window_;
  Report* r_;
  std::vector<Client> clients_;
  std::uint64_t next_op_ = 0;
};

double Us(const Histogram& h, double q) { return h.Quantile(q) / 1e3; }

server::ServiceOptions Options() {
  server::ServiceOptions o;
  o.workers = kWorkers;
  return o;
}

// One service lifetime: open sessions, warm up 0.3 s, run each slice for
// `seconds` in turn (recording into its PhaseStats, traced when it has a
// Tracer), drain, stop.
using Slice = std::pair<PhaseStats*, Tracer*>;
server::ServiceStats ServicePhase(Index* idx, Driver* drv, double seconds,
                                  const std::vector<Slice>& slices) {
  server::KvService svc(idx, Options());
  drv->Attach(&svc);
  svc.Start();
  drv->Run(WallSeconds() + 0.3, nullptr, nullptr);
  for (const auto& [ps, tr] : slices) {
    drv->Run(WallSeconds() + seconds, ps, tr);
  }
  drv->Drain();
  svc.Stop();
  return svc.Stats();
}

// The op mix replayed on one thread through the Index batch calls, in
// groups of `group` requests (writes first, as the service executes a
// group). Returns ns per op; checks every reply.
double ReplayBatches(Index* idx, const Data& d, std::uint64_t seed,
                     std::size_t group, double seconds, Tracer* tr,
                     Report* r) {
  OpGen gen(StreamSeed(seed, 200));
  std::vector<core::Record> puts;
  std::vector<fastfair::InsertStatus> put_st;
  std::vector<Key> dels, gets;
  std::vector<Value> vals;
  std::vector<fastfair::ScanOp> scans;
  std::vector<std::size_t> scan_n;
  std::vector<core::Record> scan_buf(group * kScanLen);
  std::uint64_t ns = 0, ops = 0;
  const double deadline = WallSeconds() + seconds;
  for (std::uint64_t g = 0; WallSeconds() < deadline; ++g) {
    puts.clear();
    dels.clear();
    gets.clear();
    scans.clear();
    for (std::size_t i = 0; i < group; ++i) {
      OpKind kind;
      std::uint32_t ki;
      gen.Next(d.keys.size(), &kind, &ki);
      const Key k = d.keys[ki];
      if (kind == kPut) puts.push_back({k, ValueFor(k)});
      if (kind == kDel) dels.push_back(k);
      if (kind == kGet) gets.push_back(k);
      if (kind == kScan) {
        scans.push_back({k, kScanLen, &scan_buf[scans.size() * kScanLen]});
      }
    }
    put_st.resize(puts.size());
    vals.resize(gets.size());
    scan_n.resize(scans.size());
    const bool sampled = tr != nullptr && tr->Sampled(g);
    const std::uint64_t op = 1ull << 40 | g;
    const std::uint64_t t0 = pm::NowNs();
    idx->InsertBatch(puts.data(), puts.size(), put_st.data());
    const std::uint64_t t1 = pm::NowNs();
    for (const Key k : dels) idx->Remove(k);
    const std::uint64_t t2 = pm::NowNs();
    idx->SearchBatch(gets.data(), gets.size(), vals.data());
    const std::uint64_t t3 = pm::NowNs();
    idx->ScanBatch(scans.data(), scans.size(), scan_n.data());
    const std::uint64_t t4 = pm::NowNs();
    ns += t4 - t0;
    ops += group;
    r->attempted += group;
    if (sampled) {
      const auto p = tr->Add("replay.group", op, -1, t0, t4);
      if (p >= 0) {
        tr->Add("index.InsertBatch", op, p, t0, t1);
        tr->Add("index.Remove", op, p, t1, t2);
        tr->Add("index.SearchBatch", op, p, t2, t3);
        tr->Add("index.ScanBatch", op, p, t3, t4);
      }
    }
    for (const auto st : put_st) {
      if (st == fastfair::InsertStatus::kNoSpace) r->Fail("replay: put", 0);
    }
    for (std::size_t i = 0; i < gets.size(); ++i) {
      if (vals[i] != fastfair::kNoValue && vals[i] != ValueFor(gets[i])) {
        r->Fail("replay: wrong value", gets[i]);
      }
    }
    for (std::size_t i = 0; i < scans.size(); ++i) {
      Key prev = scans[i].min_key;
      for (std::size_t j = 0; j < scan_n[i]; ++j) {
        const core::Record& rec = scans[i].out[j];
        if ((j == 0 ? rec.key < prev : rec.key <= prev) ||
            rec.ptr != ValueFor(rec.key)) {
          r->Fail("replay: scan out of order or wrong value", rec.key);
          break;
        }
        prev = rec.key;
      }
    }
  }
  return ops == 0 ? 0.0 : static_cast<double>(ns) / ops;
}

void RunService(const RunConfig& cfg, std::size_t window, Report* r) {
  const std::size_t n = cfg.tiny ? 20000 : 2000000;
  Data d;
  d.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) d.keys[i] = KeyAt(cfg.seed, i);
  d.del_sent.assign(n, 0);
  {
    std::vector<Key> sorted = d.keys;
    std::sort(sorted.begin(), sorted.end());
    d.scan_tail = sorted[n - std::min<std::size_t>(n, 1000)];
  }

  // Set-up: pool + index + preload at DRAM speed, three times (median);
  // the last one is measured.
  SetPm(0, 0);
  std::unique_ptr<pm::Pool> pool;
  std::unique_ptr<Index> idx;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    idx.reset();
    pool.reset();
    const double t0 = WallSeconds();
    pool = std::make_unique<pm::Pool>(std::size_t{1} << 32);
    idx = fastfair::MakeIndex(kKind, pool.get());
    for (const Key k : d.keys) idx->Insert(k, ValueFor(k));
    setups.push_back(WallSeconds() - t0);
  }
  r->attempted += n;  // the preload, checked by the Gets below
  SetPm(kLatencyNs, kLatencyNs);

  r->info.push_back({"index", std::string("\"") + kKind + "\""});
  r->info.push_back({"keys", Num(static_cast<double>(n))});
  r->info.push_back({"sessions", Num(kSessions)});
  r->info.push_back(
      {"in_flight_per_session", Num(static_cast<double>(window))});
  r->info.push_back({"service_workers", Num(kWorkers)});
  r->info.push_back({"pm_read_ns", Num(kLatencyNs)});
  r->info.push_back({"pm_write_ns", Num(kLatencyNs)});
  r->info.push_back(
      {"mix", "\"per 1000: 50 Scan(100), rest Get:Put:Del 16:4:1\""});

  Driver drv(&d, cfg.seed, window, r);
  if (!cfg.trace) {
    const int nw = NumWindows(cfg.seconds);
    std::vector<PhaseStats> windows(nw);
    std::vector<Slice> slices;
    for (PhaseStats& ps : windows) slices.push_back({&ps, nullptr});
    const server::ServiceStats ss =
        ServicePhase(idx.get(), &drv, cfg.seconds / nw, slices);
    const std::size_t live = idx->CountEntries();
    Windows win;
    std::map<std::string, std::uint64_t> samples;
    const char* const names[kNumKinds] = {"get", "put", "del", "scan"};
    for (const PhaseStats& ps : windows) {
      win.Add("throughput_kops", ps.completed / ps.secs / 1e3);
      for (int k = 0; k < kNumKinds; ++k) {
        win.AddLatency(names[k], ps.lat[k]);
        samples[names[k]] += ps.lat[k].count();
      }
    }
    win.ReportMedians(r);
    r->Metric("setup_s", Median(setups));
    r->Metric("pm_bytes_per_user_byte",
              static_cast<double>(pool->used()) / (16.0 * live));
    r->samples = samples;
    r->info.push_back({"windows", Num(nw)});
    r->info.push_back({"avg_group_ops", Num(ss.AvgGroupOps())});
    r->info.push_back({"live_entries", Num(static_cast<double>(live))});
    return;
  }

  // Traced run: untraced and traced 0.25 s slices alternate over 80% of
  // the run on one service (tracing is client-side only, so the service's
  // counters cover both); then the batch replay on the same index.
  Tracer tr(kTraceEvery);
  PhaseStats pu, pt;
  std::vector<Slice> slices;
  const int pairs = std::max(1, static_cast<int>(0.8 * cfg.seconds / 0.5));
  for (int i = 0; i < pairs; ++i) {
    slices.push_back({&pu, nullptr});
    slices.push_back({&pt, &tr});
  }
  const server::ServiceStats ss =
      ServicePhase(idx.get(), &drv, 0.25, slices);
  const double avg_group = ss.AvgGroupOps();
  const auto group =
      static_cast<std::size_t>(std::max(1.0, std::round(avg_group)));
  const double batch_ns = ReplayBatches(idx.get(), d, cfg.seed, group,
                                        0.15 * cfg.seconds, &tr, r);

  const double ku = pu.completed / pu.secs / 1e3;
  const double kt = pt.completed / pt.secs / 1e3;
  const double groups =
      static_cast<double>(std::max<std::uint64_t>(1, ss.groups));
  const std::uint64_t rejected = ss.rejected_queue_full + ss.rejected_quota +
                                 ss.rejected_capacity + ss.deadline_exceeded +
                                 ss.rejected_shutdown;
  r->Metric("trace.untraced_kops", ku);
  r->Metric("trace.traced_kops", kt);
  r->Metric("trace.overhead_pct", (ku / kt - 1.0) * 100.0);
  r->Metric("server.submit_ns.p50", pt.submit.Quantile(0.5));
  r->Metric("server.residence_us.p50", Us(pt.residence, 0.5));
  r->Metric("server.residence_us.p99", Us(pt.residence, 0.99));
  r->Metric("server.notice_us.p50", Us(pt.notice, 0.5));
  r->Metric("server.avg_group_ops", avg_group);
  r->Metric("server.full_flush_frac", ss.full_flushes / groups);
  r->Metric("server.timeout_flush_frac", ss.timeout_flushes / groups);
  r->Metric("server.idle_flush_frac", ss.idle_flushes / groups);
  r->Metric("server.reject_frac",
            static_cast<double>(rejected) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, ss.submitted + rejected)));
  r->Metric("index.batch_ns_per_op", batch_ns);
  AddPmMetrics(ss.pm, static_cast<double>(ss.executed),
               static_cast<double>(ss.puts + ss.dels),
               static_cast<double>(pool->used()), r);
  r->samples = {{"server.submit", pt.submit.count()},
                {"server.residence", pt.residence.count()},
                {"server.notice", pt.notice.count()}};
  r->info.push_back({"replay_group_ops", Num(static_cast<double>(group))});
  r->info.push_back({"self_time", tr.SelfTimeSummary()});
  if (!cfg.trace_out.empty() && !tr.Write(cfg.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.trace_out.c_str());
  }
}

}  // namespace

void RunSvcPipelined(const RunConfig& cfg, Report* r) {
  RunService(cfg, 64, r);
}

void RunSvcInteractive(const RunConfig& cfg, Report* r) {
  RunService(cfg, 1, r);
}

}  // namespace perfbench
