// Service-tier loadgen (DESIGN.md §10): drives the in-process KV service
// with thousands of logical clients and compares scalar per-op dispatch
// against cross-client batch formation on the same index.
//
// Three phases per dispatch mode, each against its own KvService instance
// (worker PM-counter deltas are finalized at Stop, so every phase gets an
// isolated read-stall ledger):
//
//   prefilled  — one worker, every ring filled before Start(): the groups
//     are fixed by the ring contents, so read stalls per op are an exact
//     count. The stall gate reads this phase.
//   saturation — closed-loop pipelined: each driver thread keeps a window
//     of requests in flight across its slice of the session table and
//     measures throughput plus read stalls per executed op. This is where
//     cross-client grouping pays: requests from independent sessions land
//     in one worker group and share the §8 grouped PM read stalls.
//   low-load   — open-loop at a fixed arrival rate far below capacity,
//     latency measured from the *scheduled* arrival (coordinated-omission
//     free). With the rings nearly always empty, groups flush on the
//     empty-poll path, so service p999 must stay near scalar dispatch —
//     the admission-control/timeout design is what this phase gates.
//
// Gates (stderr + non-zero exit):
//   * read stalls/op in the prefilled phase: scalar must pay >= 2x the
//     batched mode's (an exact counter ratio; the CI service job runs
//     exactly this). The saturation phase's ratio is reported only: there
//     thread scheduling sets the batched group size.
//   * batched saturation throughput >= 1.5x scalar (wall time; skipped
//     under --no-wall-gates for loaded machines).
//   * batched low-load p999 <= 2x scalar p999 + 50 us slack (wall time;
//     same skip flag).
//
// Extra flags beyond bench/options.h: --json=<path> emits the run as one
// JSON document (BENCH_service.json at the repo root is the committed
// baseline); --no-wall-gates keeps only the deterministic counter gate.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "common/rng.h"
#include "index/index.h"
#include "pm/pool.h"
#include "server/service.h"

namespace {

using namespace fastfair;

struct ModeResult {
  std::string name;
  double kops = 0.0;             // saturation throughput
  double stalls_per_op = 0.0;    // saturation phase, read_stalls/executed
  double gated_stalls_per_op = 0.0;  // prefilled phase (RunPrefilled)
  double avg_group = 0.0;        // saturation phase mean group size
  std::uint64_t timeout_flushes = 0, idle_flushes = 0, full_flushes = 0;
  std::uint64_t rejected = 0;    // both phases
  bench::LatencyHistogram lat;       // low-load phase, point ops
  bench::LatencyHistogram scan_lat;  // low-load phase, scans (--scan-frac)
};

// Records per scan request (--scan-frac); client-owned buffers sized per
// in-flight slot so completions can land out of submission order.
constexpr std::uint32_t kScanLen = 100;

// --deadline-us=<n>: per-request deadline attached to every submitted op
// (0 = none). Ops still queued past it complete as kDeadlineExceeded
// instead of occupying a batch slot — the load-shedding path under
// overload (DESIGN.md §11).
std::uint64_t g_deadline_us = 0;

// 16 get : 4 put : 1 del, the paper's Mixed ratio, drawn on the fly; with
// --scan-frac, that fraction of ops is diverted to 100-entry range scans
// (kScan requests riding the cross-client grouped ScanBatch dispatch).
// Returns true when the submitted op was a scan (separate latency ledger).
bool SubmitOp(server::Session* s, Rng& rng, std::size_t i, Key key,
              Value value, std::uint32_t scan_per_mille,
              core::Record* scan_buf, server::Completion* done,
              std::uint64_t deadline_us = g_deadline_us) {
  if (scan_per_mille != 0 && rng.NextBounded(1000) < scan_per_mille) {
    s->Scan(key, kScanLen, scan_buf, done, deadline_us);
    return true;
  }
  const std::size_t slot = i % 21;
  if (slot < 16) {
    s->Get(key, done, deadline_us);
  } else if (slot < 20) {
    s->Put(key, value, done, deadline_us);
  } else {
    s->Del(key, done, deadline_us);
  }
  return false;
}

// Gated stall phase: one worker, every ring filled before Start(), no
// quota and no deadline. The worker's first drains then sweep the rings in
// round-robin order, so each group is fixed by the ring contents alone
// (max_batch requests, or one in scalar mode), not by thread scheduling,
// and the read stalls per op are an exact count. Returns them.
double RunPrefilled(Index* idx, server::ServiceOptions so, Key stride,
                    std::size_t universe, double theta,
                    std::uint32_t scan_per_mille, std::uint64_t seed) {
  constexpr std::size_t kSessions = 64;
  so.workers = 1;
  so.quota_ops_per_sec = 0;
  so.max_sessions = kSessions;
  server::KvService svc(idx, so);
  std::vector<server::Session*> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(svc.OpenSession(/*tenant=*/i));
  }
  std::unique_ptr<bench::ZipfianGenerator> zipf;
  if (theta > 0.0) {
    zipf = std::make_unique<bench::ZipfianGenerator>(universe, theta);
  }
  Rng rng(seed ^ 0x9f11edull);
  const std::size_t total = kSessions * so.queue_depth;
  std::vector<server::Completion> done(total);
  std::vector<core::Record> scan_bufs(scan_per_mille != 0 ? total * kScanLen
                                                          : 0);
  for (std::size_t i = 0; i < total; ++i) {
    const std::uint64_t rank =
        zipf ? zipf->Next(rng) : rng.NextBounded(universe);
    const Key key = (rank + 1) * stride;
    SubmitOp(sessions[i % kSessions], rng, i, key, 2 * key + 1,
             scan_per_mille,
             scan_bufs.empty() ? nullptr : scan_bufs.data() + i * kScanLen,
             &done[i], /*deadline_us=*/0);
  }
  svc.Start();
  for (server::Completion& c : done) c.Wait();
  svc.Stop();
  const server::ServiceStats st = svc.Stats();
  return st.executed == 0 ? 0.0
                          : static_cast<double>(st.pm.read_stalls) /
                                static_cast<double>(st.executed);
}

// Closed-loop pipelined drivers over disjoint session slices; returns wall
// nanoseconds of the slowest driver (barrier start, same contract as
// RunThreads).
std::uint64_t RunSaturation(server::KvService* svc,
                            std::vector<server::Session*>& sessions,
                            std::size_t drivers, std::size_t total_ops,
                            Key stride, std::size_t universe, double theta,
                            std::uint32_t scan_per_mille, std::uint64_t seed,
                            std::uint64_t* rejected) {
  std::unique_ptr<bench::ZipfianGenerator> zipf;
  if (theta > 0.0) {
    zipf = std::make_unique<bench::ZipfianGenerator>(universe, theta);
  }
  std::vector<std::uint64_t> rej(drivers, 0);
  const std::uint64_t wall = bench::RunThreads(
      static_cast<int>(drivers), total_ops,
      [&](int d, std::size_t b, std::size_t e) {
        // This driver's session slice.
        const std::size_t per = sessions.size() / drivers;
        server::Session** mine = sessions.data() + per * static_cast<std::size_t>(d);
        Rng rng(seed ^ (0x9e37ull * static_cast<std::uint64_t>(d + 1)));
        constexpr std::size_t kWindow = 256;
        std::vector<server::Completion> win(kWindow);
        std::vector<core::Record> scan_bufs(kWindow * kScanLen);
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t slot = i % kWindow;
          server::Completion& c = win[slot];
          if (i - b >= kWindow) {
            const server::ReqStatus st = c.Wait();
            if (st >= server::ReqStatus::kRejectedQueueFull) ++rej[d];
            c.Reset();
          }
          const std::uint64_t rank =
              zipf ? zipf->Next(rng) : rng.NextBounded(universe);
          const Key key = (rank + 1) * stride;
          SubmitOp(mine[i % per], rng, i, key, 2 * key + 1, scan_per_mille,
                   scan_bufs.data() + slot * kScanLen, &c);
        }
        for (std::size_t i = (e - b < kWindow ? b : e - kWindow); i < e; ++i) {
          const server::ReqStatus st = win[i % kWindow].Wait();
          if (st >= server::ReqStatus::kRejectedQueueFull) ++rej[d];
        }
      });
  for (const std::uint64_t r : rej) *rejected += r;
  (void)svc;
  return wall;
}

// Open-loop single driver: fixed arrival interval, latency measured from
// the scheduled arrival so a slow service accumulates queueing delay
// instead of silently slowing the clock.
void RunOpenLoop(std::vector<server::Session*>& sessions,
                 std::size_t total_ops, std::uint64_t interval_ns,
                 Key stride, std::size_t universe, double theta,
                 std::uint32_t scan_per_mille, std::uint64_t seed,
                 bench::LatencyHistogram* hist,
                 bench::LatencyHistogram* scan_hist,
                 std::uint64_t* rejected) {
  std::unique_ptr<bench::ZipfianGenerator> zipf;
  if (theta > 0.0) {
    zipf = std::make_unique<bench::ZipfianGenerator>(universe, theta);
  }
  Rng rng(seed ^ 0x0be41ull);
  constexpr std::size_t kRing = 4096;
  std::vector<server::Completion> ring(kRing);
  std::vector<std::uint64_t> arrival(kRing, 0);
  std::vector<core::Record> scan_bufs(kRing * kScanLen);
  std::vector<bool> was_scan(kRing, false);
  auto harvest = [&](std::size_t slot) {
    const server::ReqStatus st = ring[slot].Wait();
    if (st >= server::ReqStatus::kRejectedQueueFull) {
      ++*rejected;
    } else {
      // complete_ns and the arrival stamp share pm::NowNs.
      bench::LatencyHistogram* h = was_scan[slot] ? scan_hist : hist;
      h->Record(ring[slot].complete_ns() - arrival[slot]);
    }
    ring[slot].Reset();
  };
  std::uint64_t next = pm::NowNs();
  for (std::size_t i = 0; i < total_ops; ++i) {
    const std::size_t slot = i % kRing;
    if (i >= kRing) harvest(slot);
    // Wait out the inter-arrival gap; yield the core when the gap is long
    // so the service workers actually run on a one-CPU host (a busy spin
    // here starves them and inflates every latency sample).
    for (std::uint64_t now = pm::NowNs(); now < next; now = pm::NowNs()) {
      if (next - now > 2000) std::this_thread::yield();
    }
    const std::uint64_t rank =
        zipf ? zipf->Next(rng) : rng.NextBounded(universe);
    const Key key = (rank + 1) * stride;
    arrival[slot] = next;
    was_scan[slot] =
        SubmitOp(sessions[i % sessions.size()], rng, i, key, 2 * key + 1,
                 scan_per_mille, scan_bufs.data() + slot * kScanLen,
                 &ring[slot]);
    next += interval_ns;
  }
  const std::size_t tail = total_ops < kRing ? total_ops : kRing;
  for (std::size_t i = total_ops - tail; i < total_ops; ++i) {
    harvest(i % kRing);
  }
}

ModeResult RunMode(bool scalar, const bench::Options& opt,
                   const std::vector<Key>& preload, Key stride) {
  ModeResult r;
  r.name = scalar ? "scalar" : "batched";
  const std::size_t n = preload.size();
  const auto scan_per_mille =
      static_cast<std::uint32_t>(opt.scan_frac * 1000.0);

  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex(opt.ShardedKind(), &pool);
  bench::LoadIndex(idx.get(), preload, /*batch=*/256);

  // Emulated PM: both latencies priced so grouped read stalls translate
  // into wall-clock wins the throughput gate can see. Reads at the upper
  // end of the NVDIMM range keep the serialized-stall fraction dominant
  // over service overhead on small (CI-scale) runs.
  pm::Config cfg;
  cfg.write_latency_ns = 300;
  cfg.read_latency_ns = 800;
  pm::SetConfig(cfg);

  // Logical clients: one session each, sliced across the driver threads.
  const std::size_t want = n / 128;
  const std::size_t num_sessions =
      want < 256 ? 256 : (want > 32768 ? 32768 : want);
  const std::size_t drivers =
      opt.service_workers >= 8 ? 2 : 1;  // oversubscription guard

  server::ServiceOptions sopts;
  sopts.workers = opt.service_workers;
  sopts.queue_depth = 128;
  sopts.max_batch = scalar ? 1 : 256;  // 1 = each request its own group
  sopts.batch_timeout_us = opt.batch_timeout_us;
  sopts.quota_ops_per_sec = opt.quota;
  sopts.max_sessions = num_sessions;

  // Prefilled phase first, on the freshly loaded index, so its count does
  // not depend on what the timed phases did to the tree.
  r.gated_stalls_per_op = RunPrefilled(idx.get(), sopts, stride, n, opt.skew,
                                       scan_per_mille, opt.seed);

  // Saturation phase.
  {
    server::KvService svc(idx.get(), sopts);
    std::vector<server::Session*> sessions;
    sessions.reserve(num_sessions);
    // Distinct tenant per session: quota runs (--quota) meter each logical
    // client separately.
    for (std::size_t i = 0; i < num_sessions; ++i) {
      sessions.push_back(svc.OpenSession(/*tenant=*/i));
    }
    svc.Start();
    const std::uint64_t wall =
        RunSaturation(&svc, sessions, drivers, n, stride, n, opt.skew,
                      scan_per_mille, opt.seed, &r.rejected);
    svc.Stop();
    const server::ServiceStats st = svc.Stats();
    r.kops = bench::Kops(st.executed, wall);
    r.stalls_per_op = st.executed == 0
                          ? 0.0
                          : static_cast<double>(st.pm.read_stalls) /
                                static_cast<double>(st.executed);
    r.avg_group = st.AvgGroupOps();
    r.timeout_flushes = st.timeout_flushes;
    r.idle_flushes = st.idle_flushes;
    r.full_flushes = st.full_flushes;
  }

  // Low-load open-loop phase: 20 Kops/s against a service whose emulated
  // capacity is far higher, so every latency sample is service time plus
  // whatever the batch-formation policy adds.
  {
    server::KvService svc(idx.get(), sopts);
    std::vector<server::Session*> sessions;
    const std::size_t lat_sessions = num_sessions < 256 ? num_sessions : 256;
    for (std::size_t i = 0; i < lat_sessions; ++i) {
      sessions.push_back(svc.OpenSession(/*tenant=*/i));
    }
    svc.Start();
    // p999 is the ~top-0.1% sample: keep at least 10 K samples so the gate
    // reads a populated tail, not the single worst scheduler hiccup.
    const std::size_t lat_ops =
        n / 5 < 10000 ? 10000 : (n / 5 > 50000 ? 50000 : n / 5);
    RunOpenLoop(sessions, lat_ops, /*interval_ns=*/50000, stride, n,
                opt.skew, scan_per_mille, opt.seed ^ 0xfeedull, &r.lat,
                &r.scan_lat, &r.rejected);
    svc.Stop();
  }
  pm::SetConfig(pm::Config{});
  return r;
}

bool WriteJson(const std::string& path, const std::vector<ModeResult>& modes,
               double gated_ratio, double stall_ratio, double tput_ratio,
               bool with_scans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_service: cannot write %s\n", path.c_str());
    return false;
  }
  std::string s;
  out << "{\n  \"bench\": \"service\",\n  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"kops\": %.1f, "
                  "\"read_stalls_per_op\": %.4f, \"avg_group_ops\": %.2f, "
                  "\"gated_read_stalls_per_op\": %.4f, "
                  "\"timeout_flushes\": %llu, \"idle_flushes\": %llu, "
                  "\"full_flushes\": %llu, \"rejected\": %llu, "
                  "\"latency\": ",
                  m.name.c_str(), m.kops, m.stalls_per_op, m.avg_group,
                  m.gated_stalls_per_op,
                  static_cast<unsigned long long>(m.timeout_flushes),
                  static_cast<unsigned long long>(m.idle_flushes),
                  static_cast<unsigned long long>(m.full_flushes),
                  static_cast<unsigned long long>(m.rejected));
    out << buf;
    s.clear();
    m.lat.AppendJson(&s);
    out << s;
    if (with_scans) {
      // Scan requests get their own tail: 100-entry leaf-chain drains are
      // a different service-time class than point ops.
      out << ", \"scan_latency\": ";
      s.clear();
      m.scan_lat.AppendJson(&s);
      out << s;
    }
    out << "}" << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"gated_stall_ratio\": %.2f,\n  \"stall_ratio\": "
                "%.2f,\n  \"throughput_ratio\": %.2f\n}\n",
                gated_ratio, stall_ratio, tput_ratio);
  out << tail;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool wall_gates = true;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--no-wall-gates") == 0) {
      wall_gates = false;
    } else if (std::strncmp(argv[i], "--deadline-us=", 14) == 0) {
      g_deadline_us = std::strtoull(argv[i] + 14, nullptr, 0);
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  const auto opt = bench::ParseOptions(out_argc, argv);

  // Paper-scale 10 M resident keys; ops scale alongside (one pass per
  // mode's saturation phase).
  const std::size_t n = opt.ScaledN(10000000);
  // Rank->key spreading (same scheme as ZipfianKeys): dataset occupies the
  // whole key space, so range sharding applies, and op streams draw ranks.
  const Key stride = ~Key{0} / n;
  std::vector<Key> preload;
  preload.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    preload.push_back((static_cast<Key>(i) + 1) * stride);
  }

  std::printf(
      "Service tier: %zu keys on %s, %zu workers, batch timeout %llu us, "
      "quota %llu ops/s/tenant, skew theta=%.2f\n",
      n, opt.ShardedKind().c_str(), opt.service_workers,
      static_cast<unsigned long long>(opt.batch_timeout_us),
      static_cast<unsigned long long>(opt.quota), opt.skew);

  std::vector<ModeResult> modes;
  modes.push_back(RunMode(/*scalar=*/true, opt, preload, stride));
  modes.push_back(RunMode(/*scalar=*/false, opt, preload, stride));
  const ModeResult& sc = modes[0];
  const ModeResult& ba = modes[1];

  const bool with_scans = opt.scan_frac > 0.0;
  std::vector<std::string> cols = {"mode",      "Kops_per_sec",
                                   "read_stalls_per_op", "avg_group",
                                   "gated_stalls_per_op",
                                   "p50_us",    "p99_us",
                                   "p999_us",   "rejected"};
  if (with_scans) {
    // Scans are a separate service-time class (leaf-chain drains, not one
    // descent); give their low-load tail its own columns.
    cols.insert(cols.end(), {"scan_p50_us", "scan_p99_us", "scan_p999_us"});
  }
  bench::Table table(cols);
  for (const ModeResult& m : modes) {
    const auto s = m.lat.Summarize();
    std::vector<std::string> row = {
        m.name, bench::Table::Num(m.kops),
        bench::Table::Num(m.stalls_per_op), bench::Table::Num(m.avg_group),
        bench::Table::Num(m.gated_stalls_per_op),
        bench::Table::Num(static_cast<double>(s.p50_ns) / 1e3),
        bench::Table::Num(static_cast<double>(s.p99_ns) / 1e3),
        bench::Table::Num(static_cast<double>(s.p999_ns) / 1e3),
        std::to_string(m.rejected)};
    if (with_scans) {
      const auto ss = m.scan_lat.Summarize();
      row.push_back(bench::Table::Num(static_cast<double>(ss.p50_ns) / 1e3));
      row.push_back(bench::Table::Num(static_cast<double>(ss.p99_ns) / 1e3));
      row.push_back(bench::Table::Num(static_cast<double>(ss.p999_ns) / 1e3));
    }
    table.AddRow(row);
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  const double stall_ratio =
      ba.stalls_per_op == 0.0 ? 0.0 : sc.stalls_per_op / ba.stalls_per_op;
  const double gated_ratio = ba.gated_stalls_per_op == 0.0
                                 ? 0.0
                                 : sc.gated_stalls_per_op /
                                       ba.gated_stalls_per_op;
  const double tput_ratio = sc.kops == 0.0 ? 0.0 : ba.kops / sc.kops;
  std::printf("stall ratio (scalar/batched): %.2fx prefilled (gated), %.2fx "
              "saturation; throughput ratio (batched/scalar): %.2fx\n",
              gated_ratio, stall_ratio, tput_ratio);

  if (!json_path.empty() &&
      !WriteJson(json_path, modes, gated_ratio, stall_ratio, tput_ratio,
                 with_scans)) {
    return 1;
  }

  int rc = 0;
  // Deterministic counter gate: grouped execution must amortize serialized
  // PM read stalls at least 2x (the CI service job's contract), read from
  // the prefilled phase, where no thread schedule sets the group size.
  if (gated_ratio < 2.0) {
    std::fprintf(stderr,
                 "GATE FAIL service: prefilled scalar read stalls/op %.3f "
                 "not >= 2x batched %.3f\n",
                 sc.gated_stalls_per_op, ba.gated_stalls_per_op);
    rc = 1;
  }
  if (wall_gates) {
    if (tput_ratio < 1.5) {
      std::fprintf(stderr,
                   "GATE FAIL service: batched throughput %.1f Kops not >= "
                   "1.5x scalar %.1f Kops\n",
                   ba.kops, sc.kops);
      rc = 1;
    }
    const std::uint64_t sp999 = sc.lat.PercentileNs(99.9);
    const std::uint64_t bp999 = ba.lat.PercentileNs(99.9);
    if (bp999 > 2 * sp999 + 50000) {
      std::fprintf(stderr,
                   "GATE FAIL service: batched low-load p999 %.1f us not "
                   "<= 2x scalar %.1f us + 50 us\n",
                   static_cast<double>(bp999) / 1e3,
                   static_cast<double>(sp999) / 1e3);
      rc = 1;
    }
  }
  return rc;
}
