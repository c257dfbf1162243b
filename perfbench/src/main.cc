// perfbench: the repository benchmark's driver (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path>] [--commit <id>]
//
// Runs one workload, checks every result, and prints informational lines
// followed by one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 whenever the run completed (correct or not), 2 on bad usage.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common.h"
#include "common/simd.h"
#include "pm/persist.h"

namespace perfbench {

// --- Histogram ------------------------------------------------------------

std::size_t Histogram::Index(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<std::size_t>(v);
  int msb = 63 - __builtin_clzll(v);
  if (msb > kMaxMsb) return kBuckets - 1;
  const int shift = msb - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(v >> shift) - kSub;
  return 2 * kSub + static_cast<std::size_t>(msb - kSubBits - 1) * kSub + sub;
}

void Histogram::Bounds(std::size_t idx, double* lo, double* width) {
  if (idx < 2 * kSub) {
    *lo = static_cast<double>(idx);
    *width = 1.0;
    return;
  }
  const std::size_t rel = idx - 2 * kSub;
  const int shift = static_cast<int>(rel / kSub) + 1;
  const std::size_t sub = rel % kSub + kSub;
  *lo = std::ldexp(static_cast<double>(sub), shift);
  *width = std::ldexp(1.0, shift);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;  // buckets_ is allocated by the first Add
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) > rank) {
      double lo = 0, width = 0;
      Bounds(i, &lo, &width);
      return lo + width * (rank - static_cast<double>(cum) + 0.5) /
                      static_cast<double>(c);
    }
    cum += c;
  }
  return 0.0;
}

// --- Tracer ---------------------------------------------------------------

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                 "\"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::string Tracer::SelfTimeSummary() const {
  // Children of each span, as intervals; self = duration - union(children).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Agg {
    std::uint64_t n = 0;
    double total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += static_cast<double>(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    Agg& a = agg[s.name];
    ++a.n;
    a.total_ns += dur;
    a.self_ns += dur - covered;
  }
  std::string out = "{";
  char buf[256];
  bool first = true;
  for (const auto& [name, a] : agg) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"spans\": %llu, \"mean_us\": %.4f, "
                  "\"self_mean_us\": %.4f}",
                  first ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(a.n),
                  a.total_ns / a.n / 1e3, a.self_ns / a.n / 1e3);
    out += buf;
    first = false;
  }
  return out + "}";
}

// --- Report and helpers ---------------------------------------------------

void Report::Fail(const char* what, std::uint64_t key) {
  correct = false;
  if (failed < 10) {
    std::fprintf(stderr, "check failed: %s (key %llu)\n", what,
                 static_cast<unsigned long long>(key));
  }
  ++failed;
}

void Windows::ReportMedians(struct Report* r) const {
  for (const auto& [name, values] : v_) r->Metric(name, Median(values));
  const auto it = v_.find("throughput_kops");
  if (it == v_.end()) return;
  std::string list = "[";
  char buf[32];
  for (const double v : it->second) {
    std::snprintf(buf, sizeof buf, "%s%.1f", list.size() > 1 ? ", " : "", v);
    list += buf;
  }
  r->info.push_back({"window_throughput_kops", list + "]"});
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void AddPmMetrics(const fastfair::pm::ThreadStats& d, double ops,
                  double writes, double used_bytes, Report* r) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  r->Metric("pm.read_stalls_per_op", d.read_stalls * per);
  r->Metric("pm.node_reads_per_op", d.read_annotations * per);
  r->Metric("pm.flush_lines_per_op", d.flush_lines * per);
  r->Metric("pm.fences_per_op", d.fences * per);
  r->Metric("pm.flush_us_per_op", d.flush_ns * per / 1e3);
  r->Metric("pm.write_bytes_per_user_byte",
            writes > 0 ? 64.0 * d.flush_lines / (16.0 * writes) : 0.0);
  r->Metric("pm.allocs_per_kop", d.allocs * per * 1e3);
  r->Metric("pm.arena_refills_per_kop", d.arena_refills * per * 1e3);
  r->Metric("pm.used_bytes", used_bytes);
}

void SetPm(std::uint64_t read_ns, std::uint64_t write_ns) {
  fastfair::pm::Config c;
  c.read_latency_ns = read_ns;
  c.write_latency_ns = write_ns;
  c.model = fastfair::pm::MemModel::kTso;
  c.persistency = fastfair::pm::Persistency::kStrict;
  c.coalesce_flushes = false;
  fastfair::pm::SetConfig(c);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric (printed by every untraced run) ...
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_kops", "Kops/s"},
    {"get_p50_us", "us"},
    {"get_p99_us", "us"},
    {"put_p50_us", "us"},
    {"put_p99_us", "us"},
    {"del_p50_us", "us"},
    {"del_p99_us", "us"},
    {"scan_p50_us", "us"},
    {"scan_p99_us", "us"},
    {"setup_s", "s"},
    {"pm_bytes_per_user_byte", "B/B"},
};

// ... and every per-layer metric (printed by every traced run; a layer the
// workload does not call reports 0).
constexpr MetricSpec kPerLayer[] = {
    {"trace.overhead_pct", "%"},
    {"trace.untraced_kops", "Kops/s"},
    {"trace.traced_kops", "Kops/s"},
    {"server.submit_ns.p50", "ns"},
    {"server.residence_us.p50", "us"},
    {"server.residence_us.p99", "us"},
    {"server.notice_us.p50", "us"},
    {"server.avg_group_ops", "ops"},
    {"server.full_flush_frac", "frac"},
    {"server.timeout_flush_frac", "frac"},
    {"server.idle_flush_frac", "frac"},
    {"server.reject_frac", "frac"},
    {"index.batch_ns_per_op", "ns"},
    {"index.search_ns.p50", "ns"},
    {"index.search_ns.p99", "ns"},
    {"index.scan_ns.p50", "ns"},
    {"index.insert_ns.p50", "ns"},
    {"index.insert_ns.p99", "ns"},
    {"index.remove_ns.p50", "ns"},
    {"core.search_ns.p50", "ns"},
    {"core.insert_ns.p50", "ns"},
    {"core.height", "levels"},
    {"core.leaf_fill", "frac"},
    {"core.nodes_per_kput", "nodes"},
    {"pm.read_stalls_per_op", "count"},
    {"pm.node_reads_per_op", "count"},
    {"pm.flush_lines_per_op", "count"},
    {"pm.fences_per_op", "count"},
    {"pm.flush_us_per_op", "us"},
    {"pm.write_bytes_per_user_byte", "B/B"},
    {"pm.allocs_per_kop", "count"},
    {"pm.arena_refills_per_kop", "count"},
    {"pm.used_bytes", "B"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <svc-pipelined|svc-interactive|"
               "lib-ingest|lib-read> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--trace-out <path>] [--commit <id>]\n");
  std::exit(2);
}

// Prints the metrics of `specs` in that order; false if one is missing and
// `fill_zero` is off.
bool PrintMetrics(const Report& r, const MetricSpec* specs, std::size_t n,
                  bool fill_zero, std::string* json) {
  bool ok = true;
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::find_if(
        r.metrics.begin(), r.metrics.end(),
        [&](const auto& m) { return m.first == specs[i].name; });
    double v = 0.0;
    if (it != r.metrics.end()) {
      v = it->second;
    } else if (!fill_zero) {
      std::fprintf(stderr, "metric %s was not measured\n", specs[i].name);
      ok = false;
      continue;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", specs[i].name);
      ok = false;
      continue;
    }
    std::printf("metric %-30s %16.6f %s\n", specs[i].name, v, specs[i].unit);
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json->empty() ? "" : ", ", specs[i].name, v, specs[i].unit);
    *json += buf;
  }
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = next();
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(next().c_str(), nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (a == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") Usage();
      cfg.trace = t == "1";
      have_trace = true;
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--trace-out") {
      cfg.trace_out = next();
    } else if (a == "--commit") {
      cfg.commit = next();
    } else {
      Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) Usage();

  void (*run)(const RunConfig&, Report*) = nullptr;
  if (cfg.workload == "svc-pipelined") run = RunSvcPipelined;
  if (cfg.workload == "svc-interactive") run = RunSvcInteractive;
  if (cfg.workload == "lib-ingest") run = RunLibIngest;
  if (cfg.workload == "lib-read") run = RunLibRead;
  if (run == nullptr) Usage();

  Report r;
  run(cfg, &r);

  // Host and input fingerprint; the workload adds its sizes and latencies
  // to r.info.
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"nproc\": %u, "
              "\"simd_isa\": \"%s\", \"compiler\": \"%s\", "
              "\"commit\": \"%s\", \"persistency\": \"strict\", "
              "\"coalesce_flushes\": false",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? 1 : 0,
              std::thread::hardware_concurrency(),
              fastfair::simd::IsaName(fastfair::simd::ActiveIsa()),
              "gcc " __VERSION__, cfg.commit.c_str());
  for (const auto& [k, v] : r.info) {
    std::printf(", \"%s\": %s", k.c_str(), v.c_str());
  }
  std::printf("}\n");
  std::printf("samples {");
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", k.c_str(),
                static_cast<unsigned long long>(v));
    first = false;
  }
  std::printf("}\n");

  std::string json;
  const bool ok =
      cfg.trace ? PrintMetrics(r, kPerLayer, std::size(kPerLayer), true, &json)
                : PrintMetrics(r, kEndToEnd, std::size(kEndToEnd), false,
                               &json);
  if (!ok) return 1;
  if (r.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct && r.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json.c_str());
  return 0;
}
