// Shared pieces of the perfbench driver: input generation, latency
// histograms, the in-memory span recorder, and the result report.
//
// Everything here lives on the benchmark side of the program boundary: the
// inputs are generated from the seed by the benchmark's own generator, and
// the program is reached only through its public headers.

#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/defs.h"
#include "pm/persist.h"

namespace perfbench {

using fastfair::Key;
using fastfair::Value;

// Records per Scan in every workload.
inline constexpr std::size_t kScanLen = 100;

// The value every workload stores for key k. Equal to bench::ValueFor:
// 2k+1 is odd, so never kNoValue, and injective mod 2^64, so adjacent
// records never share a value (core/btree.h's value-uniqueness contract).
inline Value ValueFor(Key k) { return 2 * k + 1; }

// splitmix64: the benchmark's own generator, independent of the program's.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() { return Mix(s_ += 0x9e3779b97f4a7c15ull); }
  // Uniform in [0, n), n > 0.
  std::uint64_t Below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  // The splitmix64 finalizer: a bijection on 64-bit words.
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t s_;
};

// Independent stream `stream` of the run's seed.
inline std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return Rng::Mix(seed * 0x100000001b3ull + stream + 1);
}

// Key i of the run's key space: distinct for distinct i (a bijection of
// i), spread uniformly over the 64-bit space, never 0 or ~0 (the one
// colliding index per seed is remapped past any index a workload uses).
inline Key KeyAt(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t base = StreamSeed(seed, 0xbe9c);
  Key k = Rng::Mix(base + i);
  if (k == 0 || k == ~Key{0}) k = Rng::Mix(base + i + (1ull << 62));
  return k;
}

// Log-linear latency histogram: exact below 2048 ns, then 1024 linear
// sub-buckets per power of two (0.1% relative resolution). Quantiles
// interpolate inside the bucket, so a median reads with all its digits.
class Histogram {
 public:
  void Add(std::uint64_t ns) {
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);  // on first use
    ++buckets_[Index(ns)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  // q in [0, 1]; returns nanoseconds (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr int kMaxMsb = 44;  // ~4.9 hours; longer values clamp
  static constexpr std::size_t kBuckets =
      2 * kSub + (kMaxMsb - kSubBits) * kSub;
  static std::size_t Index(std::uint64_t v);
  static void Bounds(std::size_t idx, double* lo, double* width);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// In-memory span recorder for the traced run. A span is one call the
// benchmark makes into a layer (or the client-side op enclosing them);
// spans of one op share its op id. One op in `every` is recorded, up to
// `cap` spans, written out once at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::int32_t parent;  // index into spans, -1 = root
    std::uint64_t start_ns, end_ns;
  };

  explicit Tracer(std::uint64_t every, std::size_t cap = 500000)
      : every_(every), cap_(cap) {}
  // Whether op `id` records spans.
  bool Sampled(std::uint64_t id) const {
    return id % every_ == 0 && spans_.size() < cap_;
  }
  // Returns the span's index (or -1 when the buffer is full).
  std::int32_t Add(const char* name, std::uint64_t op, std::int32_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns) {
    if (spans_.size() >= cap_) return -1;
    spans_.push_back({name, op, parent, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  // Writes one JSON object per line; returns false on I/O failure.
  bool Write(const std::string& path) const;
  // Per span name: count, mean duration and mean self time (duration minus
  // the union of its children's intervals), in microseconds, as JSON.
  std::string SelfTimeSummary() const;

 private:
  std::uint64_t every_;
  std::size_t cap_;
  std::vector<Span> spans_;
};

// A run's printed result. Units are fixed per metric name in main.cc.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  // Samples behind each latency metric family, e.g. {"get", 123456}.
  std::map<std::string, std::uint64_t> samples;
  // Extra key/value facts printed before the result line.
  std::vector<std::pair<std::string, std::string>> info;

  void Metric(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  // A failed correctness check: counted against `attempted`, and the first
  // few are described on stderr.
  void Fail(const char* what, std::uint64_t key);
};

// A measured run is cut into windows; each end-to-end metric is computed
// per window and the run reports the median over windows, so a burst of
// outside load in one window does not move the result.
class Windows {
 public:
  void Add(const std::string& name, double v) { v_[name].push_back(v); }
  // <family>_p50_us and <family>_p99_us of one window's latencies.
  void AddLatency(const std::string& family, const Histogram& h) {
    Add(family + "_p50_us", h.Quantile(0.5) / 1e3);
    Add(family + "_p99_us", h.Quantile(0.99) / 1e3);
  }
  // Reports the median over windows of every metric added, and lists the
  // per-window throughput in the run's info.
  void ReportMedians(struct Report* r) const;

 private:
  std::map<std::string, std::vector<double>> v_;
};

// The run's settings as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // smoke-test sizes
  std::string trace_out;
  std::string commit = "unknown";
};

// Number of windows a measured run of `seconds` is cut into: one a
// second, at least five.
inline int NumWindows(double seconds) {
  return seconds < 5 ? 5 : static_cast<int>(seconds + 0.5);
}

// A number as a JSON literal, with all its digits.
inline std::string Num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

// Steady-clock seconds since an arbitrary epoch (run deadlines, set-up).
double WallSeconds();

// Median of a small sample (copied).
double Median(std::vector<double> v);

// The pm.* per-layer metrics from a counter delta `d` over `ops` operations,
// `writes` of them inserts/puts/removes/deletes; `used_bytes` is the pool's
// Pool::used() at the end of the phase.
void AddPmMetrics(const fastfair::pm::ThreadStats& d, double ops,
                  double writes, double used_bytes, Report* r);

// Installs the emulated PM settings every workload shares: strict
// persistency, no flush coalescing, TSO, the given read/write latencies.
void SetPm(std::uint64_t read_ns, std::uint64_t write_ns);

void RunSvcPipelined(const RunConfig& cfg, Report* r);
void RunSvcInteractive(const RunConfig& cfg, Report* r);
void RunLibIngest(const RunConfig& cfg, Report* r);
void RunLibRead(const RunConfig& cfg, Report* r);

}  // namespace perfbench
