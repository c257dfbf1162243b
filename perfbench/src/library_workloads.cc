// Library workloads: one thread calling the index directly, no server.
//
//   lib-ingest  an empty "fastfair" index grown by N distinct uniform keys,
//               one Remove of a random earlier live key after every 8
//               inserts; emulated PM read/write 300/300 ns. The write path.
//   lib-read    a 64 Ki-key "fastfair" index (fits one core's L2) read by
//               95% Search (9 in 10 present) and 5% Scan(100), emulated
//               latency 0. The CPU-bound read path.
//
// Each op is timed from just before the call to just after it returns.
// The traced run (--trace 1) measures the same loop untraced and traced in
// alternation for the overhead figure, then replays the same inputs on a
// core::BTree built the same way for the core.* metrics.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/btree.h"
#include "index/index.h"
#include "pm/pool.h"

namespace perfbench {
namespace {

namespace pm = fastfair::pm;
namespace core = fastfair::core;
using fastfair::Index;

// Checks an ascending run of scan results against the sorted key set:
// exactly the next min(kScanLen, rest) keys from position `pos`.
void CheckScan(const core::Record* out, std::size_t n,
               const std::vector<Key>& sorted, std::size_t pos, Report* r) {
  const std::size_t want = std::min(kScanLen, sorted.size() - pos);
  if (n != want) return r->Fail("scan returned the wrong count", sorted[pos]);
  for (std::size_t j = 0; j < n; ++j) {
    if (out[j].key != sorted[pos + j] || out[j].ptr != ValueFor(out[j].key)) {
      return r->Fail("scan returned a wrong record", out[j].key);
    }
  }
}

// ---------------------------------------------------------------- lib-read

struct ReadOp {
  enum Kind : std::uint8_t { kHit, kMiss, kScan } kind;
  Key key;          // search key (kHit, kMiss) or scan start (kScan)
  std::uint32_t pos;  // kScan: the start key's position in the sorted set
};

// The lib-read op stream, generated on the fly so it adds no memory
// traffic next to the L2-sized tree: per 1000 ops 50 Scan(100) from a
// random preloaded key, the rest Search, 1 in 10 of an absent key.
class ReadGen {
 public:
  ReadGen(std::uint64_t seed, const std::vector<Key>& sorted)
      : seed_(seed), rng_(StreamSeed(seed, 1)), sorted_(sorted) {}
  ReadOp Next() {
    const std::uint64_t n = sorted_.size();
    const std::uint64_t roll = rng_.Below(1000);
    if (roll < 50) {
      const auto pos = static_cast<std::uint32_t>(rng_.Below(n));
      return {ReadOp::kScan, sorted_[pos], pos};
    }
    if (roll % 10 == 0) {
      return {ReadOp::kMiss, KeyAt(seed_, n + rng_.Below(n)), 0};
    }
    return {ReadOp::kHit, KeyAt(seed_, rng_.Below(n)), 0};
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  const std::vector<Key>& sorted_;
};

// Runs ops from `gen` against `t` until the wall clock passes `deadline`;
// returns the ops completed. `tr` non-null records spans for the ops it
// samples, the call's span named `search_name` or `scan_name`.
template <class Tree>
std::uint64_t ReadLoop(const Tree& t, ReadGen& gen,
                       const std::vector<Key>& sorted, double deadline,
                       Histogram* get, Histogram* scan, Tracer* tr,
                       const char* search_name, const char* scan_name,
                       std::uint64_t* op_id, Report* r) {
  core::Record out[kScanLen];
  std::uint64_t done = 0;
  for (;;) {
    if ((done & 63) == 0 && WallSeconds() >= deadline) break;
    const ReadOp op = gen.Next();
    const std::uint64_t id = (*op_id)++;
    const bool sampled = tr != nullptr && tr->Sampled(id);
    const std::uint64_t c0 = sampled ? pm::NowNs() : 0;
    if (op.kind == ReadOp::kScan) {
      const std::uint64_t t0 = pm::NowNs();
      const std::size_t n = t.Scan(op.key, kScanLen, out);
      const std::uint64_t t1 = pm::NowNs();
      scan->Add(t1 - t0);
      CheckScan(out, n, sorted, op.pos, r);
      if (sampled) {
        const auto p = tr->Add("client.op", id, -1, c0, pm::NowNs());
        if (p >= 0) tr->Add(scan_name, id, p, t0, t1);
      }
    } else {
      const std::uint64_t t0 = pm::NowNs();
      const Value v = t.Search(op.key);
      const std::uint64_t t1 = pm::NowNs();
      get->Add(t1 - t0);
      const Value want =
          op.kind == ReadOp::kHit ? ValueFor(op.key) : fastfair::kNoValue;
      if (v != want) {
        r->Fail(op.kind == ReadOp::kHit ? "search missed a present key"
                                        : "search hit an absent key",
                op.key);
      }
      if (sampled) {
        const auto p = tr->Add("client.op", id, -1, c0, pm::NowNs());
        if (p >= 0) tr->Add(search_name, id, p, t0, t1);
      }
    }
    ++done;
  }
  return done;
}

template <class Tree>
void LoadKeys(Tree& t, const std::vector<Key>& keys) {
  for (const Key k : keys) t.Insert(k, ValueFor(k));
}

}  // namespace

void RunLibRead(const RunConfig& cfg, Report* r) {
  const std::size_t n = cfg.tiny ? 4096 : 65536;
  const std::size_t probes = cfg.tiny ? 1000 : 4000;  // per window
  SetPm(0, 0);

  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = KeyAt(cfg.seed, i);
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  // Set-up: pool + index + load, five times (median); the last one is
  // measured.
  std::unique_ptr<pm::Pool> pool;
  std::unique_ptr<Index> idx;
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    idx.reset();
    pool.reset();
    const double t0 = WallSeconds();
    pool = std::make_unique<pm::Pool>(std::size_t{1} << 32);
    idx = fastfair::MakeIndex("fastfair", pool.get());
    LoadKeys(*idx, keys);
    setups.push_back(WallSeconds() - t0);
  }
  r->attempted += n;  // the preload, checked by the reads below
  const double used = static_cast<double>(pool->used());

  r->info.push_back({"index", "\"fastfair\""});
  r->info.push_back({"keys", Num(n)});
  r->info.push_back({"pm_read_ns", "0"});
  r->info.push_back({"pm_write_ns", "0"});
  r->info.push_back({"mix", "\"95% Search (90% present), 5% Scan(100)\""});

  ReadGen gen(cfg.seed, sorted);
  std::uint64_t op_id = 0;
  // Warm-up: caches fill, lazy dispatch resolves; checked, not recorded.
  {
    Histogram wg, ws;
    r->attempted += ReadLoop(*idx, gen, sorted, WallSeconds() + 0.3,
                             &wg, &ws, nullptr, "", "", &op_id, r);
  }

  if (!cfg.trace) {
    // Each window runs the read mix, then probes the write calls the mix
    // leaves out: fresh keys inserted, then removed again, so every window
    // reads the same tree.
    Windows win;
    std::uint64_t probe_key = 2 * n;
    std::map<std::string, std::uint64_t> samples;
    const int nw = NumWindows(cfg.seconds);
    for (int w = 0; w < nw; ++w) {
      Histogram get, scan, put, del;
      const double t0 = WallSeconds();
      const std::uint64_t done =
          ReadLoop(*idx, gen, sorted, t0 + cfg.seconds / nw,
                   &get, &scan, nullptr, "", "", &op_id, r);
      win.Add("throughput_kops", done / (WallSeconds() - t0) / 1e3);
      r->attempted += done + 2 * probes;
      for (std::size_t j = 0; j < probes; ++j) {
        const Key k = KeyAt(cfg.seed, probe_key + j);
        const std::uint64_t t0n = pm::NowNs();
        idx->Insert(k, ValueFor(k));
        put.Add(pm::NowNs() - t0n);
      }
      for (std::size_t j = 0; j < probes; ++j) {
        const Key k = KeyAt(cfg.seed, probe_key + j);
        const std::uint64_t t0n = pm::NowNs();
        const bool ok = idx->Remove(k);
        del.Add(pm::NowNs() - t0n);
        if (!ok) r->Fail("remove of a probe key missed", k);
      }
      probe_key += probes;
      win.AddLatency("get", get);
      win.AddLatency("scan", scan);
      win.AddLatency("put", put);
      win.AddLatency("del", del);
      samples["get"] += get.count();
      samples["scan"] += scan.count();
      samples["put"] += put.count();
      samples["del"] += del.count();
    }
    if (idx->CountEntries() != n) r->Fail("entry count changed", n);
    win.ReportMedians(r);
    r->Metric("setup_s", Median(setups));
    r->Metric("pm_bytes_per_user_byte", used / (16.0 * n));
    r->samples = samples;
    r->info.push_back({"windows", Num(nw)});
    r->info.push_back({"put_del_source", "\"per-window probe of fresh keys\""});
    return;
  }

  // Traced run. Untraced and traced slices alternate every 0.25 s over 80%
  // of the run, so both see the same machine state.
  Tracer tr(512);
  Histogram get, scan;  // traced slices
  Histogram ug, us;     // untraced slices (only their op counts are used)
  double secs_u = 0, secs_t = 0;
  std::uint64_t ops_u = 0, ops_t = 0;
  pm::ThreadStats pm_t;
  const double main_end = WallSeconds() + 0.8 * cfg.seconds;
  for (int slice = 0; WallSeconds() < main_end; ++slice) {
    const bool traced = slice % 2 == 1;
    const double t0 = WallSeconds();
    const double end = std::min(main_end, t0 + 0.25);
    const pm::ThreadStats before = pm::Stats();
    const std::uint64_t done =
        traced ? ReadLoop(*idx, gen, sorted, end, &get, &scan, &tr,
                          "index.Search", "index.Scan", &op_id, r)
               : ReadLoop(*idx, gen, sorted, end, &ug, &us, nullptr,
                          "", "", &op_id, r);
    const double secs = WallSeconds() - t0;
    r->attempted += done;
    if (traced) {
      pm_t += pm::Stats() - before;
      secs_t += secs;
      ops_t += done;
    } else {
      secs_u += secs;
      ops_u += done;
    }
  }

  // The same inputs on a core::BTree loaded the same way.
  Histogram core_get, core_scan;
  int height = 0;
  double leaf_fill = 0, nodes = 0;
  {
    pm::Pool core_pool(std::size_t{1} << 32);
    core::BTree tree(&core_pool);
    LoadKeys(tree, keys);
    ReadGen cgen(cfg.seed, sorted);
    std::uint64_t cid = 0;
    r->attempted += n + ReadLoop(tree, cgen, sorted,
                                 WallSeconds() + 0.15 * cfg.seconds,
                                 &core_get, &core_scan, &tr, "core.Search",
                                 "core.Scan", &cid, r);
    const auto st = tree.GetTreeStats();
    height = st.height;
    leaf_fill = st.leaf_fill;
    for (const std::size_t c : st.nodes_per_level) nodes += c;
  }

  const double ku = ops_u / secs_u / 1e3, kt = ops_t / secs_t / 1e3;
  r->Metric("trace.untraced_kops", ku);
  r->Metric("trace.traced_kops", kt);
  r->Metric("trace.overhead_pct", (ku / kt - 1.0) * 100.0);
  r->Metric("index.search_ns.p50", get.Quantile(0.5));
  r->Metric("index.search_ns.p99", get.Quantile(0.99));
  r->Metric("index.scan_ns.p50", scan.Quantile(0.5));
  r->Metric("core.search_ns.p50", core_get.Quantile(0.5));
  r->Metric("core.height", height);
  r->Metric("core.leaf_fill", leaf_fill);
  r->Metric("core.nodes_per_kput", nodes / (n / 1e3));
  AddPmMetrics(pm_t, static_cast<double>(ops_t), 0, used, r);
  r->samples = {{"index.search", get.count()},
                {"index.scan", scan.count()},
                {"core.search", core_get.count()}};
  r->info.push_back({"self_time", tr.SelfTimeSummary()});
  if (!cfg.trace_out.empty() && !tr.Write(cfg.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.trace_out.c_str());
  }
}

// -------------------------------------------------------------- lib-ingest

namespace {

// The ingest schedule: insert key i = 0, 1, 2, ...; after every 8th insert
// remove a random earlier key that is still live. Deterministic per seed,
// restarted identically for every tree grown.
struct IngestSchedule {
  IngestSchedule(std::uint64_t seed, std::size_t cap)
      : seed(seed), rng(StreamSeed(seed, 2)) {
    live.reserve(cap);
  }
  std::uint64_t seed;
  Rng rng;
  std::uint64_t inserted = 0;
  std::vector<std::uint32_t> live;  // indices of live keys
  std::vector<std::uint32_t> gone;  // indices of removed keys
};

// Applies the schedule to `t` until `max_inserts` keys were inserted or
// the wall clock passes `deadline`. Returns the ops applied.
template <class Tree>
std::uint64_t Grow(Tree& t, IngestSchedule& s, std::uint64_t max_inserts,
                   double deadline, Histogram* put, Histogram* del,
                   Tracer* tr, const char* insert_name,
                   const char* remove_name, std::uint64_t* op_id, Report* r) {
  std::uint64_t done = 0;
  while (s.inserted < max_inserts) {
    if ((s.inserted & 63) == 0 && WallSeconds() >= deadline) break;
    {
      const std::uint64_t id = (*op_id)++;
      const bool sampled = tr != nullptr && tr->Sampled(id);
      const std::uint64_t c0 = sampled ? pm::NowNs() : 0;
      const auto i = static_cast<std::uint32_t>(s.inserted);
      const Key k = KeyAt(s.seed, i);
      const std::uint64_t t0 = pm::NowNs();
      t.Insert(k, ValueFor(k));
      const std::uint64_t t1 = pm::NowNs();
      put->Add(t1 - t0);
      s.live.push_back(i);
      ++s.inserted;
      ++done;
      if (sampled) {
        const auto p = tr->Add("client.op", id, -1, c0, pm::NowNs());
        if (p >= 0) tr->Add(insert_name, id, p, t0, t1);
      }
    }
    if (s.inserted % 8 == 0) {
      const std::uint64_t id = (*op_id)++;
      const bool sampled = tr != nullptr && tr->Sampled(id);
      const std::uint64_t c0 = sampled ? pm::NowNs() : 0;
      const std::size_t pos = s.rng.Below(s.live.size());
      const std::uint32_t i = s.live[pos];
      s.live[pos] = s.live.back();
      s.live.pop_back();
      s.gone.push_back(i);
      const Key k = KeyAt(s.seed, i);
      const std::uint64_t t0 = pm::NowNs();
      const bool ok = t.Remove(k);
      const std::uint64_t t1 = pm::NowNs();
      del->Add(t1 - t0);
      if (!ok) r->Fail("remove of a live key missed", k);
      ++done;
      if (sampled) {
        const auto p = tr->Add("client.op", id, -1, c0, pm::NowNs());
        if (p >= 0) tr->Add(remove_name, id, p, t0, t1);
      }
    }
  }
  r->attempted += done;
  return done;
}

// Every live key returns its value, every removed key misses, and the
// entry count equals the oracle's. Runs at latency 0 (restored after).
template <class Tree>
void VerifyIngest(const Tree& t, const IngestSchedule& s, Report* r) {
  const pm::Config saved = pm::GetConfig();
  SetPm(0, 0);
  std::vector<Key> keys(1024);
  std::vector<Value> vals(1024);
  auto check = [&](const std::vector<std::uint32_t>& idx, bool live) {
    for (std::size_t b = 0; b < idx.size(); b += keys.size()) {
      const std::size_t m = std::min(keys.size(), idx.size() - b);
      for (std::size_t j = 0; j < m; ++j) keys[j] = KeyAt(s.seed, idx[b + j]);
      t.SearchBatch(keys.data(), m, vals.data());
      for (std::size_t j = 0; j < m; ++j) {
        if (vals[j] != (live ? ValueFor(keys[j]) : fastfair::kNoValue)) {
          r->Fail(live ? "live key lost or wrong" : "removed key still found",
                  keys[j]);
        }
      }
    }
  };
  check(s.live, true);
  check(s.gone, false);
  if (t.CountEntries() != s.live.size()) {
    r->Fail("entry count differs from the oracle", t.CountEntries());
  }
  pm::SetConfig(saved);
}

}  // namespace

void RunLibIngest(const RunConfig& cfg, Report* r) {
  const std::uint64_t n = cfg.tiny ? 20000 : 2000000;
  const std::size_t probes = cfg.tiny ? 1000 : 4000;  // per window
  const std::size_t scan_probes = cfg.tiny ? 200 : 1000;
  constexpr std::uint64_t kLatencyNs = 300;

  r->info.push_back({"index", "\"fastfair\""});
  r->info.push_back({"keys_per_tree", Num(static_cast<double>(n))});
  r->info.push_back({"pm_read_ns", Num(kLatencyNs)});
  r->info.push_back({"pm_write_ns", Num(kLatencyNs)});
  r->info.push_back(
      {"mix", "\"Insert of new keys; Remove of a live key after every 8\""});

  // Set-up: an empty pool and index. It takes microseconds, so it is
  // repeated kSetups times and the median reported; each tree grown below
  // gets a fresh pair the same way.
  std::vector<double> setups;
  auto fresh = [&](std::unique_ptr<pm::Pool>* pool,
                   std::unique_ptr<Index>* idx) {
    idx->reset();
    pool->reset();
    const double t0 = WallSeconds();
    *pool = std::make_unique<pm::Pool>(std::size_t{1} << 32);
    *idx = fastfair::MakeIndex("fastfair", pool->get());
    return WallSeconds() - t0;
  };
  std::unique_ptr<pm::Pool> pool;
  std::unique_ptr<Index> idx;
  constexpr int kSetups = 201;
  for (int rep = 0; rep < kSetups; ++rep) setups.push_back(fresh(&pool, &idx));
  SetPm(kLatencyNs, kLatencyNs);

  std::uint64_t op_id = 0;
  if (!cfg.trace) {
    // Trees are grown one after another, each to n keys, until the growth
    // time reaches --seconds, cut into one-second windows. The first full
    // tree is verified, kept, and probed with the reads the mix leaves out:
    // one probe repetition after each later window, spread over the run,
    // and any repetitions still missing at the end.
    const int nw = NumWindows(cfg.seconds);
    Windows win;
    std::map<std::string, std::uint64_t> samples;
    double bytes_per_user_byte = 0;
    std::unique_ptr<pm::Pool> probe_pool;
    std::unique_ptr<Index> probe_idx;
    std::vector<Key> sorted;  // the probed tree's live keys
    Rng probe_rng(StreamSeed(cfg.seed, 3));
    int reps = 0;
    auto probe_rep = [&]() {
      core::Record out[kScanLen];
      Histogram get, scan;
      for (std::size_t j = 0; j < probes; ++j) {
        const Key k = sorted[probe_rng.Below(sorted.size())];
        const std::uint64_t t0 = pm::NowNs();
        const Value v = probe_idx->Search(k);
        get.Add(pm::NowNs() - t0);
        if (v != ValueFor(k)) r->Fail("search missed a live key", k);
      }
      for (std::size_t j = 0; j < scan_probes; ++j) {
        const std::size_t p = probe_rng.Below(sorted.size());
        const std::uint64_t t0 = pm::NowNs();
        const std::size_t m = probe_idx->Scan(sorted[p], kScanLen, out);
        scan.Add(pm::NowNs() - t0);
        CheckScan(out, m, sorted, p, r);
      }
      r->attempted += probes + scan_probes;
      win.AddLatency("get", get);
      win.AddLatency("scan", scan);
      samples["get"] += get.count();
      samples["scan"] += scan.count();
      ++reps;
    };
    // Retires a finished tree: verified; the first one is kept for probes.
    auto retire = [&](const IngestSchedule& s) {
      VerifyIngest(*idx, s, r);
      if (probe_idx != nullptr) return;
      bytes_per_user_byte =
          static_cast<double>(pool->used()) / (16.0 * s.live.size());
      sorted.resize(s.live.size());
      for (std::size_t j = 0; j < sorted.size(); ++j) {
        sorted[j] = KeyAt(cfg.seed, s.live[j]);
      }
      std::sort(sorted.begin(), sorted.end());
      probe_pool = std::move(pool);
      probe_idx = std::move(idx);
    };
    auto s = std::make_unique<IngestSchedule>(cfg.seed, n);
    for (int w = 0; w < nw; ++w) {
      Histogram put, del;
      const double budget = cfg.seconds / nw;
      double secs = 0;
      std::uint64_t done = 0;
      while (secs < budget) {
        if (s->inserted == n) {  // full: retire, start a fresh tree
          retire(*s);
          fresh(&pool, &idx);
          s = std::make_unique<IngestSchedule>(cfg.seed, n);
        }
        const double t0 = WallSeconds();
        done += Grow(*idx, *s, n, t0 + (budget - secs), &put, &del, nullptr,
                     "", "", &op_id, r);
        secs += WallSeconds() - t0;
      }
      win.Add("throughput_kops", done / secs / 1e3);
      win.AddLatency("put", put);
      win.AddLatency("del", del);
      samples["put"] += put.count();
      samples["del"] += del.count();
      if (probe_idx != nullptr && reps < nw) probe_rep();
    }
    retire(*s);
    while (reps < nw) probe_rep();
    win.ReportMedians(r);
    r->Metric("setup_s", Median(setups));
    r->Metric("pm_bytes_per_user_byte", bytes_per_user_byte);
    r->samples = samples;
    r->info.push_back({"windows", Num(nw)});
    r->info.push_back({"get_scan_source", "\"probe of the first full tree\""});
    return;
  }

  // Traced run: an untraced and a traced tree grown side by side in
  // alternating 0.25 s slices over 80% of the run (each restarts from an
  // empty tree when it reaches n keys); then a core::BTree grown by the
  // same schedule to the traced tree's size.
  struct Side {
    std::unique_ptr<pm::Pool> pool;
    std::unique_ptr<Index> idx;
    std::unique_ptr<IngestSchedule> sched;
    double secs = 0;
    std::uint64_t ops = 0, op_id = 0, max_inserted = 0;
    std::size_t max_used = 0;  // largest Pool::used() of its trees
  };
  Tracer tr(64);
  Side su, st;
  su.pool = std::move(pool);
  su.idx = std::move(idx);
  fresh(&st.pool, &st.idx);
  su.sched = std::make_unique<IngestSchedule>(cfg.seed, n);
  st.sched = std::make_unique<IngestSchedule>(cfg.seed, n);
  Histogram put, del, uput, udel;
  pm::ThreadStats pm_t;
  const double main_end = WallSeconds() + 0.8 * cfg.seconds;
  for (int slice = 0; WallSeconds() < main_end; ++slice) {
    const bool traced = slice % 2 == 1;
    Side& sd = traced ? st : su;
    if (sd.sched->inserted == n) {  // full: verify, start a fresh tree
      VerifyIngest(*sd.idx, *sd.sched, r);
      fresh(&sd.pool, &sd.idx);
      sd.sched = std::make_unique<IngestSchedule>(cfg.seed, n);
    }
    const double t0 = WallSeconds();
    const double end = std::min(main_end, t0 + 0.25);
    const pm::ThreadStats before = pm::Stats();
    sd.ops += traced ? Grow(*sd.idx, *sd.sched, n, end, &put, &del, &tr,
                            "index.Insert", "index.Remove", &sd.op_id, r)
                     : Grow(*sd.idx, *sd.sched, n, end, &uput, &udel,
                            nullptr, "", "", &sd.op_id, r);
    sd.secs += WallSeconds() - t0;
    if (traced) pm_t += pm::Stats() - before;
    sd.max_inserted = std::max(sd.max_inserted, sd.sched->inserted);
    sd.max_used = std::max(sd.max_used, sd.pool->used());
  }
  VerifyIngest(*su.idx, *su.sched, r);
  VerifyIngest(*st.idx, *st.sched, r);
  const double used = static_cast<double>(st.max_used);
  const std::uint64_t core_keys = st.max_inserted;
  const double su_ops = su.ops, su_secs = su.secs;
  const double st_ops = st.ops, st_secs = st.secs;
  su = Side();
  st = Side();

  Histogram core_put, core_del;
  int height = 0;
  double leaf_fill = 0, nodes = 0;
  {
    pm::Pool core_pool(std::size_t{1} << 32);
    core::BTree tree(&core_pool);
    IngestSchedule sc(cfg.seed, n);
    std::uint64_t cid = 0;
    Grow(tree, sc, core_keys, WallSeconds() + 60.0, &core_put, &core_del,
         &tr, "core.Insert", "core.Remove", &cid, r);
    VerifyIngest(tree, sc, r);
    const auto ts = tree.GetTreeStats();
    height = ts.height;
    leaf_fill = ts.leaf_fill;
    for (const std::size_t c : ts.nodes_per_level) nodes += c;
  }

  const double ku = su_ops / su_secs / 1e3, kt = st_ops / st_secs / 1e3;
  r->Metric("trace.untraced_kops", ku);
  r->Metric("trace.traced_kops", kt);
  r->Metric("trace.overhead_pct", (ku / kt - 1.0) * 100.0);
  r->Metric("index.insert_ns.p50", put.Quantile(0.5));
  r->Metric("index.insert_ns.p99", put.Quantile(0.99));
  r->Metric("index.remove_ns.p50", del.Quantile(0.5));
  r->Metric("core.insert_ns.p50", core_put.Quantile(0.5));
  r->Metric("core.height", height);
  r->Metric("core.leaf_fill", leaf_fill);
  r->Metric("core.nodes_per_kput", nodes / (core_keys / 1e3));
  AddPmMetrics(pm_t, st_ops, st_ops, used, r);
  r->samples = {{"index.insert", put.count()},
                {"index.remove", del.count()},
                {"core.insert", core_put.count()}};
  r->info.push_back({"core_tree_keys", Num(static_cast<double>(core_keys))});
  r->info.push_back({"self_time", tr.SelfTimeSummary()});
  if (!cfg.trace_out.empty() && !tr.Write(cfg.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.trace_out.c_str());
  }
}

}  // namespace perfbench
