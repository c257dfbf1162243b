#include "bench/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench/stats.h"

namespace fastfair::bench {

void LoadIndex(Index* idx, const std::vector<Key>& keys, std::size_t batch) {
  if (batch <= 1) {
    for (const Key k : keys) idx->Insert(k, ValueFor(k));
    return;
  }
  std::vector<core::Record> buf(batch);
  for (std::size_t i = 0; i < keys.size(); i += batch) {
    const std::size_t n = std::min(batch, keys.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      buf[j].key = keys[i + j];
      buf[j].ptr = ValueFor(keys[i + j]);
    }
    idx->InsertBatch(buf.data(), n, nullptr);
  }
}

void VerifyIndex(const Index* idx, const std::vector<Key>& keys,
                 std::size_t batch) {
  if (batch == 0) batch = 1024;
  std::vector<Value> vals(batch);
  for (std::size_t i = 0; i < keys.size(); i += batch) {
    const std::size_t n = std::min(batch, keys.size() - i);
    idx->SearchBatch(keys.data() + i, n, vals.data());
    for (std::size_t j = 0; j < n; ++j) {
      if (vals[j] != ValueFor(keys[i + j])) std::abort();
    }
  }
}

std::uint64_t RunThreads(
    int nthreads, std::size_t total,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  const std::size_t chunk =
      (total + static_cast<std::size_t>(nthreads) - 1) /
      static_cast<std::size_t>(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::size_t begin = static_cast<std::size_t>(t) * chunk;
      const std::size_t end = std::min(total, begin + chunk);
      if (begin < end) fn(t, begin, end);
    });
  }
  Timer timer;
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  return timer.ElapsedNs();
}

}  // namespace fastfair::bench
