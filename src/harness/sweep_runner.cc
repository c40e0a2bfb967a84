#include "harness/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace polarcxl::harness {

int ThreadsFromEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return -1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);  // LONG_MAX on overflow
  if (!std::isdigit(static_cast<unsigned char>(*env)) || *end != '\0' ||
      v > INT_MAX) {
    std::fprintf(stderr, "%s=\"%s\" is not a non-negative integer\n", name,
                 env);
    std::exit(2);
  }
  return static_cast<int>(v);
}

unsigned SweepThreads() {
  const int env = ThreadsFromEnv("POLAR_SWEEP_THREADS");
  if (env >= 0) return static_cast<unsigned>(std::max(env, 1));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void RunIndexedTasks(size_t n, const std::function<void(size_t)>& fn,
                     unsigned threads) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; i++) fn(i);
    return;
  }
  if (threads > n) threads = static_cast<unsigned>(n);

  std::atomic<size_t> cursor{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; t++) pool.emplace_back(worker);
  worker();  // the caller's thread is worker 0
  for (std::thread& t : pool) t.join();
}

}  // namespace polarcxl::harness
