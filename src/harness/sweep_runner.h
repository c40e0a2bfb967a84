// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Parallel experiment sweep runner. A figure bench is a sweep of independent
// experiment configurations (instance counts x buffer-pool kinds, recovery
// points, sharing points); each experiment builds its own cluster, executor
// and RNGs and shares no mutable state with the others, so the sweep is
// embarrassingly parallel across host threads.
//
// Determinism contract: an experiment's result depends only on its config
// (every experiment owns its full simulated world), so RunSweep produces
// bit-identical results for any thread count, including the serial
// threads <= 1 path. tests/sweep_runner_test.cc and tests/determinism_test.cc
// enforce this.
//
// Thread count comes from POLAR_SWEEP_THREADS (default: hardware
// concurrency, capped by the number of experiments).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace polarcxl::harness {

/// Reads a thread-count env var: -1 when `name` is unset or empty, else its
/// value. Anything but a non-negative decimal integer exits 2 naming the
/// variable: a typo must not silently pick another execution discipline
/// (and with it another set of pins).
int ThreadsFromEnv(const char* name);

/// Sweep-wide thread count: POLAR_SWEEP_THREADS if set (0 means 1), else
/// std::thread::hardware_concurrency().
unsigned SweepThreads();

/// Runs fn(0) .. fn(n-1), distributing indices over `threads` workers via an
/// atomic cursor. threads <= 1 (or n <= 1) runs inline on the caller's
/// thread. fn must be safe to call concurrently for distinct indices.
/// Exceptions escaping fn terminate (experiment code reports Status instead
/// of throwing).
void RunIndexedTasks(size_t n, const std::function<void(size_t)>& fn,
                     unsigned threads);

/// Runs `run` over every config and returns results in config order.
/// `run` must be a pure function of its config (no shared mutable state) —
/// the result vector is then independent of the thread count.
template <typename Config, typename Result, typename RunFn>
std::vector<Result> RunSweep(const std::vector<Config>& configs, RunFn run,
                             unsigned threads) {
  std::vector<Result> results(configs.size());
  RunIndexedTasks(
      configs.size(),
      [&](size_t i) { results[i] = run(configs[i]); }, threads);
  return results;
}

template <typename Config, typename Result, typename RunFn>
std::vector<Result> RunSweep(const std::vector<Config>& configs, RunFn run) {
  return RunSweep<Config, Result>(configs, run, SweepThreads());
}

}  // namespace polarcxl::harness
