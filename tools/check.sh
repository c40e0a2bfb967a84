#!/usr/bin/env bash
# Repo verification gate: the tier-1 build + full test suite, then a
# sanitizer build (ASan+UBSan) of the simulation-core and determinism
# tests. Run from anywhere; builds land in build/ and build-asan/. The
# bench gates run a bench at the pin scale; the bench checks itself against
# the pins manifest, bench/pins.h, and exits 1 naming any value that drifts.
#
#   tools/check.sh            # tier-1 + sanitizer pass
#   tools/check.sh --fast     # tier-1 only
#   tools/check.sh --bench    # tier-1 + fig7 pins, also on a POLAR_NO_SIMD
#                             #   build and on a POLAR_PROF build (which adds
#                             #   the hot-share ceiling)
#   tools/check.sh --faults   # tier-1 + sanitized fault suite + chaos pins
#   tools/check.sh --snapshot # tier-1 + sanitized snapshot suite +
#                             #   cold-vs-fork bit-identity on the fig7 point
#   tools/check.sh --parallel # tier-1 + fig7 epoch pins at
#                             #   POLAR_WORLD_THREADS 1/2/4 + TSan leg over
#                             #   the executor/snapshot/faults suites
#   tools/check.sh --slo      # tier-1 + sanitized open-loop suite + SLO pins
#                             #   across sweep/world thread counts
#   tools/check.sh --fabric   # tier-1 + sanitized fabric suite + 2-switch
#                             #   serial and epoch pins
#   tools/check.sh --scale    # tier-1 + scheduler suite + 64-instance pins
#                             #   and sched-ops-per-step ceiling
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Runs one bench at the pin scale with the caller's env assignments, e.g.
#   pinned [-q] POLAR_WORLD_THREADS=2 build/bench/bench_sim_throughput
# and fails unless the bench printed its "pins checked" line, so a scale
# here that drifts from bench/pins.h fails loudly instead of skipping the
# gate. -q shows only that line of the bench's stdout. Wall-clock numbers
# at this scale are informational only: the windows are too short to gate.
pinned() {
  local quiet=0
  if [[ "$1" == -q ]]; then
    quiet=1
    shift
  fi
  local log=build/pinned-run.log line
  local run=(env POLAR_BENCH_SCALE=0.1 "$@")
  if ((quiet)); then
    "${run[@]}" >"$log"
  else
    "${run[@]}" | tee "$log"
  fi
  line="$(grep -F "pins checked" "$log" || true)"
  if [[ -z "$line" ]]; then
    echo "==> FAIL: $* did not check its pins against bench/pins.h" >&2
    exit 1
  fi
  if ((quiet)); then echo "$line"; fi
}

# Builds the named test binaries under ASan+UBSan (or TSan with --thread)
# and runs each one. LTO off: it slows the instrumented build down a lot
# for no extra signal.
sanitized() {
  local dir=build-asan flavor=ON
  if [[ "$1" == --thread ]]; then
    dir=build-tsan flavor=thread
    shift
  fi
  cmake -B "$dir" -S . -DPOLAR_SANITIZE="$flavor" -DPOLAR_LTO=OFF >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "$@" >/dev/null
  for t in "$@"; do
    echo "==> $dir/tests/$t"
    "$dir/tests/$t"
  done
}

echo "==> tier-1: configure + build + ctest"
# POLAR_CMAKE_FLAGS lets CI matrix legs reconfigure the tier-1 build (e.g.
# -DPOLAR_NO_SIMD=ON to run the whole suite on the scalar fallbacks).
# shellcheck disable=SC2086
cmake -B build -S . ${POLAR_CMAKE_FLAGS:-} >/dev/null
cmake --build build -j "$JOBS" >/dev/null
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> OK (fast mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
  echo "==> bench: fig7 quick-run bit-identity gate"
  pinned POLAR_BENCH_REPS=1 build/bench/bench_sim_throughput
  echo "==> bench: POLAR_NO_SIMD leg (scalar kernels, same pins)"
  # The SIMD kernels are host-side only: the scalar build must retire the
  # exact same lane_steps, and the kernel equivalence tests must pass with
  # the fallback paths compiled in.
  cmake -B build-nosimd -S . -DPOLAR_NO_SIMD=ON >/dev/null
  cmake --build build-nosimd -j "$JOBS" \
    --target bench_sim_throughput kernel_test >/dev/null
  build-nosimd/tests/kernel_test
  pinned POLAR_BENCH_REPS=1 build-nosimd/bench/bench_sim_throughput
  echo "==> bench: POLAR_PROF hot-share regression gate"
  # A profiled quick run measures where simulator CPU time goes; a
  # POLAR_PROF build also holds the engine+cache_sim hot paths to the
  # manifest's share of profiled self time.
  cmake -B build-prof -S . -DPOLAR_PROF=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-prof -j "$JOBS" --target bench_sim_throughput >/dev/null
  pinned POLAR_BENCH_REPS=1 build-prof/bench/bench_sim_throughput
  echo "==> OK (bench mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
  echo "==> faults: ASan+UBSan build of the fault suite"
  sanitized faults_test failure_injection_test
  echo "==> faults: quick-scale chaos bit-identity gate (threads 1 vs many)"
  # Same canonical schedule, serial and parallel sweeps: lane_steps must
  # hit the chaos pins either way.
  pinned -q POLAR_BENCH_REPS=1 POLAR_SWEEP_THREADS=1 \
    build/bench/bench_fig14_fault_resilience
  pinned POLAR_BENCH_REPS=1 build/bench/bench_fig14_fault_resilience
  echo "==> OK (faults mode)"
  exit 0
fi

if [[ "${1:-}" == "--snapshot" ]]; then
  echo "==> snapshot: ASan+UBSan build of the snapshot suite"
  sanitized snapshot_test
  echo "==> snapshot: quick-scale cold-vs-fork bit-identity gate"
  # Rep 1 builds the fig7 quick-scale world cold; rep 2 forks its snapshot.
  # Both reps must retire the pinned lane_steps (the bench exits 1 if a
  # forked rep diverges from the cold one, and checks the absolute values
  # against the manifest).
  pinned POLAR_BENCH_REPS=2 build/bench/bench_sim_throughput
  echo "==> OK (snapshot mode)"
  exit 0
fi

if [[ "${1:-}" == "--parallel" ]]; then
  echo "==> parallel: epoch-parallel determinism suite"
  build/tests/parallel_world_test
  echo "==> parallel: quick-scale bench identity across POLAR_WORLD_THREADS"
  # Same world, sharded 1/2/4 ways: a run that executed epochs checks the
  # epoch pins, which must hold at every thread count. Wall-clock is
  # informational (see in_world_scaling in BENCH_sim_throughput.json for
  # the honest scaling numbers).
  for n in 1 2 4; do
    echo "==> POLAR_WORLD_THREADS=$n"
    pinned -q POLAR_WORLD_THREADS="$n" POLAR_BENCH_REPS=1 \
      build/bench/bench_sim_throughput
  done
  echo "==> parallel: chaos gate at POLAR_WORLD_THREADS=2 (serial pins)"
  # Chaos worlds are single-group, so the epoch discipline replays the
  # serial timeline exactly — the same chaos pins must hold.
  pinned -q POLAR_WORLD_THREADS=2 POLAR_BENCH_REPS=1 POLAR_SWEEP_THREADS=1 \
    build/bench/bench_fig14_fault_resilience
  echo "==> parallel: TSan build of executor/snapshot/faults suites"
  sanitized --thread sim_test snapshot_test faults_test parallel_world_test
  echo "==> OK (parallel mode)"
  exit 0
fi

if [[ "${1:-}" == "--slo" ]]; then
  echo "==> slo: ASan+UBSan build of the open-loop suite"
  sanitized open_loop_test
  echo "==> slo: quick-scale capacity bit-identity gate (thread sweep)"
  # Open-loop arrival schedules are counter-mode (a pure function of seed,
  # tenant, and index) and all serving runs on the virtual clock, so the
  # same pins must hold serial, sweep-parallel, and epoch-parallel.
  pinned -q POLAR_SWEEP_THREADS=1 build/bench/bench_slo_capacity
  pinned -q POLAR_SWEEP_THREADS=4 build/bench/bench_slo_capacity
  pinned POLAR_WORLD_THREADS=4 build/bench/bench_slo_capacity
  echo "==> OK (slo mode)"
  exit 0
fi

if [[ "${1:-}" == "--fabric" ]]; then
  echo "==> fabric: ASan+UBSan build of the fabric suite"
  sanitized fabric_test
  echo "==> fabric: quick-scale multi-switch bit-identity gate"
  # The bench runs its 2-switch reference point serial and epoch-parallel
  # (threads 1/2/4 must agree internally) and checks the absolute serial
  # and epoch lane_steps against the manifest.
  pinned build/bench/bench_fabric_topology
  echo "==> OK (fabric mode)"
  exit 0
fi

if [[ "${1:-}" == "--scale" ]]; then
  echo "==> scale: scheduler wheel-vs-heap equivalence suite"
  build/tests/scheduler_test
  echo "==> scale: 64-instance quick pair (serial vs epoch pins + ops ceiling)"
  # Pins the 64-instance lane_steps for both execution modes and fails if
  # per-step scheduler work regresses toward O(log n).
  pinned build/bench/bench_sim_throughput scale
  echo "==> OK (scale mode)"
  exit 0
fi

echo "==> sanitizer: ASan+UBSan build of sim core + determinism tests"
sanitized sim_test sweep_runner_test determinism_test

echo "==> OK"
