// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Repository benchmark driver. Runs one named workload through the public
// harness entry points (RunPooling, RunOpenLoop/FindSloCapacity, RunSharing,
// RunRecoveryExperiment), times set-up and the measured phase on the host,
// checks the simulated outputs, and prints one JSON object of raw values on
// stdout. perfbench/run.py builds this program, maps the values onto the
// benchmark's metric catalog and prints the result line.
//
//   perfbench_driver --workload pool_read --seed 3 --seconds 8
//                    [--smoke] [--trace-out spans.json]
//
// Every number is read from outside the simulator: spans recorded here
// around each driver call, RSS sampled around those calls, counters from
// the drivers' public result structs, and — in a -DPOLAR_PROF=ON build —
// the scope profiler's per-domain self times over the measured phase.
//
// Every host time is CPU time of this process (all threads), on every
// workload: it leaves out the time the host gives to other guests, which
// wall time would count.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/prof.h"
#include "common/simd.h"
#include "harness/instance_driver.h"
#include "harness/recovery_driver.h"
#include "harness/sharing_driver.h"
#include "harness/traffic_driver.h"
#include "harness/world_builder.h"

namespace polarcxl::perfbench {
namespace {

using harness::CapacityPoint;
using harness::CapacitySearch;
using harness::OpenLoopConfig;
using harness::OpenLoopResult;
using harness::PoolingConfig;
using harness::PoolingResult;
using harness::RecoveryConfig;
using harness::RecoveryResult;
using harness::SharingConfig;
using harness::SharingResult;
using harness::WorldCache;

// ---------------------------------------------------------------------------
// Host measurement helpers
// ---------------------------------------------------------------------------

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process, every thread included. A serial
/// driver call's CPU time is its thread's; an epoch-parallel one adds the
/// world threads', barrier spins included.
double CpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resident set size right now, from /proc/self/statm.
double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set size of this process so far.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

/// Host-time estimate over a run's repetitions of identical simulated work:
/// the fastest one. On a shared host, interference only ever adds time, and
/// it comes in bursts of seconds that move a process's median by 10-20 %
/// and more, while its fastest repetition stays put.
double HostTime(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// SplitMix64 finalizer: turns the command-line seed into well-separated
/// per-purpose seeds (the drivers derive per-lane seeds by small offsets,
/// so consecutive raw seeds would share most lane streams).
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFULL;
}

// ---------------------------------------------------------------------------
// Spans: one per driver call, kept in memory, written when the run ends
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;  // wall clock, for the trace's timeline
    double end = 0;
    double cpu_start = 0;  // process CPU clock, for the metrics
    double cpu_end = 0;
    int parent = -1;
  };

  /// RAII span; nested spans record their enclosing span as parent.
  class Scoped {
   public:
    Scoped(SpanLog* log, std::string name) : log_(log) {
      id_ = static_cast<int>(log_->spans_.size());
      log_->spans_.push_back(
          {std::move(name), NowSec(), 0, CpuSec(), 0, log_->open_});
      log_->open_ = id_;
    }
    ~Scoped() { Close(); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    /// Ends the span early and returns its process CPU seconds.
    double Close() {
      Span& s = log_->spans_[id_];
      if (s.end == 0) {
        s.cpu_end = CpuSec();
        s.end = NowSec();
        log_->open_ = s.parent;
      }
      return s.cpu_end - s.cpu_start;
    }

   private:
    SpanLog* log_;
    int id_ = 0;
  };

  /// Chrome trace-event JSON (viewable in chrome://tracing or Perfetto).
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"cpu_us\": %.3f}}%s\n",
                   s.name.c_str(), (s.start - origin) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent,
                   (s.cpu_end - s.cpu_start) * 1e6,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// Scope-profiler samples (all zero unless built with POLAR_PROF)
// ---------------------------------------------------------------------------

struct ProfSample {
  double self_sec[prof::kNumDomains] = {};
};

ProfSample ProfNow() {
  ProfSample s;
  const std::vector<prof::DomainTotals> totals = prof::Collect();
  for (size_t d = 0; d < totals.size() && d < prof::kNumDomains; d++) {
    s.self_sec[d] = totals[d].self_sec;
  }
  return s;
}

ProfSample ProfDelta(const ProfSample& a, const ProfSample& b) {
  ProfSample d;
  for (int i = 0; i < prof::kNumDomains; i++) {
    d.self_sec[i] = b.self_sec[i] - a.self_sec[i];
  }
  return d;
}

// ---------------------------------------------------------------------------
// Report: raw values, output checks, operation counts
// ---------------------------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Samples(const std::string& name, std::vector<double> v) {
    samples_[name] = std::move(v);
  }
  void Info(const std::string& name, const std::string& value) {
    info_[name] = value;
  }
  void Attempt(uint64_t ops) { attempted_ += ops; }
  /// Records one output check; a failed check counts the ops it covered
  /// (at least one) as failed.
  void Check(const std::string& name, bool ok, uint64_t ops,
             const std::string& detail = "") {
    checks_run_++;
    if (ok) return;
    failed_ += std::max<uint64_t>(ops, 1);
    failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
  }
  /// Adds operations the system itself reported as failed.
  void FailOps(uint64_t ops) { failed_ += ops; }

  /// Accumulates measured-phase profiler self time over `ops` simulated
  /// ops and `cpu_sec` process CPU seconds.
  void AddProf(const ProfSample& self, uint64_t ops, double cpu_sec) {
    for (int d = 0; d < prof::kNumDomains; d++) {
      prof_self_[d] += self.self_sec[d];
    }
    prof_ops_ += ops;
    prof_cpu_sec_ += cpu_sec;
  }

  void Print(FILE* out) {
    if (prof::kEnabled && prof_ops_ > 0) {
      double scoped = 0;
      for (int d = 0; d < prof::kNumDomains; d++) {
        scoped += prof_self_[d];
        Set(std::string("prof.") + prof::kDomainNames[d] + "_ns_per_op",
            prof_self_[d] * 1e9 / static_cast<double>(prof_ops_));
      }
      Set("prof.unscoped_ns_per_op", (prof_cpu_sec_ - scoped) * 1e9 /
                                         static_cast<double>(prof_ops_));
    }
    for (auto& [name, v] : values_) {
      if (std::isfinite(v)) continue;
      Check("value " + name + " is finite", false, 0);
      v = 0;
    }
    std::fprintf(out, "{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                      ", \"checks\": %" PRIu64 ",\n",
                 attempted_, failed_, checks_run_);
    std::fprintf(out, " \"failures\": [");
    for (size_t i = 0; i < failures_.size(); i++) {
      std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", failures_[i].c_str());
    }
    std::fprintf(out, "],\n \"info\": {");
    bool first = true;
    for (const auto& [k, v] : info_) {
      std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                   v.c_str());
      first = false;
    }
    std::fprintf(out, "},\n \"values\": {");
    first = true;
    for (const auto& [k, v] : values_) {
      std::fprintf(out, "%s\n  \"%s\": %.17g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::fprintf(out, "\n },\n \"samples\": {");
    first = true;
    for (const auto& [k, v] : samples_) {
      std::fprintf(out, "%s\n  \"%s\": [", first ? "" : ",", k.c_str());
      for (size_t i = 0; i < v.size(); i++) {
        std::fprintf(out, "%s%.17g", i == 0 ? "" : ", ", v[i]);
      }
      std::fprintf(out, "]");
      first = false;
    }
    std::fprintf(out, "\n }}\n");
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_run_ = 0;
  double prof_self_[prof::kNumDomains] = {};
  uint64_t prof_ops_ = 0;
  double prof_cpu_sec_ = 0;
};

// ---------------------------------------------------------------------------
// Simulated-output fingerprints (bit-identity checks)
// ---------------------------------------------------------------------------

/// Exact text image of a latency histogram: count, extremes, sum and a
/// ladder of interpolated percentiles.
std::string HistFp(const Histogram& h) {
  char buf[96];
  std::string s;
  std::snprintf(buf, sizeof(buf), "n=%" PRIu64 " min=%" PRId64 " max=%" PRId64
                " mean=%.17g",
                h.count(), h.min(), h.max(), h.Mean());
  s += buf;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99}) {
    std::snprintf(buf, sizeof(buf), " p%g=%" PRId64, p, h.Percentile(p));
    s += buf;
  }
  return s;
}

std::string Fp(const PoolingResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "steps=%" PRIu64 " mstep=%" PRIu64 " q=%" PRIu64 " ev=%" PRIu64
                " qps=%.17g cxl=%.17g end=%" PRId64 " ",
                r.lane_steps, r.measure_steps, r.metrics.queries,
                r.metrics.events, r.metrics.Qps(), r.cxl_gbps, r.virtual_end);
  return buf + HistFp(r.metrics.latency);
}

std::string Fp(const OpenLoopResult& r) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "steps=%" PRIu64 " off=%" PRIu64 " adm=%" PRIu64 " shq=%" PRIu64
                " shd=%" PRIu64 " ok=%" PRIu64 " slo=%" PRIu64 " fail=%" PRIu64
                " good=%.17g ",
                r.lane_steps, r.offered, r.admitted, r.shed_queue,
                r.shed_deadline, r.ok_ops, r.ok_in_slo, r.failed_ops,
                r.goodput);
  return buf + HistFp(r.latency) + " qw:" + HistFp(r.queue_wait);
}

std::string Fp(const SharingResult& r) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "q=%" PRIu64 " ev=%" PRIu64 " qps=%.17g lw=%" PRIu64
                " lwt=%" PRId64 " inv=%" PRIu64 " sync=%" PRIu64 " ",
                r.metrics.queries, r.metrics.events, r.metrics.Qps(),
                r.lock_waits, r.total_lock_wait, r.invalidations,
                r.sync_lines);
  return buf + HistFp(r.metrics.latency);
}

uint64_t SeriesTotal(const TimeSeries& ts) {
  uint64_t total = 0;
  for (size_t b = 0; b < ts.num_buckets(); b++) total += ts.bucket(b);
  return total;
}

std::string Fp(const RecoveryResult& r) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "crash=%" PRId64 " serve=%" PRId64 " warm=%" PRId64
                " pre=%.17g blk=%" PRIu64 " rep=%" PRIu64 " app=%" PRIu64
                " dur=%" PRId64 " q:",
                r.crash_at, r.serving_at, r.warmed_at, r.pre_crash_qps,
                r.polar.blocks_scanned, r.polar.pages_repaired,
                r.polar.records_applied, r.polar.duration);
  std::string s = buf;
  for (size_t b = 0; b < r.qps.num_buckets(); b++) {
    s += ' ' + std::to_string(r.qps.bucket(b));
  }
  return s;
}

/// FNV-1a digest of a fingerprint, for cross-run comparison in run.py.
double Digest(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return static_cast<double>(h >> 12);  // exact in a double
}

void CheckSame(Report& rep, const char* name, const std::string& want,
               const std::string& got, uint64_t ops) {
  rep.Check(name, want == got, ops,
            want == got ? "" : "want {" + want + "} got {" + got + "}");
}

double Us(Nanos ns) { return static_cast<double>(ns) / 1e3; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5;
  bool smoke = false;  // tiny worlds and windows, for the self-tests
  std::string trace_out;
};

/// Lower bound on measured repetitions regardless of --seconds (forks of a
/// snapshot; whole cold driver calls).
constexpr int kMinMeasuredReps = 3;
constexpr int kMinColdReps = 2;

uint32_t HostCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs `rep` until `seconds` of wall time have passed and at least
/// `min_reps` repetitions are done.
void Repeat(double seconds, int min_reps, const std::function<void()>& rep) {
  const double start = NowSec();
  for (int n = 0; n < min_reps || NowSec() - start < seconds; n++) rep();
}

// ---- pool_read: CXL memory pooling, closed loop, epoch-parallel ----------

void RunPoolRead(const Options& o, Report& rep, SpanLog& spans) {
  const uint32_t threads = std::min<uint32_t>(4, HostCpus());
  PoolingConfig cfg = harness::Fig7PoolingConfig(engine::BufferPoolKind::kCxl);
  cfg.instances = o.smoke ? 2 : 16;
  cfg.lanes_per_instance = 8;
  cfg.warmup = o.smoke ? Millis(2) : Millis(50);
  cfg.measure = o.smoke ? Millis(1) : Millis(25);
  cfg.seed = MixSeed(o.seed, 1);
  cfg.world_threads = static_cast<int>(threads);
  rep.Info("world_threads", std::to_string(threads));
  rep.Info("shape", std::to_string(cfg.instances) + " CXL instances x " +
                        std::to_string(cfg.lanes_per_instance) +
                        " lanes, sysbench point-select, 4 tables x 8000 rows "
                        "per instance, 2 MB LLC share");

  // Traced runs first build one world without a snapshot: its RSS growth
  // is the world alone, and the cached worlds below add the snapshot.
  const double rss_base = RssMb();
  double world_mb = 0;
  if (prof::kEnabled) {
    SpanLog::Scoped span(&spans, "RunPooling cold, no snapshot");
    const PoolingResult r = harness::RunPooling(cfg);
    rep.Attempt(r.metrics.queries);
    world_mb = PeakRssMb() - rss_base;
  }

  // One cold build per process (it takes seconds); run.py takes the median
  // of setup_s over its processes, and checks they all agree on the outputs.
  WorldCache cache;
  PoolingResult ref;
  double cold_run_s = 0;
  {
    SpanLog::Scoped span(&spans, "RunPooling cold");
    ref = harness::RunPooling(cfg, &cache);
    cold_run_s = span.Close();
  }
  rep.Attempt(ref.metrics.queries);
  const std::string ref_fp = Fp(ref);
  if (prof::kEnabled) {
    rep.Set("harness.world_mb", world_mb);
    rep.Set("harness.snapshot_mb", RssMb() - rss_base - world_mb);
  }

  // Measured phase: forks. A fork's measured phase is its process CPU less
  // the driver's own split of the restore before the window
  // (setup_wall_sec): the restore runs serially on this thread, so that
  // thread-CPU split is on the same clock. The cold call ran the same
  // measured phase, so its set-up is the cold call less the fastest fork's.
  std::vector<double> us_per_op, measured_s, fork_s;
  uint64_t ops = 0;
  const ProfSample p0 = ProfNow();
  Repeat(o.seconds, o.smoke ? 1 : kMinMeasuredReps, [&] {
    SpanLog::Scoped span(&spans, "RunPooling fork");
    const PoolingResult res = harness::RunPooling(cfg, &cache);
    const double measured = span.Close() - res.setup_wall_sec;
    rep.Attempt(res.metrics.queries);
    CheckSame(rep, "forked run equals cold run", ref_fp, Fp(res),
              res.metrics.queries);
    rep.Check("fork served from snapshot", res.snapshot_hit, 0);
    us_per_op.push_back(measured * 1e6 /
                        static_cast<double>(res.metrics.queries));
    measured_s.push_back(measured);
    fork_s.push_back(res.setup_wall_sec);
    ops += res.metrics.queries;
  });
  const double measure_sec = Sum(measured_s);
  rep.AddProf(ProfDelta(p0, ProfNow()), ops, measure_sec);
  const double setup_s = cold_run_s - HostTime(measured_s);

  if (threads > 1) {
    PoolingConfig one = cfg;
    one.world_threads = 1;
    SpanLog::Scoped span(&spans, "RunPooling fork, 1 world thread");
    const PoolingResult res = harness::RunPooling(one, &cache);
    rep.Attempt(res.metrics.queries);
    CheckSame(rep, "1 world thread equals N", ref_fp, Fp(res),
              res.metrics.queries);
  }
  rep.Check("queries completed", ref.metrics.queries > 0 &&
                                     ref.metrics.queries == ref.metrics.events,
            0);

  const double q = static_cast<double>(ref.metrics.queries);
  const double steps = static_cast<double>(ref.measure_steps);
  rep.Set("setup_s", setup_s);
  rep.Set("host_us_per_op", HostTime(us_per_op));
  rep.Samples("host_us_per_op", us_per_op);
  rep.Samples("setup_s", {setup_s});
  rep.Set("qps", ref.metrics.Qps());
  rep.Set("p50_us", Us(ref.metrics.latency.Percentile(50)));
  rep.Set("p99_us", Us(ref.metrics.latency.Percentile(99)));
  rep.Set("error_rate", 0);
  rep.Set("lane_steps", static_cast<double>(ref.lane_steps));
  rep.Set("sim_digest", Digest(ref_fp));
  rep.Set("harness.cold_run_s", cold_run_s);
  rep.Set("harness.fork_s", HostTime(fork_s));
  rep.Set("sim.steps_per_op", steps / q);
  rep.Set("sim.sched_ops_per_step", static_cast<double>(ref.sched_ops) / steps);
  rep.Set("sim.window_adv_per_step",
          static_cast<double>(ref.window_advances) / steps);
  rep.Set("sim.host_us_per_epoch",
          ref.epochs == 0 ? 0
                          : measure_sec * 1e6 /
                                static_cast<double>(ref.epochs *
                                                    us_per_op.size()));
  rep.Set("sim.epochs_per_op", static_cast<double>(ref.epochs) / q);
  rep.Set("sim.drain_divergence_frac",
          static_cast<double>(ref.drain_divergence) / steps);
  const double lines =
      static_cast<double>(ref.line_hits) + static_cast<double>(ref.line_misses);
  rep.Set("sim.cache_line_hit_rate",
          lines == 0 ? 0 : static_cast<double>(ref.line_hits) / lines);
  const harness::TimeBreakdown& b = ref.breakdown;
  rep.Set("sim.vt_mem_frac", b.Pct(b.mem));
  rep.Set("sim.vt_io_frac", b.Pct(b.io));
  rep.Set("sim.vt_net_frac", b.Pct(b.net));
  rep.Set("sim.vt_lock_frac", b.Pct(b.lock));
  rep.Set("sim.vt_cpu_frac", b.Pct(b.Cpu()));
  rep.Set("cxl.port_gbps", ref.cxl_gbps);
  rep.Set("bufferpool.local_dram_mb",
          static_cast<double>(ref.local_dram_bytes) / (1024.0 * 1024.0));
}

// ---- slo_rdma: tiered-RDMA instance under open-loop arrivals -------------

void CheckOpenLoopAccounting(Report& rep, const OpenLoopResult& r) {
  rep.Check("offered = admitted + shed_queue",
            r.offered == r.admitted + r.shed_queue, r.offered);
  rep.Check("admitted >= ok + failed + shed_deadline",
            r.admitted >= r.ok_ops + r.failed_ops + r.shed_deadline,
            r.offered);
  rep.FailOps(r.failed_ops);  // fault-free: any client-visible error fails
}

void RunSloRdma(const Options& o, Report& rep, SpanLog& spans) {
  OpenLoopConfig cfg;
  cfg.kind = engine::BufferPoolKind::kTieredRdma;
  cfg.instances = 1;
  cfg.lanes_per_instance = 8;
  cfg.sysbench.tables = 4;
  cfg.sysbench.rows_per_table = o.smoke ? 2000 : 8000;
  cfg.lbp_fraction = 0.3;
  cfg.warmup = o.smoke ? Millis(5) : Millis(50);
  cfg.measure = o.smoke ? Millis(5) : Millis(100);
  cfg.bucket = Millis(10);
  cfg.checkpoint_interval = Millis(40);
  cfg.slo_latency = Micros(900);
  cfg.gold_deadline = Millis(2);
  cfg.best_effort_deadline = Millis(2);
  cfg.admission.gold_cap = 256;
  cfg.admission.best_effort_cap = 128;
  cfg.verbs_retry_budget = Millis(1);
  cfg.seed = MixSeed(o.seed, 2);
  cfg.arrival_seed = MixSeed(o.seed, 3);
  cfg.world_threads = 0;  // serial executor: this workload bypasses epochs
  harness::TenantSpec gold;
  gold.name = "gold";
  gold.qos = harness::QosClass::kGold;
  gold.arrivals.rate_per_sec = 120'000;
  gold.write_fraction = 0.25;
  harness::TenantSpec be;
  be.name = "be";
  be.qos = harness::QosClass::kBestEffort;
  be.arrivals.kind = harness::ArrivalKind::kBurstyOnOff;
  be.arrivals.rate_per_sec = 120'000;
  be.arrivals.on_period = Millis(20);
  be.arrivals.off_period = Millis(20);
  be.arrivals.off_factor = 0.1;
  be.write_fraction = 0.25;
  cfg.tenants = {gold, be};
  rep.Info("world_threads", "0");
  rep.Info("shape",
           "1 tiered-RDMA instance x 8 server lanes, gold Poisson 120k/s + "
           "bursty best-effort 120k/s, 25% updates, LBP 30% of 4 x " +
               std::to_string(cfg.sysbench.rows_per_table) + " rows");

  const double rss_base = RssMb();
  double world_mb = 0;
  if (prof::kEnabled) {
    SpanLog::Scoped span(&spans, "RunOpenLoop cold, no snapshot");
    const OpenLoopResult r = harness::RunOpenLoop(cfg);
    rep.Attempt(r.offered);
    CheckOpenLoopAccounting(rep, r);
    world_mb = PeakRssMb() - rss_base;
  }

  // The executor runs serially here, so the driver's own thread-CPU split
  // of a call (setup_wall_sec: build or restore, warm-up, schedules) is the
  // process's CPU time for that part. Set-up is a cold call's split; a
  // fork's measured phase is the rest of the call. Each round builds a
  // fresh world cold and forks its snapshot once at the nominal rate, so
  // set-up and measured samples both span the whole run: the host's speed
  // drifts over seconds.
  std::unique_ptr<WorldCache> cache;
  std::vector<double> setup_s, cold_run_s, us_per_op, fork_s;
  OpenLoopResult ref;
  std::string ref_fp;
  Repeat(o.seconds, o.smoke ? 1 : kMinMeasuredReps, [&] {
    cache.reset();
    cache = std::make_unique<WorldCache>();
    {
      SpanLog::Scoped span(&spans, "RunOpenLoop cold");
      const OpenLoopResult res = harness::RunOpenLoop(cfg, cache.get());
      cold_run_s.push_back(span.Close());
      setup_s.push_back(res.setup_wall_sec);
      rep.Attempt(res.offered);
      CheckOpenLoopAccounting(rep, res);
      if (setup_s.size() == 1) {
        ref = res;
        ref_fp = Fp(res);
        if (prof::kEnabled) {
          rep.Set("harness.world_mb", world_mb);
          rep.Set("harness.snapshot_mb", RssMb() - rss_base - world_mb);
        }
      } else {
        CheckSame(rep, "cold run repeats", ref_fp, Fp(res), res.offered);
      }
    }
    const ProfSample p0 = ProfNow();
    SpanLog::Scoped span(&spans, "RunOpenLoop fork");
    const OpenLoopResult res = harness::RunOpenLoop(cfg, cache.get());
    const double measured = span.Close() - res.setup_wall_sec;
    rep.AddProf(ProfDelta(p0, ProfNow()), res.offered, measured);
    rep.Attempt(res.offered);
    CheckOpenLoopAccounting(rep, res);
    CheckSame(rep, "forked run equals cold run", ref_fp, Fp(res),
              res.offered);
    us_per_op.push_back(measured * 1e6 / static_cast<double>(res.offered));
    fork_s.push_back(res.setup_wall_sec);
  });

  OpenLoopResult overload;
  {
    SpanLog::Scoped span(&spans, "RunOpenLoop fork, 2x rate");
    overload = harness::RunOpenLoop(harness::ScaleArrivals(cfg, 2.0),
                                    cache.get());
    rep.Attempt(overload.offered);
    CheckOpenLoopAccounting(rep, overload);
  }
  std::vector<CapacityPoint> trace;
  CapacityPoint cap;
  {
    SpanLog::Scoped span(&spans, "FindSloCapacity");
    CapacitySearch search;
    search.lo_scale = 0.5;
    search.hi_scale = 4.0;
    search.iters = o.smoke ? 1 : 4;
    cap = harness::FindSloCapacity(cfg, search, cache.get(), &trace);
  }
  for (const CapacityPoint& p : trace) {
    rep.Attempt(p.result.offered);
    CheckOpenLoopAccounting(rep, p.result);
  }

  const double offered = static_cast<double>(ref.offered);
  const double window_s = static_cast<double>(ref.window) / kNanosPerSec;
  rep.Set("setup_s", HostTime(setup_s));
  rep.Set("host_us_per_op", HostTime(us_per_op));
  rep.Samples("host_us_per_op", us_per_op);
  rep.Samples("setup_s", setup_s);
  rep.Set("qps", static_cast<double>(ref.ok_ops) / window_s);
  rep.Set("p50_us", Us(ref.latency.Percentile(50)));
  rep.Set("p99_us", Us(ref.p99));
  rep.Set("goodput", ref.goodput);
  rep.Set("overload_goodput", overload.goodput);
  rep.Set("capacity_ops_s", cap.offered_rate);
  rep.Set("error_rate", static_cast<double>(ref.shed_queue + ref.shed_deadline +
                                            ref.failed_ops) /
                            offered);
  rep.Set("overload_error_rate",
          static_cast<double>(overload.shed_queue + overload.shed_deadline +
                              overload.failed_ops) /
              static_cast<double>(overload.offered));
  rep.Set("lane_steps", static_cast<double>(ref.lane_steps));
  rep.Set("sim_digest", Digest(ref_fp));
  rep.Set("harness.cold_run_s", HostTime(cold_run_s));
  rep.Set("harness.fork_s", HostTime(fork_s));
  rep.Set("harness.queue_wait_p50_us", Us(overload.queue_wait.Percentile(50)));
  rep.Set("harness.queue_wait_p99_us", Us(overload.queue_wait.Percentile(99)));
  rep.Set("harness.shed_frac",
          static_cast<double>(overload.shed_queue + overload.shed_deadline) /
              static_cast<double>(overload.offered));
  rep.Set("harness.retried_frac", static_cast<double>(overload.retried_ops) /
                                      static_cast<double>(overload.offered));
  rep.Set("sim.steps_per_op", static_cast<double>(ref.lane_steps) / offered);
  rep.Set("sim.drain_divergence_frac", 0);
}

// ---- mp_share: multi-primary sharing over CXL ---------------------------

void RunMpShare(const Options& o, Report& rep, SpanLog& spans) {
  SharingConfig cfg;
  cfg.mode = harness::SharingMode::kCxl;
  cfg.nodes = o.smoke ? 2 : 8;
  cfg.lanes_per_node = 8;
  cfg.sysbench.tables = 1;
  cfg.sysbench.rows_per_table = o.smoke ? 1000 : 5000;
  cfg.sysbench.num_nodes = cfg.nodes;
  cfg.sysbench.shared_fraction = 0.4;
  cfg.op = workload::SysbenchOp::kReadWrite;
  cfg.warmup = o.smoke ? Millis(5) : Millis(20);
  cfg.measure = o.smoke ? Millis(20) : Millis(300);
  cfg.seed = MixSeed(o.seed, 4);
  rep.Info("world_threads", "0");
  rep.Info("shape", std::to_string(cfg.nodes) +
                        " multi-primary nodes x 8 lanes, sysbench read-write, "
                        "40% of queries on the shared group, 1 x " +
                        std::to_string(cfg.sysbench.rows_per_table) +
                        " rows per group");

  // RunSharing has no snapshot: every call builds its world cold. Set-up
  // is timed by calls with a near-empty window; the measured phase is whole
  // calls, so host_us_per_op here includes set-up (subtracting a separately
  // timed set-up only adds its noise). The two kinds of call alternate, so
  // both minima sample the whole run: the host's speed drifts over seconds.
  SharingConfig setup_cfg = cfg;
  setup_cfg.measure = Micros(1);
  const double rss_base = RssMb();
  std::vector<double> setup_s, us_per_op, run_s;
  SharingResult ref;
  std::string ref_fp;
  Repeat(o.seconds, o.smoke ? 1 : kMinColdReps, [&] {
    {
      SpanLog::Scoped span(&spans, "RunSharing set-up only");
      const SharingResult res = harness::RunSharing(setup_cfg);
      setup_s.push_back(span.Close());
      rep.Attempt(res.metrics.queries);
    }
    if (setup_s.size() == 1) {
      rep.Set("harness.world_mb", PeakRssMb() - rss_base);
    }
    const ProfSample p0 = ProfNow();
    SpanLog::Scoped span(&spans, "RunSharing");
    const SharingResult res = harness::RunSharing(cfg);
    const double dt = span.Close();
    rep.AddProf(ProfDelta(p0, ProfNow()), res.metrics.queries, dt);
    rep.Attempt(res.metrics.queries);
    if (run_s.empty()) {
      ref = res;
      ref_fp = Fp(res);
    } else {
      CheckSame(rep, "cold run repeats", ref_fp, Fp(res), res.metrics.queries);
    }
    run_s.push_back(dt);
    us_per_op.push_back(dt * 1e6 / static_cast<double>(res.metrics.queries));
  });
  rep.Check("queries completed", ref.metrics.queries > 0, 0);

  const double txns = static_cast<double>(ref.metrics.events);
  rep.Set("setup_s", HostTime(setup_s));
  rep.Set("host_us_per_op", HostTime(us_per_op));
  rep.Samples("host_us_per_op", us_per_op);
  rep.Samples("setup_s", setup_s);
  rep.Set("qps", ref.metrics.Qps());
  rep.Set("p50_us", Us(ref.metrics.latency.Percentile(50)));
  rep.Set("p99_us", Us(ref.metrics.latency.Percentile(99)));
  rep.Set("error_rate", 0);
  rep.Set("sim_digest", Digest(ref_fp));
  rep.Set("harness.cold_run_s", HostTime(run_s));
  rep.Set("sharing.lock_waits_per_txn",
          static_cast<double>(ref.lock_waits) / txns);
  rep.Set("sharing.lock_wait_us_per_txn", Us(ref.total_lock_wait) / txns);
  rep.Set("sharing.invalidations_per_txn",
          static_cast<double>(ref.invalidations) / txns);
  rep.Set("sharing.sync_lines_per_txn",
          static_cast<double>(ref.sync_lines) / txns);
  const harness::TimeBreakdown& b = ref.breakdown;
  rep.Set("sim.vt_mem_frac", b.Pct(b.mem));
  rep.Set("sim.vt_io_frac", b.Pct(b.io));
  rep.Set("sim.vt_net_frac", b.Pct(b.net));
  rep.Set("sim.vt_lock_frac", b.Pct(b.lock));
  rep.Set("sim.vt_cpu_frac", b.Pct(b.Cpu()));
  rep.Set("bufferpool.local_dram_mb",
          static_cast<double>(ref.local_dram_bytes) / (1024.0 * 1024.0));
}

// ---- crash_recover: PolarRecv instant recovery ---------------------------

void RunCrashRecover(const Options& o, Report& rep, SpanLog& spans) {
  RecoveryConfig cfg;
  cfg.scheme = harness::RecoveryScheme::kPolarRecv;
  cfg.op = workload::SysbenchOp::kReadWrite;
  cfg.sysbench.tables = 4;
  cfg.sysbench.rows_per_table = o.smoke ? 2000 : 10000;
  cfg.lanes = 16;
  cfg.crash_at = o.smoke ? Millis(40) : Millis(200);
  cfg.total = o.smoke ? Millis(200) : Millis(500);
  cfg.bucket = Millis(10);
  cfg.checkpoint_interval = Millis(100);
  cfg.process_restart = Millis(100);
  cfg.pace_interval = Micros(400);
  cfg.cpu_cache_bytes = 2ULL << 20;
  cfg.seed = MixSeed(o.seed, 5);
  rep.Info("world_threads", "0");
  rep.Info("shape", "1 CXL instance x 16 paced lanes, sysbench read-write, "
                    "4 x " + std::to_string(cfg.sysbench.rows_per_table) +
                        " rows, crash mid-run, PolarRecv, resume");

  // Like RunSharing, every call builds cold, and the measured phase is whole
  // calls. A call whose timeline ends right after the crash times set-up
  // (build, load, one small recovery). The two kinds of call alternate.
  RecoveryConfig setup_cfg = cfg;
  setup_cfg.crash_at = 2 * cfg.bucket;
  setup_cfg.total = setup_cfg.crash_at + cfg.process_restart + cfg.bucket;
  const double rss_base = RssMb();
  std::vector<double> setup_s, us_per_op, run_s;
  RecoveryResult ref;
  std::string ref_fp;
  Repeat(o.seconds, o.smoke ? 1 : kMinColdReps, [&] {
    {
      SpanLog::Scoped span(&spans, "RunRecoveryExperiment set-up only");
      const RecoveryResult res = harness::RunRecoveryExperiment(setup_cfg);
      setup_s.push_back(span.Close());
      rep.Attempt(SeriesTotal(res.qps));
    }
    if (setup_s.size() == 1) {
      rep.Set("harness.world_mb", PeakRssMb() - rss_base);
    }
    const ProfSample p0 = ProfNow();
    SpanLog::Scoped span(&spans, "RunRecoveryExperiment");
    const RecoveryResult res = harness::RunRecoveryExperiment(cfg);
    const double dt = span.Close();
    const uint64_t q = SeriesTotal(res.qps);
    rep.AddProf(ProfDelta(p0, ProfNow()), q, dt);
    rep.Attempt(q);
    rep.Check("crash_at < serving_at <= warmed_at",
              res.crash_at < res.serving_at && res.serving_at <= res.warmed_at,
              q);
    if (run_s.empty()) {
      ref = res;
      ref_fp = Fp(res);
    } else {
      CheckSame(rep, "cold run repeats", ref_fp, Fp(res), q);
    }
    run_s.push_back(dt);
    us_per_op.push_back(dt * 1e6 / static_cast<double>(q));
  });
  rep.Check("rewarmed before the run ended", ref.warmed_at < cfg.total, 0);

  const double total_s = static_cast<double>(cfg.total) / kNanosPerSec;
  rep.Set("setup_s", HostTime(setup_s));
  rep.Set("host_us_per_op", HostTime(us_per_op));
  rep.Samples("host_us_per_op", us_per_op);
  rep.Samples("setup_s", setup_s);
  rep.Set("qps", static_cast<double>(SeriesTotal(ref.qps)) / total_s);
  rep.Set("pre_crash_qps", ref.pre_crash_qps);
  rep.Set("recovery_s",
          static_cast<double>(ref.serving_at - ref.crash_at) / kNanosPerSec);
  rep.Set("rewarm_s",
          static_cast<double>(ref.warmed_at - ref.crash_at) / kNanosPerSec);
  rep.Set("error_rate", 0);
  rep.Set("sim_digest", Digest(ref_fp));
  rep.Set("harness.cold_run_s", HostTime(run_s));
  rep.Set("recovery.blocks_scanned",
          static_cast<double>(ref.polar.blocks_scanned));
  rep.Set("recovery.pages_repaired",
          static_cast<double>(ref.polar.pages_repaired));
  rep.Set("recovery.records_applied",
          static_cast<double>(ref.polar.records_applied));
  rep.Set("recovery.replay_s",
          static_cast<double>(ref.polar.duration) / kNanosPerSec);
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "{pool_read|slo_rdma|mp_share|crash_recover} [--seed N] "
               "[--seconds S] [--smoke] [--trace-out FILE]\n");
  return 2;
}

const char* SimdLevel() {
  if (POLAR_SIMD_AVX2) return "avx2";
  if (POLAR_SIMD_SSE41) return "sse4.1";
  return "scalar";
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return Usage();
    }
  }
  using Fn = void (*)(const Options&, Report&, SpanLog&);
  const std::map<std::string, Fn> workloads = {
      {"pool_read", RunPoolRead},
      {"slo_rdma", RunSloRdma},
      {"mp_share", RunMpShare},
      {"crash_recover", RunCrashRecover},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) return Usage();

  Report rep;
  rep.Info("workload", o.workload);
  rep.Info("seed", std::to_string(o.seed));
  rep.Info("host_cpus", std::to_string(HostCpus()));
  rep.Info("simd", SimdLevel());
  rep.Info("build_type", PERFBENCH_BUILD_TYPE);
  rep.Info("lto", PERFBENCH_LTO ? "on" : "off");
  rep.Info("polar_prof", prof::kEnabled ? "on" : "off");
  rep.Info("compiler", PERFBENCH_COMPILER);

  SpanLog spans;
  {
    SpanLog::Scoped run(&spans, "workload " + o.workload);
    it->second(o, rep, spans);
  }
  rep.Set("peak_rss_mb", PeakRssMb());
  rep.Print(stdout);
  if (!o.trace_out.empty() && !spans.Write(o.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace polarcxl::perfbench

int main(int argc, char** argv) {
  return polarcxl::perfbench::Main(argc, argv);
}
