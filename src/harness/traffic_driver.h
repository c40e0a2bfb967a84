// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Traffic driver of the fault-wired SimWorld: per-tenant arrival schedules
// (open_loop.h) feeding bounded admission queues in front of SimWorld
// database instances, with deadline-based load shedding, bounded op
// retries, and goodput accounting under a p99 SLO. A FaultPlan arms for the
// measurement window, so "Black-Friday peak + CXL outage" is one config.
// With no tenants the run is closed-loop: every server lane issues the
// sysbench point-op mix back to back through the window, and the result is
// the ok/failed throughput timeline under the plan (the fault-resilience
// run). Used by bench_slo_capacity, bench_fig14_fault_resilience and the
// open-loop, fault, snapshot and parallel-world tests.
//
// Determinism contract: RunOpenLoop is a pure function of its config —
// bit-identical timelines, histograms and lane_steps for any
// POLAR_SWEEP_THREADS and POLAR_WORLD_THREADS value. Arrival schedules are
// counter-mode (open_loop.h); all mutable accounting is owned per tenant or
// per instance and merged in deterministic order after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "engine/database.h"
#include "faults/fault_injector.h"
#include "harness/open_loop.h"
#include "harness/world_builder.h"
#include "workload/sysbench.h"

namespace polarcxl::harness {

/// One tenant: a named arrival process routed to one instance under one
/// QoS class. Tenant parameters are per-run (not part of the world key), so
/// a capacity search forks one warmed world across every rate point.
struct TenantSpec {
  std::string name = "tenant";
  QosClass qos = QosClass::kBestEffort;
  ArrivalSpec arrivals;
  /// Fraction of this tenant's ops that are single-column updates (the
  /// rest are point reads).
  double write_fraction = 0.25;
  uint32_t instance = 0;  // which database instance serves this tenant
};

/// An empty `tenants` list makes the run closed-loop: no client lane, no
/// admission queue, and the tenant, admission, deadline, SLO and retry
/// fields go unused.
struct OpenLoopConfig {
  engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
  uint32_t instances = 1;
  /// Server lanes (worker sessions) per instance.
  uint32_t lanes_per_instance = 4;
  workload::SysbenchConfig sysbench;
  std::vector<TenantSpec> tenants;
  AdmissionQueue::Options admission;
  /// Shed an admitted op whose queue wait exceeds its class deadline
  /// instead of serving it late (0 = never shed by deadline). A response
  /// that blows the SLO anyway is pure waste under overload.
  Nanos gold_deadline = Millis(2);
  Nanos best_effort_deadline = Millis(2);
  /// The SLO: an op counts toward goodput iff its client latency (queue
  /// wait + service) is within slo_latency, and the run meets the SLO iff
  /// merged p99 <= slo_latency and the lost fraction (shed + failed over
  /// offered) stays within 5 %.
  Nanos slo_latency = Micros(500);
  /// Update fraction of the closed-loop mix: the warm-up of an open-loop
  /// run (tenant write fractions apply only in its window) and the whole of
  /// a closed-loop run.
  double closed_loop_write_fraction = 0.25;
  double lbp_fraction = 0.3;
  uint64_t cpu_cache_bytes = 4ULL << 20;
  Nanos warmup = Millis(100);
  Nanos measure = Millis(400);
  Nanos bucket = Millis(10);
  /// Virtual think-time a server lane spends after a failed attempt before
  /// retrying or reporting failure (a real client backs off instead of
  /// hammering a dead device). An admitted op gets one retry; its second
  /// failure surfaces to the client as Unavailable.
  Nanos error_backoff = Micros(50);
  /// TieredRdma verbs retry budget (satellite: bounded total backoff,
  /// exhaustion -> Status::Unavailable; 0 = unlimited legacy behavior).
  Nanos verbs_retry_budget = 0;
  /// Periodic checkpoint cadence (0 = never). Without checkpoints every
  /// page stays dirty after load and a CXL outage rejects all reads of
  /// cached pages; with them, clean pages are re-served from storage.
  Nanos checkpoint_interval = Millis(100);
  /// Fault schedule relative to the measurement window start, armed after
  /// warm-up (and after the fork of a cached world).
  faults::FaultPlan plan;
  uint64_t seed = 7;          // warmup / service RNG
  uint64_t arrival_seed = 42; // counter-mode schedule hash key
  /// In-world parallelism, same semantics as PoolingConfig::world_threads.
  /// One instance is one shard group, so a single-instance run replays the
  /// serial timeline exactly at every thread count.
  int world_threads = -1;
};

/// Per-tenant accounting, all in virtual time.
struct TenantStats {
  std::string name;
  QosClass qos = QosClass::kBestEffort;
  uint64_t offered = 0;        // schedule points in the window
  uint64_t admitted = 0;       // passed the admission queue
  uint64_t shed_queue = 0;     // rejected at admission (class queue full)
  uint64_t shed_deadline = 0;  // dropped after queue wait blew the deadline
  uint64_t ok_ops = 0;         // completed successfully in the window
  uint64_t ok_in_slo = 0;      // ... within slo_latency of arrival
  uint64_t failed_ops = 0;     // failed its retry too (client saw an error)
  uint64_t retried_ops = 0;    // individual retry attempts
  Histogram latency;           // arrival -> completion (ok ops)
  Histogram queue_wait;        // arrival -> service start (served ops)
};

/// A closed-loop run (no tenants) fills only the RunStats, ok_ops,
/// failed_ops and the ok/failed timelines: ok_ops and failed_ops count the
/// ops that start at or after the window start and end by its end, the
/// other totals stay zero and slo_met is false.
struct OpenLoopResult : RunStats {
  std::vector<TenantStats> tenants;
  // ---- merged totals (sum over tenants, deterministic order) ----
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue = 0;
  uint64_t shed_deadline = 0;
  uint64_t ok_ops = 0;
  uint64_t ok_in_slo = 0;
  uint64_t failed_ops = 0;
  uint64_t retried_ops = 0;
  Histogram latency;
  Histogram queue_wait;
  Nanos p99 = 0;          // merged client latency p99
  double goodput = 0;     // ok_in_slo per second of window
  double loss_fraction = 0;  // (shed + failed) / offered
  bool slo_met = false;
  // ---- timelines, origin at window start ----
  TimeSeries ok{Millis(10)};
  TimeSeries failed{Millis(10)};
  TimeSeries shed{Millis(10)};
};

/// Runs one experiment end to end: open-loop with tenants, closed-loop
/// without. With a `cache`, the post-warmup world is snapshotted and forked
/// across runs sharing the setup key — tenants, rates, plan, measure window
/// and SLO are all per-run (only whether there are tenants is keyed), so
/// one warmed world serves an entire rate sweep, capacity search or set of
/// fault schedules. Forked runs are bit-identical to cold ones.
OpenLoopResult RunOpenLoop(const OpenLoopConfig& config,
                           WorldCache* cache = nullptr);

/// The canonical mixed-fault schedule of the resilience bench, the
/// chaos-under-peak run and the fault tests: CXL outage, NIC brownout,
/// flaky windows, link degradation and a disk stall at fixed fractions of
/// `measure`.
faults::FaultPlan CanonicalChaosPlan(Nanos measure);

/// Scales every tenant's arrival rate by `scale` (capacity-search knob).
OpenLoopConfig ScaleArrivals(const OpenLoopConfig& base, double scale);

struct CapacitySearch {
  double lo_scale = 0.25;
  double hi_scale = 4.0;
  int iters = 5;  // bisection steps after bracketing
};

struct CapacityPoint {
  double scale = 0;
  double offered_rate = 0;  // offered ops/sec at this scale
  OpenLoopResult result;
};

/// Binary-searches the largest arrival-rate scale whose run still meets
/// the SLO (p99 and loss bound). Returns the last passing point — or the
/// lo_scale point (slo_met false) when even that overloads the system.
/// Every evaluated point is appended to `trace` when non-null.
CapacityPoint FindSloCapacity(const OpenLoopConfig& base,
                              const CapacitySearch& search, WorldCache* cache,
                              std::vector<CapacityPoint>* trace = nullptr);

}  // namespace polarcxl::harness
