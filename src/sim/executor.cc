#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/prof.h"

namespace polarcxl::sim {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Persistent worker pool. A RunUntil call wakes the workers ONCE (condvar +
// go generation); they then live inside the epoch loop with the main thread,
// meeting at a sense-reversing spin barrier between phases, until the target
// is reached — epochs are microseconds apart, so per-epoch condvar traffic
// would dominate the run (and on an oversubscribed host, each wake is a
// scheduling quantum). The barrier spins briefly and then yields, so a
// 1-core host degrades to context-switch cost instead of live-lock. The
// barrier's phase release/acquire pair gives every participant
// happens-before over all shard-local writes of the previous phase, which
// is what keeps the scheme TSan-clean with plain (non-atomic) shared fields
// like target/epoch_end.
struct Executor::WorkerPool {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<uint64_t> go{0};
  std::atomic<uint32_t> done{0};  // workers that left the epoch loop
  std::atomic<bool> stop{false};
  Nanos target = 0;     // published by the go bump, read after acquire
  Nanos epoch_end = 0;  // written by participant 0, published by Barrier()

  std::atomic<uint32_t> arrived{0};
  std::atomic<uint64_t> phase{0};
  uint32_t parties = 0;

  void Barrier() {
    const uint64_t p = phase.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
      arrived.store(0, std::memory_order_relaxed);
      phase.store(p + 1, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (phase.load(std::memory_order_acquire) == p) {
      if (++spins < 128) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  }
};

// Epoch length: the bandwidth-channel window, so epochs and channel windows
// share one grid aligned to absolute time 0.
constexpr Nanos kEpochNs = BandwidthChannel::kWindowNs;
// Exit sentinel for the epoch loop (virtual clocks are never negative).
constexpr Nanos kEpochLoopExit = -1;

Executor::Executor() : shards_(1) { shards_[0].sched.Init(&hot_); }

Executor::~Executor() { StopWorkers(); }

void Executor::ReserveLanes(size_t n) {
  reserved_lanes_ = std::max(reserved_lanes_, n);
  lanes_.reserve(n);
  hot_.reserve(n);
  for (Shard& sh : shards_) sh.sched.Reserve(n);
}

uint32_t Executor::AddLane(std::unique_ptr<Lane> lane, NodeId node_id,
                           CpuCacheSim* cache, Nanos start_at) {
  const uint32_t id = static_cast<uint32_t>(lanes_.size());
  LaneRec rec;
  rec.lane = std::move(lane);
  rec.ctx.now = start_at;
  rec.ctx.lane_id = id;
  rec.ctx.node_id = node_id;
  rec.ctx.cache = cache;
  if (parallel_) {
    rec.group = GroupFor(node_id);
    rec.shard = rec.group % num_threads_;
    rec.ctx.frame = frames_[rec.group].get();
  }
  const uint32_t shard = rec.shard;
  lanes_.push_back(std::move(rec));
  hot_.push_back(LaneHot{start_at, 0, 0});
  shards_[shard].sched.Push({start_at, id, 0});
  return id;
}

bool Executor::StepOne(Shard& sh) {
  POLAR_PROF_SCOPE(kExecutor);
  if (!sh.sched.Settle()) return false;
  const SchedEntry top = sh.sched.Top();
  sh.sched.PopTop();
  LaneRec& rec = lanes_[top.id];
  const Nanos before = rec.ctx.now;
  if (parallel_) rec.ctx.frame->BeginStep(before, top.id);
  const bool keep = rec.lane->Step(rec.ctx);
  sh.steps++;
  // A step that does not advance time would live-lock the scheduler.
  if (rec.ctx.now <= before) rec.ctx.now = before + 1;
  LaneHot& hot = hot_[top.id];
  hot.clock = rec.ctx.now;  // the lane is off-CPU again; refresh the mirror
  // Every push carries a fresh epoch, so a lane's only live entry is the
  // one pushed last.
  hot.epoch++;
  if (keep) {
    sh.sched.Push({rec.ctx.now, top.id, hot.epoch});
  } else {
    hot.parked = 1;
  }
  return true;
}

void Executor::RunShardUntil(Shard& sh, Nanos t) {
  while (sh.sched.Settle()) {
    if (sh.sched.Top().at >= t) return;
    if (!StepOne(sh)) return;
  }
}

void Executor::RunUntil(Nanos t) {
  running_ = true;
  if (parallel_) {
    RunUntilParallel(t);
  } else {
    RunShardUntil(shards_[0], t);
  }
  running_ = false;
}

bool Executor::SettledMin(SchedEntry* out) {
  bool found = false;
  for (Shard& sh : shards_) {
    sh.sched_ops++;  // epoch-end shard-top probe
    if (!sh.sched.Settle()) continue;
    const SchedEntry& top = sh.sched.Top();
    if (!found || top.Before(*out)) {
      *out = top;
      found = true;
    }
  }
  return found;
}

void Executor::RunUntilParallel(Nanos t) {
  WorkerPool& p = *pool_;
  p.target = t;
  p.done.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(p.mu);
    p.go.fetch_add(1, std::memory_order_release);
  }
  p.cv.notify_all();
  EpochLoop(0);
  // The loop exit travelled through the barrier, but a worker still has to
  // read it and step out; wait so the caller may immediately mutate lanes
  // (park/resume/Restore) or issue the next RunUntil. A one-thread pool has
  // no worker to wait for.
  while (p.done.load(std::memory_order_acquire) != num_threads_ - 1) {
    std::this_thread::yield();
  }
}

void Executor::EpochLoop(uint32_t shard_idx) {
  WorkerPool& p = *pool_;
  for (;;) {
    if (shard_idx == 0) {
      // Close the epoch at the next absolute E-boundary after the earliest
      // runnable lane (idle gaps are skipped wholesale), never past the
      // target. The O(shards) settled-top probe replaces the old O(lanes)
      // scans; settling the other shards' schedulers here is safe — the
      // workers are parked at the barrier below, whose release/acquire
      // pair publishes these writes before they step again.
      Nanos next = kEpochLoopExit;
      SchedEntry m;
      if (SettledMin(&m) && m.at < p.target) {
        next = std::min(p.target, (m.at / kEpochNs + 1) * kEpochNs);
      }
      p.epoch_end = next;
    }
    p.Barrier();  // publishes epoch_end; orders the previous drain
    const Nanos end = p.epoch_end;
    if (end == kEpochLoopExit) return;
    RunShardUntil(shards_[shard_idx], end);
    p.Barrier();  // all shards parked at the boundary
    if (shard_idx == 0) {
      DrainBarrier();
      epochs_run_++;
    }
    // Only participant 0 touches shared state between the step barrier and
    // the next publish barrier; everyone else is already waiting there.
  }
}

void Executor::DrainBarrier() {
  // Gather every frame's deferred charges and replay them in the global
  // {step_start, lane, seq} order — the order in which a serial run would
  // have interleaved the instances. The key triple is unique (a lane's
  // clock strictly increases between steps), so the sort is a total order
  // and the replay is independent of both gather order and thread count.
  drain_shared_.clear();
  for (auto& f : frames_) {
    if (f->empty()) continue;
    drain_shared_.insert(drain_shared_.end(), f->shared_ops().begin(),
                         f->shared_ops().end());
    f->ClearEpoch();
  }
  std::sort(drain_shared_.begin(), drain_shared_.end(),
            [](const EpochFrame::SharedOp& a, const EpochFrame::SharedOp& b) {
              if (a.step_start != b.step_start)
                return a.step_start < b.step_start;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.seq < b.seq;
            });
  for (const EpochFrame::SharedOp& op : drain_shared_) {
    const Nanos committed = op.chan->Transfer(op.at, op.bytes);
    if (committed != op.observed) drain_divergence_++;
  }
}

void Executor::ParkLane(uint32_t lane_id) {
  POLAR_CHECK(lane_id < lanes_.size());
  POLAR_CHECK_MSG(!running_, "ParkLane called while RunUntil runs");
  LaneHot& hot = hot_[lane_id];
  if (hot.parked == 0) {
    hot.parked = 1;
    shards_[lanes_[lane_id].shard].sched.NoteStale();  // entry now dead
  }
}

void Executor::ResumeLane(uint32_t lane_id, Nanos at) {
  POLAR_CHECK(lane_id < lanes_.size());
  POLAR_CHECK_MSG(!running_, "ResumeLane called while RunUntil runs");
  LaneRec& rec = lanes_[lane_id];
  LaneHot& hot = hot_[lane_id];
  hot.parked = 0;
  rec.ctx.now = std::max(rec.ctx.now, at);
  hot.clock = rec.ctx.now;
  // The epoch bump invalidates any entry the lane left behind (a resume of
  // a never-parked lane strands a duplicate, which Settle drops or a
  // rebuild sweeps — the scheduler owns the compaction threshold).
  hot.epoch++;
  shards_[rec.shard].sched.Push({rec.ctx.now, lane_id, hot.epoch});
}

uint32_t Executor::GroupFor(NodeId node_id) {
  for (uint32_t i = 0; i < group_nodes_.size(); i++) {
    if (group_nodes_[i] == node_id) return i;
  }
  group_nodes_.push_back(node_id);
  frames_.push_back(std::make_unique<EpochFrame>());
  return static_cast<uint32_t>(group_nodes_.size() - 1);
}

void Executor::EnableEpochParallel(uint32_t threads) {
  POLAR_CHECK(threads >= 1);
  POLAR_CHECK(!parallel_);
  parallel_ = true;
  for (LaneRec& rec : lanes_) {
    rec.group = GroupFor(rec.ctx.node_id);
  }
  SetThreads(threads);
}

void Executor::SetThreads(uint32_t threads) {
  POLAR_CHECK(parallel_);
  POLAR_CHECK(threads >= 1);
  StopWorkers();
  // Fold retired shard counters into the baselines before the old shard
  // structures (and their schedulers' op counters) are thrown away.
  total_steps_base_ = total_steps();
  sched_ops_base_ = sched_ops();
  num_threads_ = threads;
  shards_.assign(threads, Shard{});
  for (LaneRec& rec : lanes_) {
    rec.shard = rec.group % num_threads_;
    rec.ctx.frame = frames_[rec.group].get();
  }
  RebuildShardScheds();
  StartWorkers();
}

void Executor::RebuildShardScheds() {
  // Re-applies the ReserveLanes capacity to the fresh shard schedulers —
  // a re-shard must not degrade the wheel geometry the world was sized
  // for (SetThreads used to silently drop the reservation).
  const size_t sizing = std::max(reserved_lanes_, lanes_.size());
  for (Shard& sh : shards_) {
    sh.sched.Init(&hot_);
    sh.sched.Reserve(sizing);
  }
  for (uint32_t id = 0; id < lanes_.size(); id++) {
    LaneHot& hot = hot_[id];
    hot.epoch++;
    if (hot.parked == 0) {
      shards_[lanes_[id].shard].sched.Push({hot.clock, id, hot.epoch});
    }
  }
}

void Executor::StartWorkers() {
  // Participant 0 is the calling thread, so a one-thread pool starts no
  // thread and runs the same epoch loop with one-party barriers.
  pool_ = std::make_unique<WorkerPool>();
  WorkerPool& p = *pool_;
  p.parties = num_threads_;
  p.threads.reserve(num_threads_ - 1);
  for (uint32_t i = 1; i < num_threads_; i++) {
    p.threads.emplace_back([this, &p, i] {
      uint64_t seen = 0;
      for (;;) {
        // One condvar round per RunUntil call, not per epoch: park until
        // the main thread opens the next epoch loop.
        uint64_t g;
        {
          std::unique_lock<std::mutex> lk(p.mu);
          p.cv.wait(lk, [&] {
            return p.go.load(std::memory_order_acquire) != seen ||
                   p.stop.load(std::memory_order_acquire);
          });
          g = p.go.load(std::memory_order_acquire);
        }
        if (p.stop.load(std::memory_order_acquire)) return;
        seen = g;
        EpochLoop(i);
        p.done.fetch_add(1, std::memory_order_release);
      }
    });
  }
}

void Executor::StopWorkers() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(pool_->mu);
    pool_->stop.store(true, std::memory_order_release);
  }
  pool_->cv.notify_all();
  for (std::thread& t : pool_->threads) t.join();
  pool_.reset();
}

Nanos Executor::MinClock(Nanos fallback) const {
  Nanos best = -1;
  for (const LaneHot& h : hot_) {
    if (h.parked != 0) continue;
    if (best < 0 || h.clock < best) best = h.clock;
  }
  return best < 0 ? fallback : best;
}

Nanos Executor::MaxClock() const {
  Nanos best = 0;
  for (const LaneHot& h : hot_) best = std::max(best, h.clock);
  return best;
}

Executor::State Executor::Capture() const {
  State s;
  s.contexts.reserve(lanes_.size());
  s.parked.reserve(lanes_.size());
  for (uint32_t id = 0; id < lanes_.size(); id++) {
    s.contexts.push_back(lanes_[id].ctx);
    s.parked.push_back(hot_[id].parked != 0 ? 1 : 0);
  }
  s.total_steps = total_steps();
  return s;
}

void Executor::Restore(const State& s) {
  POLAR_CHECK(s.contexts.size() == lanes_.size());
  // sched_ops is a monotone process-life diagnostic (like epochs_run_):
  // the schedulers' op counters survive Clear, so nothing rewinds and no
  // folding is needed; callers meter windows by delta.
  for (Shard& sh : shards_) {
    sh.sched.Clear();
    sh.steps = 0;
  }
  for (uint32_t id = 0; id < lanes_.size(); id++) {
    LaneRec& rec = lanes_[id];
    rec.ctx = s.contexts[id];
    // The frame pointer is topology (this executor's frames), not captured
    // state: re-derive it so a snapshot taken on one sharding restores
    // cleanly regardless of what the capturing context held.
    rec.ctx.frame = parallel_ ? frames_[rec.group].get() : nullptr;
    LaneHot& hot = hot_[id];
    hot.clock = rec.ctx.now;
    hot.parked = s.parked[id] != 0 ? 1 : 0;
    // Bumping the epoch (rather than resetting it) invalidates any entry a
    // caller might still hold conceptually; the rebuilt scheduler below is
    // the only live one. Pop order depends only on {at, id}, never on the
    // container's internal layout, so the replay is bit-identical.
    hot.epoch++;
    if (hot.parked == 0) {
      shards_[rec.shard].sched.Push({rec.ctx.now, id, hot.epoch});
    }
  }
  total_steps_base_ = s.total_steps;
}

}  // namespace polarcxl::sim
