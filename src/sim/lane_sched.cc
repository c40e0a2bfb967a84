#include "sim/lane_sched.h"

#include <algorithm>

namespace polarcxl::sim {

namespace {
int CeilLog2(size_t n) {
  int l = 0;
  while ((size_t{1} << l) < n) l++;
  return l;
}
}  // namespace

void LaneScheduler::Init(const std::vector<LaneHot>* hot) {
  hot_ = hot;
  const size_t n_buckets = size_t{1} << log_buckets_;
  if (buckets_.size() != n_buckets) {
    buckets_.assign(n_buckets, {});
    bitmap_.assign(n_buckets / 64, 0);
  }
  Clear();
}

void LaneScheduler::Clear() {
  cur_heap_.clear();
  if (bucket_count_ > 0) {
    for (auto& b : buckets_) b.clear();
  }
  std::fill(bitmap_.begin(), bitmap_.end(), 0);
  overflow_.clear();
  cur_win_ = 0;
  bucket_count_ = 0;
  entries_ = 0;
  stale_ = 0;
}

void LaneScheduler::Reserve(size_t n_lanes) {
  const size_t want = std::max<size_t>(64, n_lanes);
  if (want == sized_for_ && !buckets_.empty()) return;
  sized_for_ = want;
  const int lanes_log = CeilLog2(sized_for_);
  // Bucket width targets about one live entry per bucket: n runnable lanes
  // re-queue roughly one mean step cost (tens of microseconds for the
  // pooling workloads) ahead of the cursor, so entry spacing shrinks as
  // 1/n and the width follows (2^13/n ns, floor 2 ns). Erring fine is
  // cheap — empty windows are skipped by ctz, and a bucket load is a
  // pointer swap.
  log_width_ = std::max(1, 13 - lanes_log);
  // The wheel span (buckets x width) must comfortably exceed the typical
  // re-queue horizon so steady-state pushes stay O(1); the overflow heap
  // only catches long waits (disk I/O, pacing gaps, parked-adjacent work).
  log_buckets_ = std::min(14, std::max(10, lanes_log + 4));
  Rebuild(nullptr);  // re-route existing entries under the new geometry
  cur_heap_.reserve(128);
  overflow_.reserve(64);
}

void LaneScheduler::Push(SchedEntry e) {
  if (hot_ != nullptr && hot_->size() > sized_for_ * 2) {
    // The lane population outgrew the geometry Reserve sized for; re-pick
    // width/span before the buckets get crowded.
    Reserve(hot_->size());
  }
  const uint64_t win = WindowOf(e.at);
  if (win < cur_win_) {
    // Cursor retreat: a resume landed behind the wheel. Rare (resumes all
    // but always target the present), so rebuild outright — the cursor
    // resets to the minimum live window, which also preserves the
    // one-window-per-bucket invariant every other path relies on.
    Rebuild(&e);
    return;
  }
  ops_++;
  entries_++;
  if (win == cur_win_) {
    HeapPush(cur_heap_, e);
  } else {
    Route(e, win);
  }
}

void LaneScheduler::Route(SchedEntry e, uint64_t win) {
  // Caller counted ops_/entries_.
  const uint64_t n_buckets = uint64_t{1} << log_buckets_;
  if (win - cur_win_ < n_buckets) {
    const size_t idx = static_cast<size_t>(win & (n_buckets - 1));
    buckets_[idx].push_back(e);
    bitmap_[idx >> 6] |= uint64_t{1} << (idx & 63);
    bucket_count_++;
  } else {
    HeapPush(overflow_, e);
  }
}

bool LaneScheduler::Settle() {
  for (;;) {
    while (!cur_heap_.empty()) {
      if (!StaleEntry(cur_heap_[0])) return true;
      ops_++;
      HeapPop(cur_heap_);
      entries_--;
      if (stale_ > 0) stale_--;
    }
    if (!AdvanceWindow()) return false;
  }
}

void LaneScheduler::PopTop() {
  ops_++;
  entries_--;
  HeapPop(cur_heap_);
}

void LaneScheduler::NoteStale() {
  stale_++;
  const size_t live = entries_ > stale_ ? entries_ - stale_ : 0;
  // Lazy-deletion compaction threshold: sweep once noted-stale entries
  // outnumber the live ones plus slack. Per-scheduler live count, not the
  // executor-global lane count — a small shard in a big world compacts as
  // soon as its own dead weight dominates.
  if (stale_ > live + 64) Rebuild(nullptr);
}

bool LaneScheduler::AdvanceWindow() {
  const uint64_t n_buckets = uint64_t{1} << log_buckets_;
  const uint64_t mask = n_buckets - 1;
  uint64_t next_win = 0;
  bool found = false;
  if (bucket_count_ > 0) {
    // First populated window strictly after cur_win_: circular ctz scan
    // over the bucket bitmap. Word order tracks window order — the first
    // word is masked to indices >= start, and the wrap-around revisit of
    // that word only exposes indices < start, which map to the farthest
    // windows of the span.
    const size_t words = bitmap_.size();
    const uint64_t start = (cur_win_ + 1) & mask;
    size_t w = static_cast<size_t>(start >> 6);
    uint64_t bits = bitmap_[w] & (~uint64_t{0} << (start & 63));
    for (size_t probed = 0; probed <= words; probed++) {
      // The first word probe is folded into the pop/push charge (it is
      // comparison-class work, which the heap baseline does not count
      // either); extra words meter long idle-gap scans.
      if (probed > 0) ops_++;
      if (bits != 0) {
        const uint64_t idx =
            (static_cast<uint64_t>(w) << 6) +
            static_cast<uint64_t>(__builtin_ctzll(bits));
        const uint64_t d = (idx - start) & mask;
        next_win = cur_win_ + 1 + d;
        found = true;
        break;
      }
      w = (w + 1) % words;
      bits = bitmap_[w];
    }
    POLAR_CHECK(found);  // bucket_count_ > 0 implies a set bit
  }
  if (!overflow_.empty()) {
    const uint64_t over_win = WindowOf(overflow_[0].at);
    if (!found || over_win < next_win) {
      next_win = over_win;
      found = true;
    }
  }
  if (!found) return false;
  cur_win_ = next_win;
  // Load the cursor's bucket, if this window has one. The residue of
  // cur_win_ identifies it uniquely within the span, so no filtering.
  const size_t idx = static_cast<size_t>(cur_win_ & mask);
  if ((bitmap_[idx >> 6] >> (idx & 63)) & 1) {
    std::vector<SchedEntry>& b = buckets_[idx];
    bucket_count_ -= b.size();
    // O(1) pointer swap, not a per-entry copy — the cost of ordering the
    // window's entries is charged by Heapify's sift moves.
    cur_heap_.swap(b);  // cur_heap_ is empty here
    b.clear();
    bitmap_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    Heapify(cur_heap_);
  }
  // Pull overflow entries that fell inside the span as the cursor moved;
  // amortized one extra move per entry per wheel lap.
  while (!overflow_.empty()) {
    const SchedEntry top = overflow_[0];
    const uint64_t win = WindowOf(top.at);
    if (win >= cur_win_ + n_buckets) break;
    ops_++;
    HeapPop(overflow_);
    if (win == cur_win_) {
      HeapPush(cur_heap_, top);
    } else {
      const size_t bidx = static_cast<size_t>(win & mask);
      buckets_[bidx].push_back(top);
      bitmap_[bidx >> 6] |= uint64_t{1} << (bidx & 63);
      bucket_count_++;
    }
  }
  return true;
}

void LaneScheduler::Rebuild(const SchedEntry* extra) {
  rebuilds_++;
  std::vector<SchedEntry> live;
  live.reserve(entries_ + 1);
  auto take = [&](std::vector<SchedEntry>& v) {
    for (const SchedEntry& e : v) {
      ops_++;  // rebuild visit
      if (!StaleEntry(e)) live.push_back(e);
    }
    v.clear();
  };
  take(cur_heap_);
  if (bucket_count_ > 0) {
    for (auto& b : buckets_) {
      if (!b.empty()) take(b);
    }
  }
  take(overflow_);
  if (extra != nullptr) {
    ops_++;
    if (!StaleEntry(*extra)) live.push_back(*extra);
  }
  const size_t n_buckets = size_t{1} << log_buckets_;
  if (buckets_.size() != n_buckets) {
    buckets_.assign(n_buckets, {});
    bitmap_.assign(n_buckets / 64, 0);
  } else {
    std::fill(bitmap_.begin(), bitmap_.end(), 0);
  }
  bucket_count_ = 0;
  entries_ = live.size();
  stale_ = 0;
  cur_win_ = 0;
  if (live.empty()) return;
  uint64_t min_win = WindowOf(live[0].at);
  for (const SchedEntry& e : live) {
    min_win = std::min(min_win, WindowOf(e.at));
  }
  cur_win_ = min_win;
  for (const SchedEntry& e : live) {
    ops_++;
    const uint64_t win = WindowOf(e.at);
    if (win == cur_win_) {
      cur_heap_.push_back(e);
    } else {
      Route(e, win);
    }
  }
  Heapify(cur_heap_);
}

void LaneScheduler::HeapPush(std::vector<SchedEntry>& h, SchedEntry e) {
  h.push_back(e);
  size_t i = h.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!e.Before(h[parent])) break;
    h[i] = h[parent];
    i = parent;
    ops_++;
  }
  h[i] = e;
}

void LaneScheduler::HeapPop(std::vector<SchedEntry>& h) {
  h[0] = h.back();
  h.pop_back();
  if (!h.empty()) SiftDown(h, 0);
}

void LaneScheduler::SiftDown(std::vector<SchedEntry>& h, size_t i) {
  SchedEntry e = h[i];
  const size_t n = h.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && h[child + 1].Before(h[child])) child++;
    if (!h[child].Before(e)) break;
    h[i] = h[child];
    i = child;
    ops_++;
  }
  h[i] = e;
}

void LaneScheduler::Heapify(std::vector<SchedEntry>& h) {
  if (h.size() < 2) return;
  for (size_t i = h.size() / 2; i-- > 0;) SiftDown(h, i);
}

}  // namespace polarcxl::sim
