#include "sim/bandwidth_channel.h"

#include <algorithm>

#include "common/macros.h"

namespace polarcxl::sim {

namespace {
size_t NextPow2(size_t v) {
  size_t p = 64;
  while (p < v) p *= 2;
  return p;
}
}  // namespace

BandwidthChannel::BandwidthChannel(std::string name, uint64_t bytes_per_sec)
    : name_(std::move(name)),
      bytes_per_sec_(bytes_per_sec),
      window_ns_(kWindowNs) {
  if (bytes_per_sec_ > 0) {
    // Keep at least ~1 KB of budget per window so very slow links get
    // proportionally longer windows instead of degenerate 1-byte budgets.
    const Nanos min_window = static_cast<Nanos>(
        static_cast<__int128>(1024) * kNanosPerSec / bytes_per_sec_);
    window_ns_ = std::max(window_ns_, std::max<Nanos>(1, min_window));
  }
  bytes_per_window_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             static_cast<__int128>(bytes_per_sec_) * window_ns_ /
             kNanosPerSec));
  fd_rate_ = FastDiv64(std::max<uint64_t>(1, bytes_per_sec_));
  fd_window_ = FastDiv64(static_cast<uint64_t>(window_ns_));
  fd_bpw_ = FastDiv64(bytes_per_window_);
}

uint64_t BandwidthChannel::UsedIn(int64_t w) const {
  if (w < st_.pruned_end) return bytes_per_window_;
  if (st_.window_count == 0 || w < st_.base_window ||
      w >= st_.base_window + static_cast<int64_t>(st_.window_count)) {
    return 0;
  }
  return st_.ring[(st_.base_slot + static_cast<size_t>(w - st_.base_window)) &
                  st_.ring_mask];
}

void BandwidthChannel::RetireTo(int64_t r) {
  while (st_.window_count > 0 && st_.base_window < r) {
    if (st_.ring[st_.base_slot] != 0) {
      window_advances_++;   // leftover budget actually forfeited
      st_.ring[st_.base_slot] = 0;  // keep the outside-span-zero invariant
    }
    // Zero slots (idle gaps inside the span) retire for free: dropping
    // them mutates nothing — the slot already holds the outside-span
    // value — so they cost no more here than they did when the lazy
    // extension skipped them arithmetically on the way in.
    st_.base_slot = (st_.base_slot + 1) & st_.ring_mask;
    st_.base_window++;
    st_.window_count--;
  }
  st_.retired_end = std::max(st_.retired_end, r);
}

void BandwidthChannel::EnsureWindow(int64_t w) {
  if (st_.window_count == 0) {
    if (st_.ring.empty()) {
      st_.ring.assign(64, 0);
      st_.ring_mask = st_.ring.size() - 1;
    }
    st_.base_window = w;
    st_.base_slot = 0;
    st_.window_count = 1;
    return;
  }
  const int64_t end = st_.base_window + static_cast<int64_t>(st_.window_count);
  if (w >= st_.base_window && w < end) return;

  const int64_t new_base = std::min<int64_t>(w, st_.base_window);
  const int64_t new_end = std::max<int64_t>(w + 1, end);
  const size_t span = static_cast<size_t>(new_end - new_base);

  if (span > st_.ring.size()) {
    // Re-layout into a larger ring, oldest window at slot 0.
    window_advances_ += st_.window_count;  // slots copied
    std::vector<uint64_t> grown(NextPow2(span), 0);
    for (size_t i = 0; i < st_.window_count; i++) {
      grown[static_cast<size_t>(st_.base_window - new_base) + i] =
          st_.ring[(st_.base_slot + i) & st_.ring_mask];
    }
    st_.ring.swap(grown);
    st_.ring_mask = st_.ring.size() - 1;
    st_.base_slot = 0;
    st_.base_window = new_base;
    st_.window_count = span;
  } else if (new_base < st_.base_window) {
    // Extend backward over the idle gap: every slot outside the tracked
    // span is already zero (the invariant), so this is pure arithmetic —
    // no fill walk, no per-window charge.
    st_.base_slot =
        (st_.base_slot - static_cast<size_t>(st_.base_window - new_base)) &
        st_.ring_mask;
    st_.base_window = new_base;
    st_.window_count = span;
  } else {
    // Extend forward over the idle gap: O(1) under the same invariant.
    st_.window_count = span;
  }
}

void BandwidthChannel::StoreUsed(int64_t w, uint64_t used) {
  EnsureWindow(w);
  st_.ring[(st_.base_slot + static_cast<size_t>(w - st_.base_window)) &
           st_.ring_mask] = used;
  // Prune fully-consumed windows off the front. Only valid while the front
  // is contiguous with the pruned prefix (otherwise the gap in between
  // still holds unconsumed budget that an out-of-order post may claim).
  while (st_.window_count > 0 && st_.base_window == st_.pruned_end &&
         st_.ring[st_.base_slot] == bytes_per_window_) {
    window_advances_++;
    st_.ring[st_.base_slot] = 0;
    st_.base_slot = (st_.base_slot + 1) & st_.ring_mask;
    st_.base_window++;
    st_.window_count--;
    st_.pruned_end = st_.base_window;
  }
}

Nanos BandwidthChannel::Place(Nanos now, uint64_t bytes) {
  if (bytes_per_sec_ == 0 || bytes == 0) return now;
  int64_t w = static_cast<int64_t>(fd_window_.Div(static_cast<uint64_t>(now)));
  // Capacity is tracked at window granularity: a transfer may use any
  // remaining budget of its window regardless of sub-window timing (the
  // completion clamp below keeps time monotonic). Clamping the budget to
  // the elapsed sub-window position instead would re-introduce a FIFO
  // whenever out-of-order lanes land in one window.
  if (w < st_.pruned_end) w = st_.pruned_end;  // everything earlier is consumed
  // A post below the retirement watermark would see forfeited budget as
  // free. In armed worlds concurrent posts sit within the executor's
  // reorder span (one step cost plus one epoch) of each other — orders
  // of magnitude inside the lag — so this firing means a real scheduling
  // bug (fault-wired worlds, where a fault can stretch one step past the
  // lag, never arm; see SimWorld). Abort loudly rather than bend a
  // completion.
  POLAR_CHECK(w >= st_.retired_end);
  if (w - retire_lag_ > st_.retired_end) {
    // Advance the watermark behind the posting frontier. Keyed on the
    // post's own `now` — never on the newest *tracked* window, which on a
    // saturated channel is backlog queued far ahead of virtual time.
    RetireTo(w - retire_lag_);
  }

  // Fast path for the dominant shape: the window is already tracked in the
  // ring and the whole transfer fits without filling it. No spill into
  // later windows, and — because the window stays strictly below budget —
  // no prune can trigger, so the general ledger machinery is skipped. The
  // arithmetic is the general loop's first iteration verbatim.
  if (st_.window_count > 0 && w >= st_.base_window &&
      w < st_.base_window + static_cast<int64_t>(st_.window_count)) {
    const size_t slot =
        (st_.base_slot + static_cast<size_t>(w - st_.base_window)) &
        st_.ring_mask;
    const uint64_t offset = st_.ring[slot] + bytes;
    if (offset < bytes_per_window_) {
      st_.ring[slot] = offset;
      return std::max(w * window_ns_ + NsForBytes(offset), now + 1);
    }
  }

  uint64_t remaining = bytes;
  Nanos completion = now;
  while (true) {
    // Batched spill from a clean frontier: nothing is tracked and w is the
    // first unconsumed window, so every remaining window is untouched and
    // the landing window is one FastDiv64 divide away instead of a
    // per-window walk. The arithmetic is exactly the loop's fixpoint:
    // `full` windows take bytes_per_window_ each and the tail lands at
    // offset `t` in window w + full. The full windows extend the
    // implicitly-consumed prefix directly: one charge for the whole skip,
    // never materialized in the ring. When a gap or partial front precedes
    // w, the full windows must be materialized so a later out-of-order
    // post sees them consumed, so the per-window loop below runs (rare: a
    // saturated channel prunes its front as it fills, landing here).
    if (remaining > bytes_per_window_ && st_.window_count == 0 &&
        w == st_.pruned_end) {
      const int64_t full =
          static_cast<int64_t>(fd_bpw_.Div(remaining - 1));
      const uint64_t t =
          remaining - static_cast<uint64_t>(full) * bytes_per_window_;
      window_advances_++;
      st_.pruned_end = w + full;
      completion = (w + full) * window_ns_ + NsForBytes(t);
      StoreUsed(w + full, t);  // prunes immediately if t fills it
      break;
    }
    uint64_t offset = UsedIn(w);
    const uint64_t free =
        bytes_per_window_ > offset ? bytes_per_window_ - offset : 0;
    const uint64_t take = std::min(free, remaining);
    if (take > 0) {
      offset += take;
      remaining -= take;
      StoreUsed(w, offset);
      completion = w * window_ns_ + NsForBytes(offset);
    }
    if (remaining == 0) break;
    w++;
    window_advances_++;  // spill iteration past the first window
  }
  return std::max(completion, now + 1);
}

Nanos BandwidthChannel::Transfer(Nanos now, uint64_t bytes) {
  st_.total_bytes += bytes;
  return Place(now, bytes);
}

Nanos BandwidthChannel::TransferDeferred(Nanos now, uint64_t bytes,
                                         ChannelOverlay* ov) const {
  // Mirrors Place exactly, except the consumed bytes land in
  // the caller's overlay and every budget read is ledger + overlay. With an
  // empty overlay and a quiescent ledger this returns the same completion
  // Transfer would; the divergence counter at the barrier measures how
  // often cross-group contention inside one epoch would have changed it.
  if (bytes_per_sec_ == 0 || bytes == 0) return now;
  int64_t w = static_cast<int64_t>(fd_window_.Div(static_cast<uint64_t>(now)));
  if (w < st_.pruned_end) w = st_.pruned_end;  // everything earlier is consumed
  POLAR_CHECK(w >= st_.retired_end);  // see Place

  uint64_t remaining = bytes;
  Nanos completion = now;
  while (true) {
    uint64_t offset = UsedIn(w) + ov->Get(w);
    const uint64_t free =
        bytes_per_window_ > offset ? bytes_per_window_ - offset : 0;
    const uint64_t take = std::min(free, remaining);
    if (take > 0) {
      offset += take;
      remaining -= take;
      ov->Add(w, take);
      completion = w * window_ns_ + NsForBytes(offset);
    }
    if (remaining == 0) break;
    w++;
  }
  return std::max(completion, now + 1);
}

}  // namespace polarcxl::sim
