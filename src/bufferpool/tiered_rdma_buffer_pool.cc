#include "bufferpool/tiered_rdma_buffer_pool.h"

#include <algorithm>
#include <memory>

namespace polarcxl::bufferpool {

TieredRdmaBufferPool::TieredRdmaBufferPool(Options options,
                                           sim::MemorySpace* dram,
                                           rdma::RemoteMemoryPool* remote,
                                           storage::PageStore* store)
    : BufferPool(PoolKind::kTieredRdma),
      opt_(options),
      dram_(dram),
      remote_(remote),
      store_(store) {
  const uint32_t blocks = static_cast<uint32_t>(opt_.lbp_capacity_pages);
  st_.images.resize(blocks);
  st_.meta.resize(blocks);
  st_.lru = LruList(blocks);
  st_.page_table = PageMap(blocks);
  st_.free_list.reserve(blocks);
  for (uint32_t b = blocks; b > 0; b--) st_.free_list.push_back(b - 1);
  st_.retry_budget_left = opt_.retry_budget;
}

bool TieredRdmaBufferPool::ConsumeRetryBudget(Nanos backoff) {
  if (opt_.retry_budget == 0) return true;  // unlimited (legacy)
  if (st_.retry_budget_left < backoff) {
    st_.stats.retries_exhausted++;
    return false;
  }
  st_.retry_budget_left -= backoff;
  return true;
}

Result<PageImageRef> TieredRdmaBufferPool::RemoteReadRetry(
    sim::ExecContext& ctx, PageId page_id) {
  Nanos backoff = kVerbsBackoffBase;
  for (int attempt = 1;; attempt++) {
    Result<PageImageRef> r =
        remote_->ReadPage(ctx, opt_.node, opt_.tenant, page_id);
    if (r.ok()) {
      st_.retry_budget_left = opt_.retry_budget;  // healthy NIC refills budget
      return r;
    }
    const Status& s = r.status();
    if (!s.IsIOError() || attempt == kVerbsAttempts) return s;
    if (!ConsumeRetryBudget(backoff)) {
      return Status::Unavailable("verbs retry budget exhausted");
    }
    st_.stats.fault_retries++;
    ctx.t_net += backoff;
    ctx.Advance(backoff);
    backoff = std::min(backoff * 2, kVerbsBackoffCap);
  }
}

Status TieredRdmaBufferPool::RemoteWriteRetry(sim::ExecContext& ctx,
                                              PageId page_id,
                                              const PageImageRef& image) {
  Nanos backoff = kVerbsBackoffBase;
  for (int attempt = 1;; attempt++) {
    Status s =
        remote_->WritePage(ctx, opt_.node, opt_.tenant, page_id, image);
    if (s.ok()) {
      st_.retry_budget_left = opt_.retry_budget;
      return s;
    }
    if (!s.IsIOError() || attempt == kVerbsAttempts) return s;
    if (!ConsumeRetryBudget(backoff)) {
      return Status::Unavailable("verbs retry budget exhausted");
    }
    st_.stats.fault_retries++;
    ctx.t_net += backoff;
    ctx.Advance(backoff);
    backoff = std::min(backoff * 2, kVerbsBackoffCap);
  }
}

void TieredRdmaBufferPool::WriteBack(sim::ExecContext& ctx, uint32_t block) {
  BlockMeta& m = st_.meta[block];
  POLAR_CHECK(m.dirty);
  // The frame bytes stream out of DRAM. To a remote tier, a write-back is
  // a full-page RDMA WRITE even if one row changed: the write amplification
  // of tiered designs. The remote tier takes the frame's image itself.
  dram_->Stream(ctx, FrameAddr(block), kPageSize, /*write=*/false);
  EnsureWalDurable(ctx, FrameData(block));
  bool remote_ok = false;
  if (remote_ != nullptr) {
    // A dirty frame was cloned at write-fix time, so it cannot be the
    // image the remote tier holds (it may still share it with a world
    // snapshot, which is fine: nothing writes it from here on).
    POLAR_CHECK_MSG(remote_->Peek(opt_.tenant, m.page_id) != st_.images[block],
                    "dirty LBP frame aliases the remote tier's image");
    remote_ok = RemoteWriteRetry(ctx, m.page_id, st_.images[block]).ok();
  }
  if (!remote_ok) {
    // No remote tier, remote pool full, or NIC still down after retries:
    // storage keeps the dirty page from being lost.
    store_->WritePage(ctx, m.page_id, FrameData(block));
  }
  st_.stats.dirty_writebacks++;
  m.dirty = false;
}

uint32_t TieredRdmaBufferPool::AllocBlock(sim::ExecContext& ctx) {
  if (!st_.free_list.empty()) {
    const uint32_t b = st_.free_list.back();
    st_.free_list.pop_back();
    return b;
  }
  for (uint32_t b = st_.lru.tail(); b != kInvalidBlock; b = st_.lru.prev(b)) {
    BlockMeta& m = st_.meta[b];
    if (m.fix_count > 0) continue;
    if (m.dirty) WriteBack(ctx, b);
    st_.lru.Remove(b);
    st_.page_table.Erase(m.page_id);
    st_.images[b].reset();
    m = BlockMeta{};
    st_.stats.evictions++;
    return b;
  }
  return kInvalidBlock;
}

PageImageRef TieredRdmaBufferPool::LoadImage(sim::ExecContext& ctx,
                                             PageId page_id) {
  bool populate = remote_ != nullptr;
  if (remote_ != nullptr) {
    // Full 16 KB RDMA READ; the frame then aliases the remote image.
    Result<PageImageRef> remote = RemoteReadRetry(ctx, page_id);
    if (remote.ok()) {
      st_.remote_hits++;
      return std::move(*remote);
    }
    const Status& s = remote.status();
    if (s.IsIOError() || s.IsUnavailable()) {
      // NIC still down after the per-op retries — or the total retry
      // budget is spent: serve from storage and skip the remote populate
      // (it would only burn more retries).
      st_.stats.degraded_fetches++;
      populate = false;
    }
  }
  auto fresh = std::make_shared_for_overwrite<PageImage>();
  store_->ReadPage(ctx, page_id, fresh->data());
  PageImageRef image = std::move(fresh);
  // Populate the remote tier so the next crash/miss finds it there.
  if (populate) RemoteWriteRetry(ctx, page_id, image).ok();
  return image;
}

Result<PageRef> TieredRdmaBufferPool::Fetch(sim::ExecContext& ctx,
                                            PageId page_id, bool for_write) {
  st_.stats.fetches++;
  const uint32_t found = st_.page_table.Find(page_id);
  if (found != PageMap::kNotFound) {
    st_.stats.hits++;
    const uint32_t b = found;
    st_.meta[b].fix_count++;
    st_.lru.MoveToFront(b);
    uint8_t* data = for_write ? WritableImage(st_.images[b]) : FrameData(b);
    return PageRef{b, data, dram_, FrameAddr(b)};
  }

  st_.stats.misses++;
  const uint32_t b = AllocBlock(ctx);
  if (b == kInvalidBlock) return Status::Busy("all LBP frames fixed");
  st_.images[b] = LoadImage(ctx, page_id);
  // Installing the image streams it into local DRAM.
  dram_->Stream(ctx, FrameAddr(b), kPageSize, /*write=*/true);

  BlockMeta& m = st_.meta[b];
  m.page_id = page_id;
  m.in_use = true;
  m.dirty = false;
  m.fix_count = 1;
  st_.page_table.Put(page_id, b);
  st_.lru.PushFront(b);
  uint8_t* data = for_write ? WritableImage(st_.images[b]) : FrameData(b);
  return PageRef{b, data, dram_, FrameAddr(b)};
}

void TieredRdmaBufferPool::Unfix(sim::ExecContext& ctx, const PageRef& ref,
                                 PageId page_id, bool dirty, Lsn new_lsn) {
  (void)ctx;
  (void)page_id;
  BlockMeta& m = st_.meta[ref.block];
  POLAR_CHECK(m.fix_count > 0);
  m.fix_count--;
  if (dirty) {
    // Only a write fix may dirty a frame, and it made the frame the sole
    // holder of its image. A shared image here was written through a read
    // fix, which changed the remote tier's copy and every snapshot's too.
    POLAR_CHECK_MSG(st_.images[ref.block].use_count() == 1,
                    "dirty unfix of an LBP frame whose image is shared");
    m.dirty = true;
    if (new_lsn > m.lsn) m.lsn = new_lsn;
  }
}

bool TieredRdmaBufferPool::FlushDirtyPages(sim::ExecContext& ctx) {
  for (uint32_t b = 0; b < st_.meta.size(); b++) {
    BlockMeta& m = st_.meta[b];
    if (m.in_use && m.dirty) {
      dram_->Stream(ctx, FrameAddr(b), kPageSize, /*write=*/false);
      EnsureWalDurable(ctx, FrameData(b));
      store_->WritePage(ctx, m.page_id, FrameData(b));
      // Keep the remote tier coherent with the checkpoint (by reference:
      // the frame's next write fix clones). Storage already holds the
      // page, so giving up after the retry budget is safe.
      if (remote_ != nullptr) {
        RemoteWriteRetry(ctx, m.page_id, st_.images[b]).ok();
      }
      m.dirty = false;
    }
  }
  return true;
}

bool TieredRdmaBufferPool::Cached(PageId page_id) const {
  return st_.page_table.Contains(page_id);
}

bool TieredRdmaBufferPool::Drop(PageId page_id) {
  const uint32_t b = st_.page_table.Find(page_id);
  if (b == PageMap::kNotFound) return false;
  POLAR_CHECK(st_.meta[b].fix_count == 0);
  st_.lru.Remove(b);
  st_.page_table.Erase(page_id);
  st_.images[b].reset();
  st_.meta[b] = BlockMeta{};
  st_.free_list.push_back(b);
  return true;
}

struct TieredPoolSnapshot : PoolSnapshot {
  TieredRdmaBufferPool::State state;
};

std::unique_ptr<PoolSnapshot> TieredRdmaBufferPool::CaptureState() const {
  auto s = std::make_unique<TieredPoolSnapshot>();
  s->state = st_;
  return s;
}

void TieredRdmaBufferPool::RestoreState(const PoolSnapshot& base) {
  const auto& s = static_cast<const TieredPoolSnapshot&>(base).state;
  POLAR_CHECK(s.images.size() == st_.images.size());
  st_ = s;
}

}  // namespace polarcxl::bufferpool
