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
      store_(store),
      images_(opt_.lbp_capacity_pages),
      meta_(opt_.lbp_capacity_pages),
      lru_(static_cast<uint32_t>(opt_.lbp_capacity_pages)),
      page_table_(static_cast<uint32_t>(opt_.lbp_capacity_pages)) {
  free_list_.reserve(opt_.lbp_capacity_pages);
  for (uint32_t b = static_cast<uint32_t>(opt_.lbp_capacity_pages); b > 0;
       b--) {
    free_list_.push_back(b - 1);
  }
  retry_budget_left_ = opt_.retry_budget;
}

bool TieredRdmaBufferPool::ConsumeRetryBudget(Nanos backoff) {
  if (opt_.retry_budget == 0) return true;  // unlimited (legacy)
  if (retry_budget_left_ < backoff) {
    stats_.retries_exhausted++;
    return false;
  }
  retry_budget_left_ -= backoff;
  return true;
}

Result<PageImageRef> TieredRdmaBufferPool::RemoteReadRetry(
    sim::ExecContext& ctx, PageId page_id) {
  Nanos backoff = kVerbsBackoffBase;
  for (int attempt = 1;; attempt++) {
    Result<PageImageRef> r =
        remote_->ReadPage(ctx, opt_.node, opt_.tenant, page_id);
    if (r.ok()) {
      retry_budget_left_ = opt_.retry_budget;  // healthy NIC refills budget
      return r;
    }
    const Status& s = r.status();
    if (!s.IsIOError() || attempt == kVerbsAttempts) return s;
    if (!ConsumeRetryBudget(backoff)) {
      return Status::Unavailable("verbs retry budget exhausted");
    }
    stats_.fault_retries++;
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
      retry_budget_left_ = opt_.retry_budget;
      return s;
    }
    if (!s.IsIOError() || attempt == kVerbsAttempts) return s;
    if (!ConsumeRetryBudget(backoff)) {
      return Status::Unavailable("verbs retry budget exhausted");
    }
    stats_.fault_retries++;
    ctx.t_net += backoff;
    ctx.Advance(backoff);
    backoff = std::min(backoff * 2, kVerbsBackoffCap);
  }
}

void TieredRdmaBufferPool::WriteBack(sim::ExecContext& ctx, uint32_t block) {
  BlockMeta& m = meta_[block];
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
    POLAR_CHECK_MSG(remote_->Peek(opt_.tenant, m.page_id) != images_[block],
                    "dirty LBP frame aliases the remote tier's image");
    remote_ok = RemoteWriteRetry(ctx, m.page_id, images_[block]).ok();
  }
  if (!remote_ok) {
    // No remote tier, remote pool full, or NIC still down after retries:
    // storage keeps the dirty page from being lost.
    store_->WritePage(ctx, m.page_id, FrameData(block));
  }
  stats_.dirty_writebacks++;
  m.dirty = false;
}

uint32_t TieredRdmaBufferPool::AllocBlock(sim::ExecContext& ctx) {
  if (!free_list_.empty()) {
    const uint32_t b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  for (uint32_t b = lru_.tail(); b != kInvalidBlock; b = lru_.prev(b)) {
    BlockMeta& m = meta_[b];
    if (m.fix_count > 0) continue;
    if (m.dirty) WriteBack(ctx, b);
    lru_.Remove(b);
    page_table_.Erase(m.page_id);
    images_[b].reset();
    m = BlockMeta{};
    stats_.evictions++;
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
      remote_hits_++;
      return std::move(*remote);
    }
    const Status& s = remote.status();
    if (s.IsIOError() || s.IsUnavailable()) {
      // NIC still down after the per-op retries — or the total retry
      // budget is spent: serve from storage and skip the remote populate
      // (it would only burn more retries).
      stats_.degraded_fetches++;
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
  stats_.fetches++;
  const uint32_t found = page_table_.Find(page_id);
  if (found != PageMap::kNotFound) {
    stats_.hits++;
    const uint32_t b = found;
    meta_[b].fix_count++;
    lru_.MoveToFront(b);
    uint8_t* data = for_write ? WritableImage(images_[b]) : FrameData(b);
    return PageRef{b, data, dram_, FrameAddr(b)};
  }

  stats_.misses++;
  const uint32_t b = AllocBlock(ctx);
  if (b == kInvalidBlock) return Status::Busy("all LBP frames fixed");
  images_[b] = LoadImage(ctx, page_id);
  // Installing the image streams it into local DRAM.
  dram_->Stream(ctx, FrameAddr(b), kPageSize, /*write=*/true);

  BlockMeta& m = meta_[b];
  m.page_id = page_id;
  m.in_use = true;
  m.dirty = false;
  m.fix_count = 1;
  page_table_.Put(page_id, b);
  lru_.PushFront(b);
  uint8_t* data = for_write ? WritableImage(images_[b]) : FrameData(b);
  return PageRef{b, data, dram_, FrameAddr(b)};
}

void TieredRdmaBufferPool::Unfix(sim::ExecContext& ctx, const PageRef& ref,
                                 PageId page_id, bool dirty, Lsn new_lsn) {
  (void)ctx;
  (void)page_id;
  BlockMeta& m = meta_[ref.block];
  POLAR_CHECK(m.fix_count > 0);
  m.fix_count--;
  if (dirty) {
    // Only a write fix may dirty a frame, and it made the frame the sole
    // holder of its image. A shared image here was written through a read
    // fix, which changed the remote tier's copy and every snapshot's too.
    POLAR_CHECK_MSG(images_[ref.block].use_count() == 1,
                    "dirty unfix of an LBP frame whose image is shared");
    m.dirty = true;
    if (new_lsn > m.lsn) m.lsn = new_lsn;
  }
}

bool TieredRdmaBufferPool::FlushDirtyPages(sim::ExecContext& ctx) {
  for (uint32_t b = 0; b < meta_.size(); b++) {
    BlockMeta& m = meta_[b];
    if (m.in_use && m.dirty) {
      dram_->Stream(ctx, FrameAddr(b), kPageSize, /*write=*/false);
      EnsureWalDurable(ctx, FrameData(b));
      store_->WritePage(ctx, m.page_id, FrameData(b));
      // Keep the remote tier coherent with the checkpoint (by reference:
      // the frame's next write fix clones). Storage already holds the
      // page, so giving up after the retry budget is safe.
      if (remote_ != nullptr) {
        RemoteWriteRetry(ctx, m.page_id, images_[b]).ok();
      }
      m.dirty = false;
    }
  }
  return true;
}

bool TieredRdmaBufferPool::Cached(PageId page_id) const {
  return page_table_.Contains(page_id);
}

bool TieredRdmaBufferPool::Drop(PageId page_id) {
  const uint32_t b = page_table_.Find(page_id);
  if (b == PageMap::kNotFound) return false;
  POLAR_CHECK(meta_[b].fix_count == 0);
  lru_.Remove(b);
  page_table_.Erase(page_id);
  images_[b].reset();
  meta_[b] = BlockMeta{};
  free_list_.push_back(b);
  return true;
}

/// The LBP's state. Frames are captured as image handles, not bytes: a
/// frame written after the capture clones first, so the snapshot's images
/// never change. (A remote tier snapshots itself via
/// RemoteMemoryPool::Capture.)
struct TieredPoolSnapshot : PoolSnapshot {
  std::vector<PageImageRef> images;
  std::vector<TieredRdmaBufferPool::BlockMeta> meta;
  std::vector<uint32_t> free_list;
  LruList lru{0};
  PageMap page_table;
  BufferPoolStats stats;
  uint64_t remote_hits = 0;
  Nanos retry_budget_left = 0;
};

std::unique_ptr<PoolSnapshot> TieredRdmaBufferPool::CaptureState() const {
  auto s = std::make_unique<TieredPoolSnapshot>();
  s->images = images_;
  s->meta = meta_;
  s->free_list = free_list_;
  s->lru = lru_;
  s->page_table = page_table_;
  s->stats = stats_;
  s->remote_hits = remote_hits_;
  s->retry_budget_left = retry_budget_left_;
  return s;
}

void TieredRdmaBufferPool::RestoreState(const PoolSnapshot& base) {
  const auto& s = static_cast<const TieredPoolSnapshot&>(base);
  POLAR_CHECK(s.images.size() == images_.size());
  images_ = s.images;
  meta_ = s.meta;
  free_list_ = s.free_list;
  lru_ = s.lru;
  page_table_ = s.page_table;
  stats_ = s.stats;
  remote_hits_ = s.remote_hits;
  retry_budget_left_ = s.retry_budget_left;
}

}  // namespace polarcxl::bufferpool
