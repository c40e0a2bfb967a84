#include "sharing/rdma_sharing.h"

#include <memory>
#include <utility>

namespace polarcxl::sharing {

RdmaSharingGroup::RdmaSharingGroup(rdma::RdmaNetwork* net, NodeId server_node,
                                   uint64_t dbp_pages,
                                   storage::PageStore* store)
    : net_(net),
      server_node_(server_node),
      dbp_(net, server_node, dbp_pages),
      locks_(std::make_unique<RdmaLockTransport>(net, server_node)),
      store_(store) {}

void RdmaSharingGroup::InvalidateOthers(sim::ExecContext& ctx, NodeId writer,
                                        PageId page) {
  const uint64_t mask = CachersOf(page);
  for (RdmaSharedBufferPool* member : members_) {
    const NodeId n = member->node();
    if (n == writer) continue;
    if ((mask & (1ULL << n)) != 0) {
      // One invalidation message per caching node, over the RDMA network.
      net_->Rpc(ctx, writer, n);
      member->DropInvalidated(page);
      RemoveCacher(page, n);
    }
  }
}

RdmaSharedBufferPool::RdmaSharedBufferPool(Options options,
                                           sim::MemorySpace* dram,
                                           RdmaSharingGroup* group)
    : opt_(options),
      dram_(dram),
      group_(group),
      images_(opt_.lbp_capacity_pages),
      meta_(opt_.lbp_capacity_pages),
      lru_(static_cast<uint32_t>(opt_.lbp_capacity_pages)) {
  free_list_.reserve(opt_.lbp_capacity_pages);
  for (uint32_t b = static_cast<uint32_t>(opt_.lbp_capacity_pages); b > 0;
       b--) {
    free_list_.push_back(b - 1);
  }
  group->Register(this);
}

uint32_t RdmaSharedBufferPool::AllocBlock(sim::ExecContext& ctx) {
  if (!free_list_.empty()) {
    const uint32_t b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  for (uint32_t b = lru_.tail(); b != bufferpool::kInvalidBlock;
       b = lru_.prev(b)) {
    BlockMeta& m = meta_[b];
    if (m.read_fixes + m.write_fixes > 0) continue;
    // Local copies are clean (write unlock flushed the page to the DBP),
    // so eviction is a silent drop plus directory deregistration.
    POLAR_CHECK_MSG(!m.dirty, "dirty page evicted without unlock flush");
    group_->RemoveCacher(m.page_id, opt_.node);
    lru_.Remove(b);
    page_table_.erase(m.page_id);
    images_[b].reset();
    m = BlockMeta{};
    stats_.evictions++;
    return b;
  }
  (void)ctx;
  return bufferpool::kInvalidBlock;
}

Result<bufferpool::PageRef> RdmaSharedBufferPool::Fetch(sim::ExecContext& ctx,
                                                        PageId page_id,
                                                        bool for_write) {
  stats_.fetches++;
  if (for_write) {
    group_->locks().AcquireExclusive(ctx, opt_.node, page_id);
  } else {
    group_->locks().AcquireShared(ctx, opt_.node, page_id);
  }

  const auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    stats_.hits++;
    const uint32_t b = it->second;
    if (for_write) meta_[b].write_fixes++;
    else meta_[b].read_fixes++;
    lru_.MoveToFront(b);
    uint8_t* data =
        for_write ? bufferpool::WritableImage(images_[b]) : FrameData(b);
    return bufferpool::PageRef{b, data, dram_, FrameAddr(b)};
  }

  stats_.misses++;
  const uint32_t b = AllocBlock(ctx);
  if (b == bufferpool::kInvalidBlock) {
    return Status::Busy("all LBP frames fixed");
  }
  // Full-page RDMA READ from the DBP (the frame aliases the DBP image), or
  // storage on first touch, which populates the DBP with the fresh image.
  Result<PageImageRef> dbp = group_->dbp().ReadPage(
      ctx, opt_.node, RdmaSharingGroup::kSharedTenant, page_id);
  if (dbp.ok()) {
    images_[b] = std::move(*dbp);
  } else {
    auto fresh = std::make_shared_for_overwrite<PageImage>();
    group_->store()->ReadPage(ctx, page_id, fresh->data());
    images_[b] = std::move(fresh);
    group_->dbp()
        .WritePage(ctx, opt_.node, RdmaSharingGroup::kSharedTenant, page_id,
                   images_[b])
        .ok();
  }
  dram_->Stream(ctx, FrameAddr(b), kPageSize, /*write=*/true);
  group_->AddCacher(page_id, opt_.node);

  BlockMeta& m = meta_[b];
  m.page_id = page_id;
  m.in_use = true;
  if (for_write) m.write_fixes = 1;
  else m.read_fixes = 1;
  page_table_[page_id] = b;
  lru_.PushFront(b);
  uint8_t* data =
      for_write ? bufferpool::WritableImage(images_[b]) : FrameData(b);
  return bufferpool::PageRef{b, data, dram_, FrameAddr(b)};
}

Status RdmaSharedBufferPool::UpgradeToWrite(sim::ExecContext& ctx,
                                            bufferpool::PageRef& ref,
                                            PageId page_id) {
  group_->locks().AcquireExclusive(ctx, opt_.node, page_id);
  BlockMeta& m = meta_[ref.block];
  POLAR_CHECK(m.read_fixes > 0);
  m.read_fixes--;
  m.write_fixes++;
  ref.data = bufferpool::WritableImage(images_[ref.block]);
  return Status::OK();
}

void RdmaSharedBufferPool::Unfix(sim::ExecContext& ctx,
                                 const bufferpool::PageRef& ref,
                                 PageId page_id, bool dirty, Lsn new_lsn) {
  (void)new_lsn;
  BlockMeta& m = meta_[ref.block];
  if (m.write_fixes > 0) {
    m.write_fixes--;
    if (dirty) m.dirty = true;
    if (m.dirty) {
      // The write fix made this frame its image's sole holder; a shared
      // image was written through a read fix, behind the DBP's back.
      POLAR_CHECK_MSG(images_[ref.block].use_count() == 1,
                      "dirty write unlock of a frame whose image is shared");
      // Flush the WHOLE page to the DBP before the lock can move on — even
      // a 1-byte change ships 16 KB (write amplification), and the lock
      // release is delayed by the transfer. The DBP takes the frame's
      // image itself; the next write fix here clones it.
      dram_->Stream(ctx, FrameAddr(ref.block), kPageSize, /*write=*/false);
      group_->dbp()
          .WritePage(ctx, opt_.node, RdmaSharingGroup::kSharedTenant,
                     page_id, images_[ref.block])
          .ok();
      group_->InvalidateOthers(ctx, opt_.node, page_id);
      m.dirty = false;
    }
    group_->locks().ReleaseExclusive(ctx, opt_.node, page_id);
  } else {
    POLAR_CHECK(m.read_fixes > 0);
    m.read_fixes--;
    group_->locks().ReleaseShared(ctx, opt_.node, page_id);
  }
}

void RdmaSharedBufferPool::TouchRange(sim::ExecContext& ctx,
                                      const bufferpool::PageRef& ref,
                                      uint32_t off, uint32_t len, bool write) {
  dram_->Touch(ctx, FrameAddr(ref.block) + off, len, write);
}

void RdmaSharedBufferPool::FlushDirtyPages(sim::ExecContext& ctx) {
  // Local copies are clean outside write fixes; persist the DBP instead.
  (void)ctx;
}

void RdmaSharedBufferPool::DropInvalidated(PageId page_id) {
  const auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return;
  BlockMeta& m = meta_[it->second];
  // An invalidation can only arrive when no fix is held here (the writer
  // held the exclusive lock).
  POLAR_CHECK(m.read_fixes + m.write_fixes == 0);
  lru_.Remove(it->second);
  free_list_.push_back(it->second);
  images_[it->second].reset();
  m = BlockMeta{};
  page_table_.erase(it);
  invalidations_received_++;
}

}  // namespace polarcxl::sharing
