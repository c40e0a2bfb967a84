#include "sharing/rdma_sharing.h"

#include <memory>

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
  for (RdmaSharedBufferPool* member : members_) {
    const NodeId n = member->node();
    if (n == writer || !member->Cached(page)) continue;
    // One invalidation message per caching node, over the RDMA network.
    net_->Rpc(ctx, writer, n);
    member->DropInvalidated(page);
  }
}

namespace {
bufferpool::TieredRdmaBufferPool::Options LbpOptions(
    const RdmaSharedBufferPool::Options& o) {
  bufferpool::TieredRdmaBufferPool::Options lo;
  lo.lbp_capacity_pages = o.lbp_capacity_pages;
  lo.node = o.node;
  lo.tenant = RdmaSharingGroup::kSharedTenant;
  lo.phys_base = o.phys_base;
  return lo;
}
}  // namespace

RdmaSharedBufferPool::RdmaSharedBufferPool(Options options,
                                           sim::MemorySpace* dram,
                                           RdmaSharingGroup* group)
    : node_(options.node),
      group_(group),
      lbp_(LbpOptions(options), dram, &group->dbp(), group->store()),
      write_fixes_(options.lbp_capacity_pages) {
  group->Register(this);
}

Result<bufferpool::PageRef> RdmaSharedBufferPool::Fetch(sim::ExecContext& ctx,
                                                        PageId page_id,
                                                        bool for_write) {
  if (for_write) {
    group_->locks().AcquireExclusive(ctx, node_, page_id);
  } else {
    group_->locks().AcquireShared(ctx, node_, page_id);
  }
  // A miss is a full-page RDMA READ from the DBP, or storage on first
  // touch (which populates the DBP). The LBP's pages are clean outside
  // write fixes, so its evictions are silent drops.
  Result<bufferpool::PageRef> ref = lbp_.Fetch(ctx, page_id, for_write);
  if (ref.ok() && for_write) write_fixes_[ref->block]++;
  return ref;
}

Status RdmaSharedBufferPool::UpgradeToWrite(sim::ExecContext& ctx,
                                            bufferpool::PageRef& ref,
                                            PageId page_id) {
  group_->locks().AcquireExclusive(ctx, node_, page_id);
  write_fixes_[ref.block]++;
  return lbp_.UpgradeToWrite(ctx, ref, page_id);
}

void RdmaSharedBufferPool::Unfix(sim::ExecContext& ctx,
                                 const bufferpool::PageRef& ref,
                                 PageId page_id, bool dirty, Lsn new_lsn) {
  if (write_fixes_[ref.block] == 0) {
    lbp_.Unfix(ctx, ref, page_id, /*dirty=*/false, new_lsn);
    group_->locks().ReleaseShared(ctx, node_, page_id);
    return;
  }
  write_fixes_[ref.block]--;
  lbp_.Unfix(ctx, ref, page_id, dirty, new_lsn);
  if (dirty) {
    // Ship the WHOLE page to the DBP before the lock can move on — even a
    // 1-byte change ships 16 KB (write amplification), and the lock
    // release is delayed by the transfer. The DBP takes the frame's image
    // itself; the next write fix here clones it.
    lbp_.WriteBack(ctx, ref.block);
    group_->InvalidateOthers(ctx, node_, page_id);
  }
  group_->locks().ReleaseExclusive(ctx, node_, page_id);
}

void RdmaSharedBufferPool::DropInvalidated(PageId page_id) {
  // An invalidation can only arrive when no fix is held here (the writer
  // held the exclusive lock); Drop checks it.
  if (lbp_.Drop(page_id)) invalidations_received_++;
}

}  // namespace polarcxl::sharing
