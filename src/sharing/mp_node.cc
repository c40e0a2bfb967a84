#include "sharing/mp_node.h"

namespace polarcxl::sharing {

CxlSharedBufferPool::LocalMeta* CxlSharedBufferPool::Resolve(
    sim::ExecContext& ctx, PageId page_id) {
  auto it = local_.find(page_id);
  if (it != local_.end()) {
    LocalMeta& m = it->second;
    if (opt_.hardware_coherency) {
      // CXL 3.0: the hardware keeps peer caches coherent; only the removal
      // protocol (address recycling) still needs the flag line.
      const FlagLine flags =
          server_->flags().Load(ctx, acc_, m.slot, opt_.node);
      if (flags.removal != 0 || flags.generation != m.generation) {
        removals_observed_++;
        local_.erase(it);
      } else {
        stats_.hits++;
        return &m;
      }
    } else if (const FlagLine flags =
                   server_->flags().Load(ctx, acc_, m.slot, opt_.node);
               flags.removal != 0 || flags.generation != m.generation) {
      // The server recycled this CXL address (possibly rebinding the slot
      // to another page already); re-request below.
      removals_observed_++;
      local_.erase(it);
    } else {
      if (flags.invalid != 0) {
        // Another node modified the page: drop our CPU cache lines so the
        // next access reads the latest bytes from CXL memory.
        invalidations_observed_++;
        acc_->InvalidateCache(ctx, m.data_off, kPageSize);
        server_->flags().ClearInvalid(ctx, acc_, m.slot, opt_.node);
      }
      stats_.hits++;
      return &m;
    }
  }

  stats_.misses++;
  auto grant = server_->GetPage(ctx, opt_.node, page_id);
  POLAR_CHECK_MSG(grant.ok(), "buffer fusion could not grant page");
  if (grant->fresh) {
    // First toucher loads the page image from storage into the CXL frame.
    store_->ReadPage(ctx, page_id, acc_->Raw(grant->data_off));
    acc_->StreamTouch(ctx, grant->data_off, kPageSize, /*write=*/true);
  }
  LocalMeta meta;
  meta.slot = grant->slot;
  meta.data_off = grant->data_off;
  meta.generation = grant->generation;
  return &local_.emplace(page_id, meta).first->second;
}

Result<bufferpool::PageRef> CxlSharedBufferPool::Fetch(sim::ExecContext& ctx,
                                                       PageId page_id,
                                                       bool for_write) {
  stats_.fetches++;
  // Distributed page lock first; the invalid flag was set by the previous
  // writer before it released this lock.
  if (for_write) {
    locks_->AcquireExclusive(ctx, opt_.node, page_id);
  } else {
    locks_->AcquireShared(ctx, opt_.node, page_id);
  }
  LocalMeta* m = Resolve(ctx, page_id);
  if (for_write) m->write_fixes++;
  else m->read_fixes++;
  return bufferpool::PageRef{m->slot, acc_->Raw(m->data_off), acc_->space(),
                             acc_->PhysAddr(m->data_off)};
}

Status CxlSharedBufferPool::UpgradeToWrite(sim::ExecContext& ctx,
                                           bufferpool::PageRef& ref,
                                           PageId page_id) {
  (void)ref;
  auto it = local_.find(page_id);
  POLAR_CHECK(it != local_.end());
  locks_->AcquireExclusive(ctx, opt_.node, page_id);
  POLAR_CHECK(it->second.read_fixes > 0);
  it->second.read_fixes--;
  it->second.write_fixes++;
  return Status::OK();
}

void CxlSharedBufferPool::Unfix(sim::ExecContext& ctx,
                                const bufferpool::PageRef& ref,
                                PageId page_id, bool dirty, Lsn new_lsn) {
  (void)ref;
  (void)new_lsn;
  auto it = local_.find(page_id);
  POLAR_CHECK(it != local_.end());
  LocalMeta& m = it->second;
  if (m.write_fixes > 0) {
    m.write_fixes--;
    if (dirty && opt_.hardware_coherency) {
      // CXL 3.0: peers are back-invalidated by the coherence hardware as
      // the writer's stores propagate; charge a small snoop overhead
      // instead of the software flush + flag fan-out, and drop the peers'
      // cached lines so their next reads miss to the device.
      ctx.Advance(200);
      server_->HardwareBackInvalidate(opt_.node, page_id);
    } else if (dirty) {
      if (opt_.full_page_sync) {
        // Ablation: page-granularity synchronization.
        acc_->Flush(ctx, m.data_off, kPageSize);
        acc_->StreamTouch(ctx, m.data_off, kPageSize, /*write=*/true);
        dirty_lines_flushed_ += kLinesPerPage;
      } else {
        // Cache-line-granularity synchronization: flush only the lines
        // this node actually dirtied, then tell the server to invalidate
        // other active nodes.
        dirty_lines_flushed_ += acc_->Flush(ctx, m.data_off, kPageSize);
      }
      server_->WriteUnlockNotify(ctx, opt_.node, page_id);
    }
    locks_->ReleaseExclusive(ctx, opt_.node, page_id);
  } else {
    POLAR_CHECK(m.read_fixes > 0);
    m.read_fixes--;
    locks_->ReleaseShared(ctx, opt_.node, page_id);
  }
}

}  // namespace polarcxl::sharing
