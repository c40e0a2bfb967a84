#include "bufferpool/cxl_buffer_pool.h"

#include <algorithm>
#include <cstring>

namespace polarcxl::bufferpool {

namespace {
uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
}  // namespace

uint64_t CxlBufferPool::RegionBytes(uint64_t capacity_pages) {
  const uint64_t meta_area = 64 + capacity_pages * 64;
  return AlignUp(meta_area, kPageSize) + capacity_pages * kPageSize;
}

CxlBufferPool::CxlBufferPool(Options options, MemOffset region,
                             cxl::CxlAccessor* accessor,
                             storage::PageStore* store)
    : BufferPool(PoolKind::kCxl),
      opt_(options),
      region_(region),
      frames_off_(region + AlignUp(64 + options.capacity_pages * 64,
                                   kPageSize)),
      acc_(accessor),
      store_(store) {
  st_.page_table = PageMap(static_cast<uint32_t>(options.capacity_pages));
  st_.fix_count.assign(options.capacity_pages, 0);
  st_.dirty.assign(options.capacity_pages, 0);
  // HeaderRaw/MetaRaw access the device bytes in place as 8-byte-aligned
  // structs; regions are page-granular so this only fails if the device's
  // backing allocation itself is misaligned.
  POLAR_CHECK(reinterpret_cast<uintptr_t>(acc_->Raw(HeaderOff())) % 8 == 0);
}

Result<std::unique_ptr<CxlBufferPool>> CxlBufferPool::Create(
    sim::ExecContext& ctx, Options options, cxl::CxlAccessor* accessor,
    cxl::CxlMemoryManager* manager, storage::PageStore* store) {
  auto region = manager->Allocate(ctx, options.tenant,
                                  RegionBytes(options.capacity_pages));
  if (!region.ok()) return region.status();
  std::unique_ptr<CxlBufferPool> pool(
      new CxlBufferPool(options, *region, accessor, store));
  pool->FormatFresh(ctx);
  return pool;
}

Result<std::unique_ptr<CxlBufferPool>> CxlBufferPool::Attach(
    sim::ExecContext& ctx, Options options, MemOffset region,
    cxl::CxlAccessor* accessor, storage::PageStore* store) {
  std::unique_ptr<CxlBufferPool> pool(
      new CxlBufferPool(options, region, accessor, store));
  const CxlPoolHeader h = pool->LoadHeader(ctx);
  if (h.magic != kMagic || h.initialized != 1) {
    return Status::Corruption("CXL region holds no initialized pool");
  }
  if (h.num_blocks != pool->num_blocks()) {
    return Status::InvalidArgument("capacity mismatch on attach");
  }
  return pool;
}

void CxlBufferPool::FormatFresh(sim::ExecContext& ctx) {
  // Chain every block into the free list via `next`.
  for (uint32_t b = 0; b < num_blocks(); b++) {
    CxlBlockMeta m;
    m.next = b + 1 < num_blocks() ? b + 1 : kInvalidBlock;
    StoreMeta(ctx, b, m);
  }
  CxlPoolHeader h;
  h.magic = kMagic;
  h.num_blocks = num_blocks();
  h.free_head = 0;
  h.initialized = 1;
  StoreHeader(ctx, h);
}

// ---- charged metadata accessors ----

CxlPoolHeader CxlBufferPool::LoadHeader(sim::ExecContext& ctx) {
  return acc_->LoadPod<CxlPoolHeader>(ctx, HeaderOff());
}
void CxlBufferPool::StoreHeader(sim::ExecContext& ctx,
                                const CxlPoolHeader& h) {
  acc_->StorePod(ctx, HeaderOff(), h);
}
CxlBlockMeta CxlBufferPool::LoadMeta(sim::ExecContext& ctx, uint32_t block) {
  POLAR_CHECK(block < num_blocks());
  return acc_->LoadPod<CxlBlockMeta>(ctx, MetaOff(block));
}
void CxlBufferPool::StoreMeta(sim::ExecContext& ctx, uint32_t block,
                              const CxlBlockMeta& m) {
  POLAR_CHECK(block < num_blocks());
  acc_->StorePod(ctx, MetaOff(block), m);
}
uint8_t* CxlBufferPool::FrameRaw(uint32_t block) {
  return acc_->Raw(FrameOff(block));
}
void CxlBufferPool::ChargeFrameStream(sim::ExecContext& ctx, uint32_t block,
                                      bool write) {
  acc_->StreamTouch(ctx, FrameOff(block), kPageSize, write);
}
void CxlBufferPool::ChargeFrameTouch(sim::ExecContext& ctx, uint32_t block,
                                     uint32_t off, uint32_t len, bool write) {
  acc_->Touch(ctx, FrameOff(block) + off, len, write);
}

// ---- list helpers ----
//
// These run on every Fetch/Unfix, so the header/meta lines are updated in
// place through HeaderRaw()/MetaRaw() instead of LoadPod/StorePod struct
// round trips. The ChargeHeader/ChargeMeta calls reproduce the replaced
// pairs' charged accesses exactly — same lines, same read/write flags, same
// order — so simulated time and cache state are unchanged.

void CxlBufferPool::SetLruMutex(sim::ExecContext& ctx, uint32_t v) {
  ChargeHeader(ctx, /*write=*/false);
  HeaderRaw()->lru_mutex = v;
  ChargeHeader(ctx, /*write=*/true);
}

uint32_t CxlBufferPool::PopFree(sim::ExecContext& ctx) {
  ChargeHeader(ctx, /*write=*/false);
  CxlPoolHeader* h = HeaderRaw();
  const uint32_t b = h->free_head;
  if (b == kInvalidBlock) return b;
  ChargeMeta(ctx, b, /*write=*/false);
  h->free_head = MetaRaw(b)->next;
  ChargeHeader(ctx, /*write=*/true);
  return b;
}

void CxlBufferPool::PushFree(sim::ExecContext& ctx, uint32_t block) {
  ChargeHeader(ctx, /*write=*/false);
  CxlPoolHeader* h = HeaderRaw();
  CxlBlockMeta m;
  m.next = h->free_head;
  ChargeMeta(ctx, block, /*write=*/true);
  *MetaRaw(block) = m;
  h->free_head = block;
  ChargeHeader(ctx, /*write=*/true);
}

void CxlBufferPool::InUseUnlink(sim::ExecContext& ctx,
                                const CxlBlockMeta& m) {
  ChargeHeader(ctx, /*write=*/false);
  CxlPoolHeader* h = HeaderRaw();
  if (m.prev != kInvalidBlock) {
    ChargeMeta(ctx, m.prev, /*write=*/false);
    ChargeMeta(ctx, m.prev, /*write=*/true);
    MetaRaw(m.prev)->next = m.next;
  } else {
    h->inuse_head = m.next;
  }
  if (m.next != kInvalidBlock) {
    ChargeMeta(ctx, m.next, /*write=*/false);
    ChargeMeta(ctx, m.next, /*write=*/true);
    MetaRaw(m.next)->prev = m.prev;
  } else {
    h->inuse_tail = m.prev;
  }
  ChargeHeader(ctx, /*write=*/true);
}

void CxlBufferPool::InUsePushFront(sim::ExecContext& ctx, uint32_t block,
                                   CxlBlockMeta* m) {
  ChargeHeader(ctx, /*write=*/false);
  CxlPoolHeader* h = HeaderRaw();
  m->prev = kInvalidBlock;
  m->next = h->inuse_head;
  if (h->inuse_head != kInvalidBlock) {
    ChargeMeta(ctx, h->inuse_head, /*write=*/false);
    ChargeMeta(ctx, h->inuse_head, /*write=*/true);
    MetaRaw(h->inuse_head)->prev = block;
  }
  h->inuse_head = block;
  if (h->inuse_tail == kInvalidBlock) h->inuse_tail = block;
  ChargeHeader(ctx, /*write=*/true);
  ChargeMeta(ctx, block, /*write=*/true);
  *MetaRaw(block) = *m;
}

uint32_t CxlBufferPool::EvictTail(sim::ExecContext& ctx) {
  CxlPoolHeader h = LoadHeader(ctx);
  uint32_t b = h.inuse_tail;
  while (b != kInvalidBlock) {
    CxlBlockMeta m = LoadMeta(ctx, b);
    if (st_.fix_count[b] == 0) {
      if (st_.dirty[b] != 0) {
        ChargeFrameStream(ctx, b, /*write=*/false);
        EnsureWalDurable(ctx, FrameRaw(b));
        store_->WritePage(ctx, m.id, FrameRaw(b));
        st_.stats.dirty_writebacks++;
        st_.dirty[b] = 0;
      }
      InUseUnlink(ctx, m);
      st_.page_table.Erase(m.id);
      st_.stats.evictions++;
      return b;
    }
    b = m.prev;
  }
  return kInvalidBlock;
}

// ---- BufferPool interface ----

Result<PageRef> CxlBufferPool::Fetch(sim::ExecContext& ctx, PageId page_id,
                                     bool for_write) {
  if (acc_->HasFaultInjector()) {
    Status fault = acc_->CheckFault(ctx);
    if (!fault.ok()) {
      return FetchDegraded(ctx, page_id, for_write, std::move(fault));
    }
  }
  st_.stats.fetches++;
  const uint32_t found = st_.page_table.Find(page_id);
  if (found != PageMap::kNotFound) {
    st_.stats.hits++;
    const uint32_t b = found;
    // Arm the deferred-charge log: the hit path's ~15 single-line metadata
    // charges (meta read + mutex/unlink/push-front/mutex) are collected and
    // issued by FlushCharges as one fused TouchSeqMasked call, in the exact
    // order the immediate charges would have run.
    ChargeLog log;
    charge_log_ = &log;
    ChargeMeta(ctx, b, /*write=*/false);
    CxlBlockMeta m = *MetaRaw(b);
    if (for_write) m.lock_state = 1;
    // Move to front of the in-use list (LRU), guarded by the CXL-mirrored
    // mutex so recovery can detect a torn update.
    SetLruMutex(ctx, 1);
    InUseUnlink(ctx, m);
    InUsePushFront(ctx, b, &m);
    SetLruMutex(ctx, 0);
    FlushCharges(ctx, log);
    st_.fix_count[b]++;
    return PageRef{b, FrameRaw(b), acc_->space(), acc_->PhysAddr(FrameOff(b))};
  }

  st_.stats.misses++;
  SetLruMutex(ctx, 1);
  uint32_t b = PopFree(ctx);
  if (b == kInvalidBlock) b = EvictTail(ctx);
  if (b == kInvalidBlock) {
    SetLruMutex(ctx, 0);
    return Status::Busy("all CXL blocks fixed");
  }
  store_->ReadPage(ctx, page_id, FrameRaw(b));
  ChargeFrameStream(ctx, b, /*write=*/true);

  CxlBlockMeta m;
  m.id = page_id;
  m.in_use = 1;
  m.lock_state = for_write ? 1 : 0;
  // The frame was just installed from storage; adopt the page's own LSN
  // (bytes [8,16) of the header — see engine/page.h layout contract).
  Lsn page_lsn = 0;
  std::memcpy(&page_lsn, FrameRaw(b) + 8, sizeof(page_lsn));
  m.lsn = page_lsn;
  InUsePushFront(ctx, b, &m);
  SetLruMutex(ctx, 0);

  st_.page_table.Put(page_id, b);
  st_.fix_count[b] = 1;
  st_.dirty[b] = 0;
  return PageRef{b, FrameRaw(b), acc_->space(), acc_->PhysAddr(FrameOff(b))};
}

Result<PageRef> CxlBufferPool::FetchDegraded(sim::ExecContext& ctx,
                                             PageId page_id, bool for_write,
                                             Status cause) {
  st_.stats.fetches++;
  // Writes cannot proceed: the durable frame and its CXL-resident lock
  // state are unreachable, and accepting the write elsewhere would break
  // PolarRecv's crash contract. Same for a cached *dirty* page — its only
  // fresh image is the unreachable frame.
  if (for_write) {
    st_.stats.fault_rejections++;
    return cause;
  }
  const uint32_t found = st_.page_table.Find(page_id);
  if (found != PageMap::kNotFound && st_.dirty[found] != 0) {
    st_.stats.fault_rejections++;
    return cause;
  }
  // Clean or uncached: storage holds the page's latest durable image, so
  // the read is served from disk through a local scratch frame.
  if (st_.emergency.empty()) st_.emergency.resize(kEmergencyFrames);
  for (uint32_t i = 0; i < st_.emergency.size(); i++) {
    EmergencyFrame& e = st_.emergency[i];
    if (e.fix_count != 0) continue;
    if (e.data.empty()) e.data.resize(kPageSize);
    store_->ReadPage(ctx, page_id, e.data.data());
    e.page_id = page_id;
    e.fix_count = 1;
    st_.stats.degraded_fetches++;
    // A null space: the frame is node-local scratch DRAM outside every
    // simulated tier, so accesses to it are uncharged.
    return PageRef{num_blocks() + i, e.data.data(), nullptr, 0};
  }
  st_.stats.fault_rejections++;
  return Status::Busy("all degraded-mode fallback frames fixed");
}

void CxlBufferPool::Unfix(sim::ExecContext& ctx, const PageRef& ref,
                          PageId page_id, bool dirty, Lsn new_lsn) {
  (void)page_id;
  const uint32_t b = ref.block;
  if (b >= num_blocks()) {
    EmergencyFrame& e = st_.emergency[b - num_blocks()];
    POLAR_CHECK_MSG(!dirty, "degraded fallback frame released dirty");
    POLAR_CHECK(e.fix_count > 0);
    e.fix_count--;
    return;
  }
  POLAR_CHECK(st_.fix_count[b] > 0);
  st_.fix_count[b]--;
  // In-place meta update; charges match the old load/store struct pair.
  ChargeMeta(ctx, b, /*write=*/false);
  CxlBlockMeta* m = MetaRaw(b);
  if (dirty) {
    st_.dirty[b] = 1;
    if (new_lsn > m->lsn) m->lsn = new_lsn;
  }
  if (st_.fix_count[b] == 0) m->lock_state = 0;
  ChargeMeta(ctx, b, /*write=*/true);
}

Status CxlBufferPool::UpgradeToWrite(sim::ExecContext& ctx, PageRef& ref,
                                     PageId page_id) {
  (void)page_id;
  if (ref.block >= num_blocks()) {
    // A degraded read fix cannot be promoted: writes need the real frame.
    st_.stats.fault_rejections++;
    return Status::IOError("cxl device down: cannot upgrade fallback frame");
  }
  ChargeMeta(ctx, ref.block, /*write=*/false);
  MetaRaw(ref.block)->lock_state = 1;
  ChargeMeta(ctx, ref.block, /*write=*/true);
  return Status::OK();
}

bool CxlBufferPool::FlushDirtyPages(sim::ExecContext& ctx) {
  if (acc_->HasFaultInjector() && !acc_->CheckFault(ctx).ok()) {
    // Checkpoint deferred: the frames are unreachable mid-fault. The redo
    // for every dirty page stays in the WAL, and the checkpoint stays put,
    // so recovery still replays it.
    return false;
  }
  for (uint32_t b = 0; b < num_blocks(); b++) {
    if (st_.dirty[b] == 0) continue;
    const CxlBlockMeta m = LoadMeta(ctx, b);
    if (m.in_use == 0) continue;
    ChargeFrameStream(ctx, b, /*write=*/false);
    EnsureWalDurable(ctx, FrameRaw(b));
    store_->WritePage(ctx, m.id, FrameRaw(b));
    st_.dirty[b] = 0;
  }
  return true;
}

bool CxlBufferPool::Cached(PageId page_id) const {
  return st_.page_table.Contains(page_id);
}

void CxlBufferPool::FinishRecoveryScanned(
    sim::ExecContext& ctx,
    const std::vector<std::pair<uint32_t, CxlBlockMeta>>& metas,
    bool rebuild_lists) {
  st_.page_table.Clear();
  std::fill(st_.fix_count.begin(), st_.fix_count.end(), 0);

  std::vector<uint32_t> in_use;
  for (const auto& [b, m] : metas) {
    if (m.in_use != 0) {
      POLAR_CHECK_MSG(!st_.page_table.Contains(m.id),
                      "duplicate page in recovered pool");
      st_.page_table.Put(m.id, b);
      in_use.push_back(b);
      // Conservatively dirty: the crash lost the dirty bitmap.
      st_.dirty[b] = 1;
    } else {
      st_.dirty[b] = 0;
    }
  }

  if (!rebuild_lists) return;

  // Rewrite both lists from the scanned metadata (recency order is lost);
  // every pointer fix is one CXL line store.
  CxlPoolHeader h = LoadHeader(ctx);
  h.free_head = kInvalidBlock;
  h.inuse_head = kInvalidBlock;
  h.inuse_tail = kInvalidBlock;
  for (const auto& [b, scanned] : metas) {
    if (scanned.in_use != 0) continue;
    CxlBlockMeta m;
    m.next = h.free_head;
    StoreMeta(ctx, b, m);
    h.free_head = b;
  }
  uint32_t prev = kInvalidBlock;
  CxlBlockMeta prev_meta;
  for (uint32_t b : in_use) {
    CxlBlockMeta m = metas[b].second;
    POLAR_CHECK(metas[b].first == b);
    m.prev = prev;
    m.next = kInvalidBlock;
    if (prev != kInvalidBlock) {
      prev_meta.next = b;
      StoreMeta(ctx, prev, prev_meta);
    } else {
      h.inuse_head = b;
    }
    h.inuse_tail = b;
    prev = b;
    prev_meta = m;
  }
  if (prev != kInvalidBlock) StoreMeta(ctx, prev, prev_meta);
  h.lru_mutex = 0;
  StoreHeader(ctx, h);
}

struct CxlPoolSnapshot : PoolSnapshot {
  CxlBufferPool::State state;
};

std::unique_ptr<PoolSnapshot> CxlBufferPool::CaptureState() const {
  auto s = std::make_unique<CxlPoolSnapshot>();
  s->state = st_;
  return s;
}

void CxlBufferPool::RestoreState(const PoolSnapshot& base) {
  st_ = static_cast<const CxlPoolSnapshot&>(base).state;
}

}  // namespace polarcxl::bufferpool
