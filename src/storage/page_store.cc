#include "storage/page_store.h"

#include <cstring>

namespace polarcxl::storage {

void PageStore::ReadPage(sim::ExecContext& ctx, PageId page_id, void* dst) {
  disk_->Read(ctx, kPageSize);
  ctx.pages_read_io++;
  if (Contains(page_id)) {
    std::memcpy(dst, pages_[page_id]->data(), kPageSize);
  } else {
    std::memset(dst, 0, kPageSize);
  }
}

void PageStore::WritePage(sim::ExecContext& ctx, PageId page_id,
                          const void* src) {
  disk_->Write(ctx, kPageSize);
  ctx.pages_written_io++;
  if (page_id >= pages_.size()) pages_.resize(page_id + 1);
  PageImageRef& slot = pages_[page_id];
  if (slot == nullptr) num_pages_++;
  // Copy-on-write: if a snapshot still shares this image, swap in a fresh
  // allocation instead of mutating it. The whole page is overwritten, so
  // the old contents never need copying and the new image is not zeroed.
  if (slot == nullptr || slot.use_count() > 1) {
    slot = std::make_shared_for_overwrite<PageImage>();
  }
  std::memcpy(const_cast<uint8_t*>(slot->data()), src, kPageSize);
}

const uint8_t* PageStore::RawPage(PageId page_id) const {
  return Contains(page_id) ? pages_[page_id]->data() : nullptr;
}

}  // namespace polarcxl::storage
