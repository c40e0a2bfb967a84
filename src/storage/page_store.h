// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Durable page images on shared storage. Owned outside the database
// instance, so contents survive crashes. Pages not yet written read back as
// freshly formatted zero pages.
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk.h"

namespace polarcxl::storage {

class PageStore {
 public:
  explicit PageStore(SimDisk* disk) : disk_(disk) {}
  POLAR_DISALLOW_COPY(PageStore);

  /// Reads a page image into `dst` (zeros if never written), charging the
  /// disk.
  void ReadPage(sim::ExecContext& ctx, PageId page_id, void* dst);

  /// Durably writes a page image, charging the disk.
  void WritePage(sim::ExecContext& ctx, PageId page_id, const void* src);

  /// Direct (uncharged) access for checkpointer bookkeeping and tests.
  bool Contains(PageId page_id) const {
    return page_id < pages_.size() && pages_[page_id] != nullptr;
  }
  const uint8_t* RawPage(PageId page_id) const;

  uint64_t num_pages() const { return num_pages_; }
  SimDisk* disk() { return disk_; }

  /// Copy-on-write snapshot of the durable page images. Capture shares the
  /// page payloads (cheap: one refcounted pointer per page); WritePage
  /// replaces a shared slot with a fresh allocation instead of mutating it,
  /// so captured images stay frozen.
  struct State {
    std::vector<PageImageRef> pages;
    uint64_t num_pages = 0;
  };
  State Capture() const { return State{pages_, num_pages_}; }
  void Restore(const State& s) {
    pages_ = s.pages;
    num_pages_ = s.num_pages;
  }

 private:
  SimDisk* disk_;
  // Direct-indexed by PageId: ids are bump-allocated from the superblock
  // counter, so the id space is dense and a flat vector beats a hash table
  // on every checkpoint/recovery access (no hashing, no rehash growth).
  // Holes (never-written ids) cost one null pointer each.
  //
  // Payloads are immutable handles so a world snapshot can alias them (see
  // State). WritePage overwrites a payload in place (through a const_cast)
  // only while this store holds its sole reference; a slot a snapshot
  // still references gets a fresh image instead.
  std::vector<PageImageRef> pages_;
  uint64_t num_pages_ = 0;  // non-null entries
};

}  // namespace polarcxl::storage
