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
    return page_id < st_.pages.size() && st_.pages[page_id] != nullptr;
  }
  const uint8_t* RawPage(PageId page_id) const;

  uint64_t num_pages() const { return st_.num_pages; }
  SimDisk* disk() { return disk_; }

  /// Copy-on-write snapshot of the durable page images, direct-indexed by
  /// PageId: ids are bump-allocated, so the id space is dense and a flat
  /// vector beats a hash table (a never-written id costs one null
  /// pointer). Capture shares the page payloads (one refcounted pointer
  /// per page). WritePage overwrites a payload in place only while this
  /// store holds its sole reference; a slot a snapshot still references
  /// gets a fresh image instead, so captured images stay frozen.
  struct State {
    std::vector<PageImageRef> pages;
    uint64_t num_pages = 0;  // non-null entries
  };
  State Capture() const { return st_; }
  void Restore(const State& s) { st_ = s; }

 private:
  SimDisk* disk_;
  State st_;
};

}  // namespace polarcxl::storage
