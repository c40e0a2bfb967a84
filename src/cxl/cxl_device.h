// Copyright 2026 The PolarCXLMem Reproduction Authors.
// A CXL Type-3 memory device (expander): owns real bytes. Devices live in
// the memory box with its own power supply unit, so their contents survive
// host crashes — the property PolarRecv builds on.
//
// Host memory follows the bytes a world actually writes. The device is an
// anonymous MAP_NORESERVE mapping, so capacity that is never written costs
// no RSS. CaptureImage() freezes the current bytes as a copy-on-write image:
// the written pages go into a memfd (zero pages stay holes), which is then
// mapped privately over the same addresses. RestoreImage() drops the pages
// written since, and the MMU copies a page again on its next write. The
// base address never moves, so data() — and every pointer derived from it:
// Raw(), Translate(), in-place frames and headers — stays valid across
// capture and restore, and loads and stores remain plain memory accesses.
#pragma once

#include <cstdint>

#include "common/macros.h"

namespace polarcxl::cxl {

/// One memory expander module behind the switch (e.g., a DDR5 DIMM group
/// fronted by a CXL memory controller).
class CxlMemoryDevice {
 public:
  explicit CxlMemoryDevice(uint64_t capacity_bytes);
  ~CxlMemoryDevice();
  POLAR_DISALLOW_COPY(CxlMemoryDevice);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

  /// Makes the current bytes the device image, replacing any earlier one.
  /// Pure host-side work that copies only the pages written since the last
  /// capture (every written page, the first time).
  void CaptureImage();
  /// Rewinds every byte to the captured image: drops exactly the pages
  /// written since the capture.
  void RestoreImage();

 private:
  uint64_t map_bytes_;  // capacity rounded up to the host page size
  uint8_t* data_ = nullptr;
  int image_fd_ = -1;  // memfd holding the image; -1 before any capture
};

}  // namespace polarcxl::cxl
