#include "cxl/cxl_device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

namespace polarcxl::cxl {

namespace {

uint64_t HostPageSize() {
  static const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return page;
}

bool IsZero(const uint8_t* p, uint64_t len) {
  uint64_t acc = 0;
  for (uint64_t i = 0; i < len; i += sizeof(uint64_t)) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    acc |= w;
  }
  return acc == 0;
}

void WriteAll(int fd, const uint8_t* p, uint64_t len, uint64_t off) {
  while (len > 0) {
    const ssize_t n = pwrite(fd, p, len, static_cast<off_t>(off));
    POLAR_CHECK_MSG(n > 0, "pwrite to the device image failed");
    p += n;
    off += static_cast<uint64_t>(n);
    len -= static_cast<uint64_t>(n);
  }
}

/// /proc/self/pagemap entry bits (Documentation/admin-guide/mm/pagemap.rst).
constexpr uint64_t kPmPresent = 1ULL << 63;
constexpr uint64_t kPmSwap = 1ULL << 62;
constexpr uint64_t kPmFile = 1ULL << 61;

/// Calls `fn(page_index)` for every page of [base, base + pages * page size)
/// that this process holds privately: present or swapped, and not a page
/// of a mapped file. Those are exactly the pages whose bytes may differ
/// from the device image — written before the first capture, or copied on
/// write since the last one. Every other page reads back as the image (or
/// as zero) without being touched here; reading a memfd hole through the
/// mapping would allocate it.
template <typename Fn>
void ForEachPrivatePage(const uint8_t* base, uint64_t pages, Fn&& fn) {
  const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  POLAR_CHECK_MSG(fd >= 0, "open(/proc/self/pagemap) failed");
  const uint64_t first = reinterpret_cast<uintptr_t>(base) / HostPageSize();
  constexpr uint64_t kBatch = 4096;
  std::vector<uint64_t> entries(kBatch);
  for (uint64_t i = 0; i < pages; i += kBatch) {
    const uint64_t n = pages - i < kBatch ? pages - i : kBatch;
    const ssize_t want = static_cast<ssize_t>(n * sizeof(uint64_t));
    POLAR_CHECK_MSG(
        pread(fd, entries.data(), want,
              static_cast<off_t>((first + i) * sizeof(uint64_t))) == want,
        "pread(/proc/self/pagemap) failed");
    for (uint64_t k = 0; k < n; k++) {
      const uint64_t e = entries[k];
      if ((e & (kPmPresent | kPmSwap)) != 0 && (e & kPmFile) == 0) fn(i + k);
    }
  }
  POLAR_CHECK_MSG(close(fd) == 0, "close(/proc/self/pagemap) failed");
}

}  // namespace

CxlMemoryDevice::CxlMemoryDevice(uint64_t capacity_bytes)
    : map_bytes_((capacity_bytes + HostPageSize() - 1) / HostPageSize() *
                 HostPageSize()) {
  POLAR_CHECK_MSG(capacity_bytes > 0, "empty CXL device");
  void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  POLAR_CHECK_MSG(p != MAP_FAILED, "mmap of the device bytes failed");
  data_ = static_cast<uint8_t*>(p);
}

CxlMemoryDevice::~CxlMemoryDevice() {
  POLAR_CHECK_MSG(munmap(data_, map_bytes_) == 0,
                  "munmap of the device bytes failed");
  if (image_fd_ >= 0) {
    POLAR_CHECK_MSG(close(image_fd_) == 0, "close of the device image failed");
  }
}

void CxlMemoryDevice::CaptureImage() {
  const bool first = image_fd_ < 0;
  if (first) {
    image_fd_ = memfd_create("cxl-device-image", MFD_CLOEXEC);
    POLAR_CHECK_MSG(image_fd_ >= 0, "memfd_create failed");
    POLAR_CHECK_MSG(ftruncate(image_fd_, static_cast<off_t>(map_bytes_)) == 0,
                    "ftruncate of the device image failed");
  }
  // Sync each private page into the image: runs of non-zero pages are
  // written with one pwrite, zero pages become (or stay) holes, which read
  // back as zero for free.
  const uint64_t page = HostPageSize();
  uint64_t run_begin = 0;
  uint64_t run_end = 0;
  const auto flush_run = [&] {
    WriteAll(image_fd_, data_ + run_begin * page, (run_end - run_begin) * page,
             run_begin * page);
  };
  ForEachPrivatePage(data_, map_bytes_ / page, [&](uint64_t i) {
    if (IsZero(data_ + i * page, page)) {
      if (!first) {
        POLAR_CHECK_MSG(
            fallocate(image_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                      static_cast<off_t>(i * page),
                      static_cast<off_t>(page)) == 0,
            "fallocate(PUNCH_HOLE) on the device image failed");
      }
      return;
    }
    if (i != run_end) {
      flush_run();
      run_begin = i;
    }
    run_end = i + 1;
  });
  flush_run();
  if (first) {
    // Same address, now a private view of the image: the anonymous pages
    // are released and later writes copy a page on first touch.
    void* p = mmap(data_, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_FIXED | MAP_NORESERVE, image_fd_, 0);
    POLAR_CHECK_MSG(p == data_, "mmap(MAP_FIXED) over the device image failed");
  } else {
    // The image now holds every private page's bytes; drop the copies.
    RestoreImage();
  }
}

void CxlMemoryDevice::RestoreImage() {
  POLAR_CHECK_MSG(image_fd_ >= 0, "no device image captured");
  POLAR_CHECK_MSG(madvise(data_, map_bytes_, MADV_DONTNEED) == 0,
                  "madvise(MADV_DONTNEED) on the device bytes failed");
}

}  // namespace polarcxl::cxl
