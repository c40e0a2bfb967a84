#include "bufferpool/buffer_pool.h"

#include <cstring>
#include <memory>
#include <vector>

namespace polarcxl::bufferpool {

uint8_t* WritableImage(PageImageRef& image) {
  if (image.use_count() > 1) {
    auto copy = std::make_shared_for_overwrite<PageImage>();
    std::memcpy(copy->data(), image->data(), kPageSize);
    image = std::move(copy);
  }
  // Every image is allocated non-const; the const in PageImageRef is the
  // sharing contract, which the sole reference lifts.
  return const_cast<uint8_t*>(image->data());
}

void LruList::PushFront(uint32_t b) {
  prev_[b] = kInvalidBlock;
  next_[b] = head_;
  if (head_ != kInvalidBlock) prev_[head_] = b;
  head_ = b;
  if (tail_ == kInvalidBlock) tail_ = b;
}

void LruList::Remove(uint32_t b) {
  const uint32_t p = prev_[b];
  const uint32_t n = next_[b];
  if (p != kInvalidBlock) next_[p] = n;
  else if (head_ == b) head_ = n;
  if (n != kInvalidBlock) prev_[n] = p;
  else if (tail_ == b) tail_ = p;
  prev_[b] = next_[b] = kInvalidBlock;
}

}  // namespace polarcxl::bufferpool
