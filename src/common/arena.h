// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Bump allocator for transaction-scoped scratch memory. The steady-state
// step path (one query / one mini-transaction) allocates handle overflow
// blocks and workload row scratch from an arena that is reset when the
// transaction finishes, so the hot loop performs no malloc after warm-up:
// Reset() just rewinds a pointer and keeps the chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace polarcxl {

/// Not thread-safe (one arena per database instance / workload driver; the
/// executor serializes all lanes of an experiment).
class Arena {
 public:
  explicit Arena(size_t initial_chunk_bytes = 4096)
      : chunk_bytes_(initial_chunk_bytes) {}
  POLAR_DISALLOW_COPY(Arena);

  /// Returns `n` bytes aligned to `align` (power of two). Never fails;
  /// grows by doubling chunks.
  void* Alloc(size_t n, size_t align = alignof(std::max_align_t)) {
    POLAR_CHECK((align & (align - 1)) == 0);
    uintptr_t p = (cur_ + align - 1) & ~(align - 1);
    if (p + n > end_) {
      Grow(n + align);
      p = (cur_ + align - 1) & ~(align - 1);
    }
    cur_ = p + n;
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* AllocArray(size_t n) {
    return static_cast<T*>(Alloc(n * sizeof(T), alignof(T)));
  }

  /// Constructs a T in arena memory. T must be trivially destructible (the
  /// arena never runs destructors).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return new (Alloc(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Rewinds to empty. The largest chunk is kept so a warmed-up arena never
  /// touches malloc again; smaller chunks from the growth phase are freed.
  void Reset() {
    if (chunks_.size() > 1) {
      // Keep only the newest (largest) chunk.
      chunks_.front() = std::move(chunks_.back());
      chunks_.resize(1);
    }
    if (!chunks_.empty()) {
      cur_ = reinterpret_cast<uintptr_t>(chunks_.front().data.get());
      end_ = cur_ + chunks_.front().size;
    }
  }

  /// Bytes currently handed out since the last Reset (diagnostics).
  size_t bytes_used() const {
    size_t sum = 0;
    for (const Chunk& c : chunks_) sum += c.size;
    if (!chunks_.empty()) {
      sum -= end_ - cur_;  // unused tail of the active chunk
    }
    return sum;
  }
  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  void Grow(size_t at_least) {
    while (chunk_bytes_ < at_least) chunk_bytes_ *= 2;
    Chunk c;
    c.data = std::make_unique<uint8_t[]>(chunk_bytes_);
    c.size = chunk_bytes_;
    cur_ = reinterpret_cast<uintptr_t>(c.data.get());
    end_ = cur_ + c.size;
    chunks_.push_back(std::move(c));
    chunk_bytes_ *= 2;  // next chunk doubles
  }

  size_t chunk_bytes_;
  uintptr_t cur_ = 0;
  uintptr_t end_ = 0;
  std::vector<Chunk> chunks_;
};

}  // namespace polarcxl
