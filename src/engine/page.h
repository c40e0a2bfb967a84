// Copyright 2026 The PolarCXLMem Reproduction Authors.
// 16 KB page layout (InnoDB lineage). A PageView is a non-owning window over
// a buffer pool frame; mutations that must be crash-consistent go through a
// MiniTransaction, never through the raw setters.
//
// Layout contract (fixed offsets; the buffer pools peek [8,16) for the LSN):
//   [0,4)   magic
//   [4,8)   page_id
//   [8,16)  page_lsn
//   [16]    level (0 = leaf)
//   [17]    flags
//   [18,20) nkeys
//   [20,24) next_leaf / free-chain link
//   [24,26) value_size (payload bytes per entry; 4 for internal nodes)
//   [26,64) reserved
//   [64,..) entries: nkeys * (8-byte key + value_size bytes), key-sorted
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace polarcxl::engine {

constexpr uint32_t kPageMagic = 0x50435842;  // "PCXB"
constexpr uint32_t kPageHeaderSize = 64;
constexpr uint32_t kKeySize = 8;

/// Byte offsets of header fields.
struct PageOffsets {
  static constexpr uint32_t kMagic = 0;
  static constexpr uint32_t kPageId = 4;
  static constexpr uint32_t kLsn = 8;
  static constexpr uint32_t kLevel = 16;
  static constexpr uint32_t kFlags = 17;
  static constexpr uint32_t kNKeys = 18;
  static constexpr uint32_t kNextLeaf = 20;
  static constexpr uint32_t kValueSize = 24;
};

/// Fixed-capacity record of the key offsets a binary search probed, so the
/// caller can charge the simulated reads actually made. A page holds at most
/// (kPageSize - kPageHeaderSize) / kKeySize = 2040 entries, so a search
/// probes at most ceil(log2(2040)) = 11 offsets; the inline array keeps the
/// per-lookup bookkeeping allocation-free (lookups are the hot path).
struct ProbeList {
  static constexpr uint32_t kMaxProbes = 16;
  uint32_t count = 0;
  uint32_t offs[kMaxProbes];

  void Add(uint32_t off) {
    POLAR_CHECK(count < kMaxProbes);
    offs[count++] = off;
  }
  const uint32_t* begin() const { return offs; }
  const uint32_t* end() const { return offs + count; }
};

/// Non-owning typed view over one 16 KB frame.
class PageView {
 public:
  explicit PageView(uint8_t* data) : d_(data) {}

  // --- header accessors (raw; see file comment for mutation discipline) ---
  uint32_t magic() const { return Load32(PageOffsets::kMagic); }
  PageId page_id() const { return Load32(PageOffsets::kPageId); }
  Lsn lsn() const { return Load64(PageOffsets::kLsn); }
  uint8_t level() const { return d_[PageOffsets::kLevel]; }
  bool is_leaf() const { return level() == 0; }
  uint16_t nkeys() const { return Load16(PageOffsets::kNKeys); }
  PageId next_leaf() const { return Load32(PageOffsets::kNextLeaf); }
  uint16_t value_size() const { return Load16(PageOffsets::kValueSize); }

  void set_magic(uint32_t v) { Store32(PageOffsets::kMagic, v); }
  void set_page_id(PageId v) { Store32(PageOffsets::kPageId, v); }
  void set_lsn(Lsn v) { Store64(PageOffsets::kLsn, v); }
  void set_level(uint8_t v) { d_[PageOffsets::kLevel] = v; }
  void set_nkeys(uint16_t v) { Store16(PageOffsets::kNKeys, v); }
  void set_next_leaf(PageId v) { Store32(PageOffsets::kNextLeaf, v); }
  void set_value_size(uint16_t v) { Store16(PageOffsets::kValueSize, v); }

  bool IsFormatted() const { return magic() == kPageMagic; }

  /// Formats an empty page in place (no logging; callers log a kFormat
  /// record via the mini-transaction).
  void Format(PageId id, uint8_t level, uint16_t value_size);

  // --- entry geometry ---
  uint32_t entry_size() const { return kKeySize + value_size(); }
  uint32_t EntryOffset(uint32_t i) const {
    return kPageHeaderSize + i * entry_size();
  }
  uint16_t Capacity() const {
    return static_cast<uint16_t>((kPageSize - kPageHeaderSize) /
                                 entry_size());
  }
  bool IsFull() const { return nkeys() >= Capacity(); }

  uint64_t KeyAt(uint32_t i) const {
    POLAR_CHECK(i < nkeys());
    return Load64(EntryOffset(i));
  }
  const uint8_t* ValueAt(uint32_t i) const {
    return d_ + EntryOffset(i) + kKeySize;
  }

  /// Index of the first entry with key >= `key` (== nkeys() if none).
  /// `probes`, when non-null, receives the byte offset of every key probed
  /// so the caller can charge the memory accesses actually made.
  uint16_t LowerBound(uint64_t key, ProbeList* probes = nullptr) const;

  /// True + index when `key` is present.
  bool Find(uint64_t key, uint16_t* index, ProbeList* probes = nullptr) const;

  /// In internal nodes (entries = smallest key of each child subtree):
  /// index of the child covering `key`.
  uint16_t ChildIndexFor(uint64_t key, ProbeList* probes = nullptr) const;

  PageId ChildAt(uint32_t i) const {
    POLAR_CHECK(!is_leaf());
    uint32_t v;
    std::memcpy(&v, ValueAt(i), sizeof(v));
    return v;
  }

  // --- unlogged structural mutation primitives (used by the mtr layer and
  //     by redo replay, which must apply the identical transformation) ---
  void InsertEntryRaw(uint16_t index, uint64_t key, const uint8_t* value);
  void EraseEntryRaw(uint16_t index);

  uint8_t* raw() { return d_; }
  const uint8_t* raw() const { return d_; }

 private:
  uint16_t Load16(uint32_t off) const {
    uint16_t v;
    std::memcpy(&v, d_ + off, sizeof(v));
    return v;
  }
  uint32_t Load32(uint32_t off) const {
    uint32_t v;
    std::memcpy(&v, d_ + off, sizeof(v));
    return v;
  }
  uint64_t Load64(uint32_t off) const {
    uint64_t v;
    std::memcpy(&v, d_ + off, sizeof(v));
    return v;
  }
  void Store16(uint32_t off, uint16_t v) { std::memcpy(d_ + off, &v, sizeof(v)); }
  void Store32(uint32_t off, uint32_t v) { std::memcpy(d_ + off, &v, sizeof(v)); }
  void Store64(uint32_t off, uint64_t v) { std::memcpy(d_ + off, &v, sizeof(v)); }

  uint8_t* d_;
};

}  // namespace polarcxl::engine
