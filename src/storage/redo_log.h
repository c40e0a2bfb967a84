// Copyright 2026 The PolarCXLMem Reproduction Authors.
// ARIES-style physical redo log (InnoDB lineage, as in PolarDB). Records
// carry real page deltas so recovery replays actual bytes. The log buffer
// lives in local DRAM and its unflushed tail is lost on crash — the hazard
// PolarRecv's "too-new page" LSN check exists for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "storage/disk.h"

namespace polarcxl::storage {

/// Payload bytes of a redo record. Small-buffer container: every hot
/// payload shape, of which a row insert (8-byte key + row) is the largest,
/// fits in the inline buffer, so building a record and moving it through
/// the log buffer performs no heap allocation. Oversized payloads (wide
/// TPC-C warehouse/district rows) spill to the heap. Only the slice of
/// std::vector<uint8_t>'s surface the log's users need.
class PayloadBuf {
 public:
  static constexpr uint32_t kInline = 200;

  PayloadBuf() = default;
  PayloadBuf(const PayloadBuf& o) { assign(o.data(), o.data() + o.size_); }
  PayloadBuf(PayloadBuf&& o) noexcept { StealFrom(&o); }
  PayloadBuf& operator=(const PayloadBuf& o) {
    if (this != &o) assign(o.data(), o.data() + o.size_);
    return *this;
  }
  PayloadBuf& operator=(PayloadBuf&& o) noexcept {
    if (this != &o) {
      delete[] heap_;
      StealFrom(&o);
    }
    return *this;
  }
  PayloadBuf& operator=(std::initializer_list<uint8_t> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  ~PayloadBuf() { delete[] heap_; }

  uint8_t* data() { return heap_ != nullptr ? heap_ : inline_; }
  const uint8_t* data() const { return heap_ != nullptr ? heap_ : inline_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t& operator[](size_t i) { return data()[i]; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  /// Grows/shrinks to `n` bytes; appended bytes are `fill`-initialized
  /// (vector-compatible: plain resize zero-fills).
  void resize(size_t n, uint8_t fill = 0) {
    Reserve(n);
    if (n > size_) std::memset(data() + size_, fill, n - size_);
    size_ = static_cast<uint32_t>(n);
  }

  template <typename It>
  void assign(It first, It last) {
    const size_t n = static_cast<size_t>(last - first);
    Reserve(n);
    size_ = static_cast<uint32_t>(n);
    std::copy(first, last, data());
  }

 private:
  /// Ensures capacity for `n` bytes, preserving current contents.
  void Reserve(size_t n) {
    if (n <= kInline && heap_ == nullptr) return;
    if (heap_ != nullptr && n <= heap_cap_) return;
    POLAR_CHECK(n <= UINT32_MAX);
    // Exact-size growth: payload sizes are known up front (one resize or
    // assign per record), so geometric over-allocation buys nothing.
    uint8_t* grown = new uint8_t[n];
    std::memcpy(grown, data(), size_);
    delete[] heap_;
    heap_ = grown;
    heap_cap_ = static_cast<uint32_t>(n);
  }

  void StealFrom(PayloadBuf* o) {
    heap_ = o->heap_;
    heap_cap_ = o->heap_cap_;
    size_ = o->size_;
    if (heap_ == nullptr && size_ > 0) std::memcpy(inline_, o->inline_, size_);
    o->heap_ = nullptr;
    o->heap_cap_ = 0;
    o->size_ = 0;
  }

  uint8_t inline_[kInline];
  uint8_t* heap_ = nullptr;   // null while inline
  uint32_t heap_cap_ = 0;
  uint32_t size_ = 0;
};

/// Redo record kinds. kRaw is pure physical redo; the entry kinds are
/// physiological (page-local logical) records, keeping per-row log volume
/// proportional to the row instead of the page bytes moved.
enum class RedoKind : uint8_t {
  kRaw = 0,        // overwrite [page_off, page_off+len) with data
  kFormat = 1,     // format empty page; data = {level u8, value_size u16}
  kInsertEntry = 2,  // sorted insert; data = 8-byte key + value bytes
  kEraseEntry = 3,   // erase by key; data = 8-byte key
};

/// One redo record. The records of one mini-transaction are appended
/// atomically, so they sit adjacent in the log.
struct RedoRecord {
  Lsn lsn = 0;          // start LSN of this record
  PageId page_id = 0;
  RedoKind kind = RedoKind::kRaw;
  uint16_t page_off = 0;
  uint16_t len = 0;
  PayloadBuf data;

  Lsn end_lsn() const { return lsn + SizeBytes(); }

  /// On-log size used for LSN arithmetic and I/O charging.
  uint32_t SizeBytes() const {
    return 32 + static_cast<uint32_t>(data.size());
  }
};

/// Redo log with a volatile buffer and a durable portion. All LSNs are byte
/// positions, so `flushed_lsn - checkpoint_lsn` is exactly the number of
/// bytes recovery must scan.
///
/// Like InnoDB's, the log reuses the space behind the checkpoint: Checkpoint
/// releases every sealed durable segment wholly at or below
/// `checkpoint_lsn`. Recovery is redo only, and both redo passes
/// (RecoverAries, PolarRecv) read page records from `checkpoint_lsn` on, so
/// no reader reaches a released segment. LSNs, log bytes and disk charges
/// are positions and counts, so a release moves none of them.
class RedoLog {
 public:
  /// A sealed durable segment: one flush's records, LSN-ordered and never
  /// empty. Immutable once sealed, so world snapshots share it by handle.
  using Segment = std::shared_ptr<const std::vector<RedoRecord>>;

  explicit RedoLog(SimDisk* disk) : disk_(disk) {}
  POLAR_DISALLOW_COPY(RedoLog);

  /// Appends one mini-transaction's records to the volatile buffer
  /// atomically. Records receive consecutive LSNs. Returns the end LSN.
  Lsn AppendMtr(std::vector<RedoRecord> records);

  /// Drain form for reusable scratch batches: moves the records out and
  /// leaves `*records` empty with its capacity retained, so a recycled
  /// per-thread batch vector never reallocates in steady state.
  Lsn AppendMtr(std::vector<RedoRecord>* records);

  /// Durably flush the buffer up to its current end. Charges the disk for
  /// the flushed bytes (one I/O per call).
  Lsn Flush(sim::ExecContext& ctx);

  /// Group commit: a commit arriving while another commit's flush is in
  /// flight rides that write (bytes only, no extra I/O) and completes with
  /// it; otherwise it leads a new batch, lingering `window` to let
  /// followers accumulate. Every wait here, linger included, is charged to
  /// ctx.t_io. window == 0 degenerates to Flush(). Returns the durable LSN
  /// covering this commit.
  Lsn GroupCommit(sim::ExecContext& ctx, Nanos window);

  /// Crash: the volatile buffer is lost. Durable records stay.
  void LoseUnflushedTail();

  /// Advances the checkpoint (never backwards) and releases the sealed
  /// segments wholly at or below it: whole segments, found by one binary
  /// search over the segment ends, so no released record is read or
  /// copied. Invalidates every pointer DurableRecordsFrom returned.
  void Checkpoint(Lsn lsn);

  Lsn current_lsn() const { return next_lsn_; }
  Lsn flushed_lsn() const { return flushed_lsn_; }
  Lsn checkpoint_lsn() const { return checkpoint_lsn_; }
  uint64_t unflushed_bytes() const {
    return next_lsn_ - flushed_lsn_;
  }

  /// Durable records that end after `from`, in LSN order. From
  /// `checkpoint_lsn` on that is every durable record; below it, only those
  /// of the segment the checkpoint falls inside (a checkpoint releases
  /// whole segments). The pointers are valid until the next Checkpoint or
  /// Restore, so no caller may hold them across a checkpoint. (Recovery
  /// drivers charge the disk for the scan themselves via ChargeScan.)
  std::vector<const RedoRecord*> DurableRecordsFrom(Lsn from) const;

  /// Charges the disk for scanning the durable log from `from` to the end.
  void ChargeScan(sim::ExecContext& ctx, Lsn from);

  SimDisk* disk() { return disk_; }

  /// World snapshot of the log. Sealed segments are immutable, so the
  /// snapshot shares them: it holds a handle to each segment live at the
  /// capture, and a segment a later checkpoint releases stays alive in the
  /// snapshot until it is dropped. Restore copies the handles back, so
  /// segments released or sealed after the capture are reinstated or
  /// dropped exactly. Only the volatile buffer needs a deep copy.
  struct State {
    std::vector<Segment> durable_segs;
    std::vector<RedoRecord> buffer;
    Lsn next_lsn = 0;
    Lsn flushed_lsn = 0;
    Lsn checkpoint_lsn = 0;
    Nanos last_batch_completion = 0;
  };
  State Capture() const {
    State s;
    s.durable_segs = durable_segs_;
    s.buffer = buffer_;
    s.next_lsn = next_lsn_;
    s.flushed_lsn = flushed_lsn_;
    s.checkpoint_lsn = checkpoint_lsn_;
    s.last_batch_completion = last_batch_completion_;
    return s;
  }
  void Restore(const State& s) {
    durable_segs_ = s.durable_segs;
    buffer_ = s.buffer;
    next_lsn_ = s.next_lsn;
    flushed_lsn_ = s.flushed_lsn;
    checkpoint_lsn_ = s.checkpoint_lsn;
    last_batch_completion_ = s.last_batch_completion;
  }

 private:
  /// Moves the whole buffer into the durable portion as one sealed segment
  /// (O(1): the buffer's storage moves, no per-record moves or mega-vector
  /// regrowth).
  void SealBuffer();

  SimDisk* disk_;
  // Durable records, stored as the sequence of retained flushed buffer
  // segments. Segments (and records within each) are LSN-ordered, so
  // readers binary search at segment granularity first. Compared to one
  // flat vector this never re-moves a record after it lands: a flush
  // retires the buffer by moving it in, instead of pushing ~240-byte
  // records one at a time into a vector whose geometric regrowth re-copies
  // the whole log, and a checkpoint frees whole segments.
  std::vector<Segment> durable_segs_;
  std::vector<RedoRecord> buffer_;  // volatile tail (local DRAM)
  Lsn next_lsn_ = 0;
  Lsn flushed_lsn_ = 0;
  Lsn checkpoint_lsn_ = 0;
  Nanos last_batch_completion_ = 0;
  size_t last_fill_ = 0;  // records in the last sealed segment (sizing hint)
};

}  // namespace polarcxl::storage
