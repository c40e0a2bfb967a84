#include "engine/mini_transaction.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace polarcxl::engine {

namespace {
// Charge for a sorted insert/erase: the entry itself plus a slot-directory
// shuffle. Real slotted pages move a few bytes of directory, not half the
// page, so the shift is modelled as a small constant region.
constexpr uint32_t kShiftChargeBytes = 128;
}  // namespace

struct MiniTransaction::Scratch {
  std::vector<storage::RedoRecord> records;
  std::vector<Handle*> record_handle;  // records[i] touches *record_handle[i]
  Arena arena;                         // feeds HandleList overflow chunks
};

// Thread-local recycle stack (raw pointers; ownership stays with the
// `owned` list in AcquireScratch, so thread exit frees everything and
// sanitizers see no leak). Depth equals the maximum number of
// simultaneously live mtrs on one thread — in practice one or two.
std::vector<MiniTransaction::Scratch*>& MiniTransaction::FreeScratchList() {
  static thread_local std::vector<Scratch*> free_list;
  return free_list;
}

MiniTransaction::Scratch* MiniTransaction::AcquireScratch() {
  std::vector<Scratch*>& free_list = FreeScratchList();
  if (!free_list.empty()) {
    Scratch* s = free_list.back();
    free_list.pop_back();
    return s;
  }
  static thread_local std::vector<std::unique_ptr<Scratch>> owned;
  owned.push_back(std::make_unique<Scratch>());
  return owned.back().get();
}

void MiniTransaction::ReleaseScratch(Scratch* s) {
  s->records.clear();
  s->record_handle.clear();
  s->arena.Reset();
  FreeScratchList().push_back(s);
}

MiniTransaction::MiniTransaction(sim::ExecContext& ctx,
                                 bufferpool::BufferPool* pool,
                                 storage::RedoLog* log)
    : ctx_(ctx),
      pool_(pool),
      log_(log),
      scratch_(AcquireScratch()) {}

MiniTransaction::~MiniTransaction() {
  POLAR_CHECK_MSG(committed_, "mtr destroyed without Commit()");
}

size_t MiniTransaction::num_records() const {
  return scratch_ == nullptr ? 0 : scratch_->records.size();
}

Result<MiniTransaction::Handle*> MiniTransaction::GetPage(PageId page_id,
                                                          bool for_write) {
  Handle* found = nullptr;
  handles_.ForEach([&](Handle& h) {
    if (found == nullptr && h.id == page_id) found = &h;
  });
  if (found != nullptr) {
    if (for_write && !found->write_fixed) {
      // Updates found->ref in place: the RDMA tier moves the frame to a
      // private copy of a shared page image.
      POLAR_RETURN_IF_ERROR(WithPool([&](auto& pool) {
        return pool.UpgradeToWrite(ctx_, found->ref, page_id);
      }));
      found->write_fixed = true;
    }
    return found;
  }
  auto ref = WithPool(
      [&](auto& pool) { return pool.Fetch(ctx_, page_id, for_write); });
  if (!ref.ok()) return ref.status();
  return handles_.Add(&scratch_->arena,
                      Handle{page_id, *ref, for_write, false, 0});
}

void MiniTransaction::ReleaseEarly(Handle* h) {
  POLAR_CHECK_MSG(!h->dirty && !h->write_fixed,
                  "early release is only for clean read fixes");
  WithPool([&](auto& pool) {
    pool.Unfix(ctx_, h->ref, h->id, /*dirty=*/false, 0);
  });
  h->id = kInvalidPageId;  // dedup and Commit() skip released handles
  h->ref = bufferpool::PageRef{};
}

storage::RedoRecord& MiniTransaction::NewRecord(Handle* h,
                                                storage::RedoKind kind) {
  POLAR_CHECK_MSG(h->write_fixed, "logged write on a read-fixed page");
  storage::RedoRecord rec;
  rec.page_id = h->id;
  rec.kind = kind;
  scratch_->records.push_back(std::move(rec));
  // Handle pointers are stable until clear(), so the back-link is direct.
  scratch_->record_handle.push_back(h);
  h->dirty = true;
  return scratch_->records.back();
}

void MiniTransaction::WriteRaw(Handle* h, uint32_t off, const void* src,
                               uint32_t len) {
  POLAR_CHECK(off + len <= kPageSize);
  std::memcpy(h->ref.data + off, src, len);
  h->ref.Touch(ctx_, off, len, /*write=*/true);
  storage::RedoRecord& rec = NewRecord(h, storage::RedoKind::kRaw);
  rec.page_off = static_cast<uint16_t>(off);
  rec.len = static_cast<uint16_t>(len);
  rec.data.assign(static_cast<const uint8_t*>(src),
                  static_cast<const uint8_t*>(src) + len);
}

void MiniTransaction::FormatPage(Handle* h, uint8_t level,
                                 uint16_t value_size) {
  PageView page(h->ref.data);
  page.Format(h->id, level, value_size);
  h->ref.Touch(ctx_, 0, kPageHeaderSize, /*write=*/true);
  storage::RedoRecord& rec = NewRecord(h, storage::RedoKind::kFormat);
  rec.data.resize(3);
  rec.data[0] = level;
  std::memcpy(rec.data.data() + 1, &value_size, sizeof(value_size));
  rec.len = 3;
}

void MiniTransaction::InsertEntry(Handle* h, uint64_t key,
                                  const uint8_t* value) {
  PageView page(h->ref.data);
  ProbeList probes;
  const uint16_t index = page.LowerBound(key, &probes);
  ChargeReadSeq(h, probes, kKeySize);
  page.InsertEntryRaw(index, key, value);
  const uint32_t entry_bytes = page.entry_size();
  h->ref.Touch(ctx_, page.EntryOffset(index),
               std::min(entry_bytes + kShiftChargeBytes,
                        kPageSize - page.EntryOffset(index)),
               /*write=*/true);
  storage::RedoRecord& rec = NewRecord(h, storage::RedoKind::kInsertEntry);
  rec.data.resize(kKeySize + page.value_size());
  std::memcpy(rec.data.data(), &key, kKeySize);
  std::memcpy(rec.data.data() + kKeySize, value, page.value_size());
  rec.len = static_cast<uint16_t>(rec.data.size());
}

bool MiniTransaction::EraseEntry(Handle* h, uint64_t key) {
  PageView page(h->ref.data);
  ProbeList probes;
  uint16_t index;
  const bool found = page.Find(key, &index, &probes);
  ChargeReadSeq(h, probes, kKeySize);
  if (!found) return false;
  page.EraseEntryRaw(index);
  h->ref.Touch(ctx_, page.EntryOffset(index),
               std::min(page.entry_size() + kShiftChargeBytes,
                        kPageSize - page.EntryOffset(index)),
               /*write=*/true);
  storage::RedoRecord& rec = NewRecord(h, storage::RedoKind::kEraseEntry);
  rec.data.resize(kKeySize);
  std::memcpy(rec.data.data(), &key, kKeySize);
  rec.len = kKeySize;
  return true;
}

Lsn MiniTransaction::Commit() {
  POLAR_CHECK(!committed_);
  committed_ = true;

  Lsn end = 0;
  std::vector<storage::RedoRecord>& records = scratch_->records;
  if (!records.empty()) {
    // Compute per-record end LSNs before handing the batch to the log.
    Lsn cursor = log_->current_lsn();
    for (size_t i = 0; i < records.size(); i++) {
      cursor += records[i].SizeBytes();
      scratch_->record_handle[i]->last_lsn = cursor;
    }
    end = log_->AppendMtr(&records);
    POLAR_CHECK(end == cursor);
  }

  handles_.ForEach([&](Handle& h) {
    if (h.id == kInvalidPageId) return;  // released early
    if (h.dirty) {
      // Stamp the page LSN (recovery replay reproduces this same value).
      PageView page(h.ref.data);
      page.set_lsn(h.last_lsn);
      h.ref.Touch(ctx_, PageOffsets::kLsn, 8, /*write=*/true);
    }
    WithPool([&](auto& pool) {
      pool.Unfix(ctx_, h.ref, h.id, h.dirty, h.last_lsn);
    });
  });
  handles_.clear();
  ReleaseScratch(scratch_);
  scratch_ = nullptr;
  return end;
}

}  // namespace polarcxl::engine
