#include "sim/lock_table.h"

#include <algorithm>

namespace polarcxl::sim {

Nanos VirtualLockTable::AcquireExclusive(uint64_t key, Nanos now) {
  LockRec& rec = locks_[key];
  const Nanos reader_block = std::min(rec.s_max_end, now + kMaxReaderBlock);
  const Nanos grant = std::max({now, rec.x_free_at, reader_block});
  Account(now, grant);
  return grant;
}

void VirtualLockTable::ReleaseExclusive(uint64_t key, Nanos end) {
  LockRec& rec = locks_[key];
  rec.x_free_at = std::max(rec.x_free_at, end);
}

Nanos VirtualLockTable::AcquireShared(uint64_t key, Nanos now) {
  LockRec& rec = locks_[key];
  const Nanos grant = std::max(now, rec.x_free_at);
  Account(now, grant);
  return grant;
}

void VirtualLockTable::ReleaseShared(uint64_t key, Nanos end) {
  LockRec& rec = locks_[key];
  rec.s_max_end = std::max(rec.s_max_end, end);
}

}  // namespace polarcxl::sim
