#include "engine/btree.h"

#include <algorithm>

#include "common/prof.h"

namespace polarcxl::engine {

namespace {
constexpr uint16_t kInternalValueSize = 4;  // child PageId
}  // namespace

BTree::BTree(bufferpool::BufferPool* pool, storage::RedoLog* log,
             PageAllocator* alloc, uint16_t value_size, PageId root,
             RootChangeFn on_root_change)
    : pool_(pool),
      log_(log),
      alloc_(alloc),
      value_size_(value_size),
      root_(root),
      on_root_change_(std::move(on_root_change)) {}

Result<PageId> BTree::CreateRoot(sim::ExecContext& ctx,
                                 bufferpool::BufferPool* pool,
                                 storage::RedoLog* log, PageAllocator* alloc,
                                 uint16_t value_size) {
  MiniTransaction mtr(ctx, pool, log);
  auto page_id = alloc->AllocPage(mtr);
  if (!page_id.ok()) {
    mtr.Commit();
    return page_id.status();
  }
  auto h = mtr.GetPage(*page_id, /*for_write=*/true);
  if (!h.ok()) {
    mtr.Commit();
    return h.status();
  }
  mtr.FormatPage(*h, /*level=*/0, value_size);
  mtr.Commit();
  return *page_id;
}

PageId BTree::RootForDescent(MiniTransaction& mtr) {
  if (root_provider_) root_ = root_provider_(mtr);
  return root_;
}

Result<MiniTransaction::Handle*> BTree::DescendToLeaf(MiniTransaction& mtr,
                                                      uint64_t key,
                                                      bool leaf_for_write) {
  PageId current = RootForDescent(mtr);
  for (int depth = 0; depth < 16; depth++) {
    auto h = mtr.GetPage(current, /*for_write=*/false);
    if (!h.ok()) return h.status();
    PageView page = mtr.View(*h);
    if (!page.IsFormatted()) return Status::Corruption("unformatted page");
    mtr.ChargeRead(*h, 0, kPageHeaderSize);
    mtr.ctx().Advance(sim::kCpuCosts.btree_level_cpu);
    if (page.is_leaf()) {
      if (leaf_for_write) {
        auto wh = mtr.GetPage(current, /*for_write=*/true);
        if (!wh.ok()) return wh.status();
        return *wh;
      }
      return *h;
    }
    ProbeList probes;
    const uint16_t ci = page.ChildIndexFor(key, &probes);
    mtr.ChargeReadSeq(*h, probes, kKeySize);
    current = page.ChildAt(ci);
    // Latch crabbing: interior latches are released as soon as the child
    // is known; only the leaf fix is carried to commit.
    mtr.ReleaseEarly(*h);
  }
  return Status::Corruption("tree too deep (cycle?)");
}

Result<uint64_t> BTree::SplitChild(MiniTransaction& mtr,
                                   MiniTransaction::Handle* parent,
                                   MiniTransaction::Handle* child) {
  auto new_id = alloc_->AllocPage(mtr);
  if (!new_id.ok()) return new_id.status();
  auto sib = mtr.GetPage(*new_id, /*for_write=*/true);
  if (!sib.ok()) return sib.status();

  PageView cpage = mtr.View(child);
  const uint16_t n = cpage.nkeys();
  POLAR_CHECK(n >= 2);
  const uint16_t half = n / 2;
  const uint16_t moved = static_cast<uint16_t>(n - half);
  const uint64_t split_key = cpage.KeyAt(half);

  // Format the sibling at the same level, then bulk-copy the upper half of
  // the entries as one physical redo record.
  mtr.FormatPage(*sib, cpage.level(), cpage.value_size());
  const uint32_t src_off = cpage.EntryOffset(half);
  const uint32_t bytes = moved * cpage.entry_size();
  mtr.WriteRaw(*sib, kPageHeaderSize, cpage.raw() + src_off, bytes);
  mtr.ChargeRead(child, src_off, bytes);
  const uint16_t moved_n = moved;
  mtr.WriteRaw(*sib, PageOffsets::kNKeys, &moved_n, sizeof(moved_n));

  // Truncate the child: only nkeys changes.
  const uint16_t left_n = half;
  mtr.WriteRaw(child, PageOffsets::kNKeys, &left_n, sizeof(left_n));

  // Maintain the leaf chain.
  if (cpage.is_leaf()) {
    const PageId old_next = cpage.next_leaf();
    mtr.WriteRaw(*sib, PageOffsets::kNextLeaf, &old_next, sizeof(old_next));
    const PageId sib_id = *new_id;
    mtr.WriteRaw(child, PageOffsets::kNextLeaf, &sib_id, sizeof(sib_id));
  }

  // Route the upper half through the parent.
  uint8_t child_ref[kInternalValueSize];
  const uint32_t sid = *new_id;
  std::memcpy(child_ref, &sid, sizeof(sid));
  mtr.InsertEntry(parent, split_key, child_ref);
  return split_key;
}

Status BTree::SplitPathTo(sim::ExecContext& ctx, uint64_t key) {
  // Phase 1 (lock crabbing): a read-only descent finds the shallowest node
  // of the path whose suffix is entirely full — only that suffix and its
  // parent need write fixes. Splits therefore almost never X-lock the root
  // or the upper levels, which would otherwise stall every concurrent
  // descent in multi-primary mode.
  std::vector<PageId> path;
  std::vector<bool> full;
  {
    MiniTransaction probe(ctx, pool_, log_);
    PageId current = RootForDescent(probe);
    for (int depth = 0; depth < 16; depth++) {
      auto h = probe.GetPage(current, /*for_write=*/false);
      if (!h.ok()) {
        probe.Commit();
        return h.status();
      }
      PageView page = probe.View(*h);
      probe.ChargeRead(*h, 0, kPageHeaderSize);
      path.push_back(current);
      full.push_back(page.IsFull());
      if (page.is_leaf()) break;
      ProbeList probes;
      const uint16_t ci = page.ChildIndexFor(key, &probes);
      probe.ChargeReadSeq(*h, probes, kKeySize);
      current = page.ChildAt(ci);
    }
    probe.Commit();
  }
  // first_split = start of the maximal all-full suffix.
  size_t first_split = path.size();
  while (first_split > 0 && full[first_split - 1]) first_split--;
  if (first_split == path.size()) return Status::OK();  // raced: nothing full

  MiniTransaction mtr(ctx, pool_, log_);
  PageId parent_id;
  if (first_split == 0) {
    // The whole path is full: grow the root.
    auto rh = mtr.GetPage(root_, /*for_write=*/true);
    if (!rh.ok()) {
      mtr.Commit();
      return rh.status();
    }
    PageView rpage = mtr.View(*rh);
    if (!rpage.IsFull()) {
      // Raced with another split; retry from the (possibly new) root.
      mtr.Commit();
      return Status::OK();
    }
    auto new_root_id = alloc_->AllocPage(mtr);
    if (!new_root_id.ok()) {
      mtr.Commit();
      return new_root_id.status();
    }
    auto nr = mtr.GetPage(*new_root_id, /*for_write=*/true);
    if (!nr.ok()) {
      mtr.Commit();
      return nr.status();
    }
    mtr.FormatPage(*nr, static_cast<uint8_t>(rpage.level() + 1),
                   kInternalValueSize);
    uint8_t child_ref[kInternalValueSize];
    const uint32_t old_root = root_;
    std::memcpy(child_ref, &old_root, sizeof(old_root));
    // The first entry is the -infinity sentinel and MUST be key 0: any real
    // key would stop acting as -infinity once a later split of the leftmost
    // child inserts a smaller separator before it, mis-routing small keys.
    // (Separators produced by splits are medians of unique keys and are
    // therefore never 0 themselves.)
    mtr.InsertEntry(*nr, 0, child_ref);
    root_ = *new_root_id;
    if (on_root_change_) on_root_change_(mtr, root_);
    parent_id = root_;
  } else {
    parent_id = path[first_split - 1];
  }

  // Preemptive-split descent from the crab point: parent is write-fixed
  // and (after the step above) never full.
  for (int depth = 0; depth < 16; depth++) {
    auto ph = mtr.GetPage(parent_id, /*for_write=*/true);
    if (!ph.ok()) {
      mtr.Commit();
      return ph.status();
    }
    PageView ppage = mtr.View(*ph);
    mtr.ctx().Advance(sim::kCpuCosts.btree_level_cpu);
    if (ppage.is_leaf()) break;

    ProbeList probes;
    uint16_t ci = ppage.ChildIndexFor(key, &probes);
    mtr.ChargeReadSeq(*ph, probes, kKeySize);
    PageId child_id = ppage.ChildAt(ci);

    auto chh = mtr.GetPage(child_id, /*for_write=*/true);
    if (!chh.ok()) {
      mtr.Commit();
      return chh.status();
    }
    PageView cpage = mtr.View(*chh);
    if (cpage.IsFull()) {
      auto split_key = SplitChild(mtr, *ph, *chh);
      if (!split_key.ok()) {
        mtr.Commit();
        return split_key.status();
      }
      if (key >= *split_key) {
        // Re-route into the new sibling.
        ppage = mtr.View(*ph);
        ProbeList probes2;
        ci = ppage.ChildIndexFor(key, &probes2);
        child_id = ppage.ChildAt(ci);
      }
    }
    parent_id = child_id;
  }
  mtr.Commit();
  return Status::OK();
}

Status BTree::Insert(sim::ExecContext& ctx, uint64_t key, Slice value) {
  POLAR_PROF_SCOPE(kEngine);
  if (value.size() != value_size_) {
    return Status::InvalidArgument("value size mismatch");
  }
  for (int attempt = 0; attempt < 18; attempt++) {
    MiniTransaction mtr(ctx, pool_, log_);
    auto leaf = DescendToLeaf(mtr, key, /*leaf_for_write=*/true);
    if (!leaf.ok()) {
      mtr.Commit();
      return leaf.status();
    }
    PageView page = mtr.View(*leaf);
    ProbeList probes;
    uint16_t idx;
    if (page.Find(key, &idx, &probes)) {
      mtr.ChargeReadSeq(*leaf, probes, kKeySize);
      mtr.Commit();
      return Status::InvalidArgument("duplicate key");
    }
    if (!page.IsFull()) {
      mtr.InsertEntry(*leaf, key,
                      reinterpret_cast<const uint8_t*>(value.data()));
      mtr.Commit();
      return Status::OK();
    }
    // Leaf is full: release fixes, split the path, retry.
    mtr.Commit();
    POLAR_RETURN_IF_ERROR(SplitPathTo(ctx, key));
  }
  return Status::Corruption("insert retry limit exceeded");
}

Status BTree::Update(sim::ExecContext& ctx, uint64_t key, Slice value) {
  if (value.size() != value_size_) {
    return Status::InvalidArgument("value size mismatch");
  }
  return UpdatePartial(ctx, key, 0, value);
}

Status BTree::UpdatePartial(sim::ExecContext& ctx, uint64_t key, uint32_t off,
                            Slice part) {
  POLAR_PROF_SCOPE(kEngine);
  if (off + part.size() > value_size_) {
    return Status::InvalidArgument("partial update out of bounds");
  }
  MiniTransaction mtr(ctx, pool_, log_);
  auto leaf = DescendToLeaf(mtr, key, /*leaf_for_write=*/true);
  if (!leaf.ok()) {
    mtr.Commit();
    return leaf.status();
  }
  PageView page = mtr.View(*leaf);
  ProbeList probes;
  uint16_t idx;
  const bool found = page.Find(key, &idx, &probes);
  mtr.ChargeReadSeq(*leaf, probes, kKeySize);
  if (!found) {
    mtr.Commit();
    return Status::NotFound("key absent");
  }
  const uint32_t value_off = page.EntryOffset(idx) + kKeySize + off;
  mtr.WriteRaw(*leaf, value_off, part.data(),
               static_cast<uint32_t>(part.size()));
  mtr.Commit();
  return Status::OK();
}

Result<std::string> BTree::Get(sim::ExecContext& ctx, uint64_t key) {
  std::string out;
  const Status s = GetTo(ctx, key, &out);
  if (!s.ok()) return s;
  return out;
}

Status BTree::GetTo(sim::ExecContext& ctx, uint64_t key, std::string* out) {
  POLAR_PROF_SCOPE(kEngine);
  MiniTransaction mtr(ctx, pool_, log_);
  auto leaf = DescendToLeaf(mtr, key, /*leaf_for_write=*/false);
  if (!leaf.ok()) {
    mtr.Commit();
    return leaf.status();
  }
  PageView page = mtr.View(*leaf);
  ProbeList probes;
  uint16_t idx;
  const bool found = page.Find(key, &idx, &probes);
  if (!found) {
    mtr.ChargeReadSeq(*leaf, probes, kKeySize);
    mtr.Commit();
    return Status::NotFound("key absent");
  }
  // Fuse the probe charges and the payload charge into one batched kernel
  // call (charge order unchanged: probes in search order, then the value).
  uint32_t offs[ProbeList::kMaxProbes + 1];
  uint32_t lens[ProbeList::kMaxProbes + 1];
  for (uint32_t p = 0; p < probes.count; p++) {
    offs[p] = probes.offs[p];
    lens[p] = kKeySize;
  }
  offs[probes.count] = page.EntryOffset(idx) + kKeySize;
  lens[probes.count] = value_size_;
  mtr.ChargeReadBatch(*leaf, offs, lens, probes.count + 1, 0);
  out->assign(reinterpret_cast<const char*>(page.ValueAt(idx)), value_size_);
  mtr.Commit();
  return Status::OK();
}

Status BTree::Delete(sim::ExecContext& ctx, uint64_t key) {
  POLAR_PROF_SCOPE(kEngine);
  MiniTransaction mtr(ctx, pool_, log_);
  auto leaf = DescendToLeaf(mtr, key, /*leaf_for_write=*/true);
  if (!leaf.ok()) {
    mtr.Commit();
    return leaf.status();
  }
  const bool erased = mtr.EraseEntry(*leaf, key);
  mtr.Commit();
  return erased ? Status::OK() : Status::NotFound("key absent");
}

/// Shared scan loop: `emit(key, data)` is called once per row in scan
/// order. The materializing Scan and the charge-only form (null output)
/// compile down to this one body with the emit inlined away.
template <typename Emit>
Result<size_t> BTree::ScanCore(sim::ExecContext& ctx, uint64_t start_key,
                               size_t count, Emit&& emit) {
  POLAR_PROF_SCOPE(kEngine);
  MiniTransaction mtr(ctx, pool_, log_);
  auto leaf = DescendToLeaf(mtr, start_key, /*leaf_for_write=*/false);
  if (!leaf.ok()) {
    mtr.Commit();
    return leaf.status();
  }
  size_t read = 0;
  MiniTransaction::Handle* h = *leaf;
  PageView page = mtr.View(h);
  ProbeList probes;
  uint16_t i = page.LowerBound(start_key, &probes);
  mtr.ChargeReadSeq(h, probes, kKeySize);
  while (read < count) {
    if (i >= page.nkeys()) {
      const PageId next = page.next_leaf();
      if (next == kInvalidPageId) break;
      auto nh = mtr.GetPage(next, /*for_write=*/false);
      if (!nh.ok()) {
        mtr.Commit();
        return nh.status();
      }
      mtr.ReleaseEarly(h);  // done with the previous leaf
      h = *nh;
      page = mtr.View(h);
      mtr.ChargeRead(h, 0, kPageHeaderSize);
      i = 0;
      continue;
    }
    // Charge the whole contiguous run on this leaf at once: sequential
    // scans stream (hardware prefetch), they do not pay a fresh full-miss
    // latency per entry.
    const uint16_t take = static_cast<uint16_t>(
        std::min<size_t>(count - read, page.nkeys() - i));
    mtr.ChargeRead(h, page.EntryOffset(i),
                   take * page.entry_size());
    for (uint16_t e = 0; e < take; e++) {
      mtr.ctx().Advance(sim::kCpuCosts.per_row_cpu);
      emit(page.KeyAt(i + e),
           reinterpret_cast<const char*>(page.ValueAt(i + e)));
    }
    read += take;
    i = static_cast<uint16_t>(i + take);
  }
  mtr.Commit();
  return read;
}

Result<size_t> BTree::Scan(sim::ExecContext& ctx, uint64_t start_key,
                           size_t count,
                           std::vector<std::pair<uint64_t, std::string>>* out) {
  if (out == nullptr) {
    return ScanCore(ctx, start_key, count,
                    [](uint64_t, const char*) {});
  }
  return ScanCore(ctx, start_key, count,
                  [&](uint64_t key, const char* data) {
                    out->emplace_back(key, std::string(data, value_size_));
                  });
}

Result<uint64_t> BTree::CountAll(sim::ExecContext& ctx) {
  // Walk down the leftmost spine, then the leaf chain. One mtr per page so
  // the walk never pins more frames than the pool holds.
  PageId current;
  {
    MiniTransaction mtr(ctx, pool_, log_);
    current = RootForDescent(mtr);
    mtr.Commit();
  }
  for (int depth = 0; depth < 16; depth++) {
    MiniTransaction mtr(ctx, pool_, log_);
    auto h = mtr.GetPage(current, false);
    if (!h.ok()) {
      mtr.Commit();
      return h.status();
    }
    PageView page = mtr.View(*h);
    if (page.is_leaf()) {
      mtr.Commit();
      break;
    }
    if (page.nkeys() == 0) {
      mtr.Commit();
      return Status::Corruption("empty internal node");
    }
    current = page.ChildAt(0);
    mtr.Commit();
  }
  uint64_t total = 0;
  while (current != kInvalidPageId) {
    MiniTransaction mtr(ctx, pool_, log_);
    auto h = mtr.GetPage(current, false);
    if (!h.ok()) {
      mtr.Commit();
      return h.status();
    }
    PageView page = mtr.View(*h);
    mtr.ChargeRead(*h, 0, kPageHeaderSize);
    total += page.nkeys();
    current = page.next_leaf();
    mtr.Commit();
  }
  return total;
}

Result<uint32_t> BTree::Height(sim::ExecContext& ctx) {
  MiniTransaction mtr(ctx, pool_, log_);
  auto h = mtr.GetPage(RootForDescent(mtr), false);
  if (!h.ok()) {
    mtr.Commit();
    return h.status();
  }
  const uint32_t height = mtr.View(*h).level() + 1u;
  mtr.Commit();
  return height;
}

}  // namespace polarcxl::engine
