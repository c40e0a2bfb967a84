// Copyright 2026 The PolarCXLMem Reproduction Authors.
// A named table: a B+tree of fixed-size rows keyed by a 64-bit id.
#pragma once

#include <memory>
#include <string>

#include "engine/btree.h"

namespace polarcxl::engine {

class Table {
 public:
  Table(std::string name, std::unique_ptr<BTree> tree)
      : name_(std::move(name)), tree_(std::move(tree)) {}
  POLAR_DISALLOW_COPY(Table);

  const std::string& name() const { return name_; }
  BTree* tree() { return tree_.get(); }
  uint16_t row_size() const { return tree_->value_size(); }

  // Convenience pass-throughs (the public query surface examples use).
  Status Insert(sim::ExecContext& ctx, uint64_t id, Slice row) {
    return tree_->Insert(ctx, id, row);
  }
  Result<std::string> Get(sim::ExecContext& ctx, uint64_t id) {
    return tree_->Get(ctx, id);
  }
  Status GetTo(sim::ExecContext& ctx, uint64_t id, std::string* out) {
    return tree_->GetTo(ctx, id, out);
  }
  Status Update(sim::ExecContext& ctx, uint64_t id, Slice row) {
    return tree_->Update(ctx, id, row);
  }
  Status UpdateColumn(sim::ExecContext& ctx, uint64_t id, uint32_t off,
                      Slice bytes) {
    return tree_->UpdatePartial(ctx, id, off, bytes);
  }
  Status Delete(sim::ExecContext& ctx, uint64_t id) {
    return tree_->Delete(ctx, id);
  }
  Result<size_t> Scan(sim::ExecContext& ctx, uint64_t from, size_t count,
                      std::vector<std::pair<uint64_t, std::string>>* out) {
    return tree_->Scan(ctx, from, count, out);
  }

 private:
  std::string name_;
  std::unique_ptr<BTree> tree_;
};

}  // namespace polarcxl::engine
