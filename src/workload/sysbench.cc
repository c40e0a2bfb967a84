#include "workload/sysbench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/prof.h"
#include "sim/epoch.h"

namespace polarcxl::workload {

namespace {
constexpr uint32_t kKOff = 0;      // k INT
constexpr uint32_t kKLen = 4;
constexpr uint32_t kCOff = 4;      // c CHAR(120)
constexpr uint32_t kCLen = 120;

// Builds the row into a caller-owned scratch buffer so bulk loads and
// delete/insert loops reuse one allocation instead of one per row.
void FillRow(const SysbenchConfig& config, uint64_t id, Rng* rng,
             std::string* row) {
  row->assign(SysbenchConfig::kRowSize, '\0');
  const uint32_t k = static_cast<uint32_t>(rng->Uniform(config.rows_per_table));
  std::memcpy(row->data() + kKOff, &k, sizeof(k));
  std::snprintf(row->data() + kCOff, kCLen, "%llu-sysbench-c-pad",
                static_cast<unsigned long long>(id));
}
}  // namespace

const char* SysbenchOpName(SysbenchOp op) {
  switch (op) {
    case SysbenchOp::kPointSelect:
      return "point-select";
    case SysbenchOp::kRangeSelect:
      return "range-select";
    case SysbenchOp::kReadOnly:
      return "read-only";
    case SysbenchOp::kReadWrite:
      return "read-write";
    case SysbenchOp::kWriteOnly:
      return "write-only";
    case SysbenchOp::kPointUpdate:
      return "point-update";
  }
  return "unknown";
}

Status LoadSysbenchTables(sim::ExecContext& ctx, engine::Database* db,
                          const SysbenchConfig& config) {
  Rng rng(0xB0B0);
  std::string row;
  for (uint32_t t = 0; t < config.TotalTables(); t++) {
    auto table = db->CreateTable(ctx, "sbtest" + std::to_string(t),
                                 SysbenchConfig::kRowSize);
    if (!table.ok()) return table.status();
    for (uint64_t id = 1; id <= config.rows_per_table; id++) {
      FillRow(config, id, &rng, &row);
      POLAR_RETURN_IF_ERROR((*table)->Insert(ctx, id, row));
    }
  }
  db->CommitTransaction(ctx);
  db->Checkpoint(ctx);
  return Status::OK();
}

SysbenchWorkload::SysbenchWorkload(engine::Database* db,
                                   SysbenchConfig config, NodeId node,
                                   uint64_t seed,
                                   sim::BandwidthChannel* client_net)
    : db_(db),
      config_(config),
      node_(node),
      rng_(seed ^ (0x5151ULL + node)),
      client_net_(client_net),
      fd_rows_(config_.rows_per_table),
      fd_tables_(config_.tables),
      fd_range_start_(std::max<uint64_t>(
          1, config_.rows_per_table - SysbenchConfig::kRangeSize)) {
  if (config_.distribution == KeyDistribution::kZipfian) {
    zipf_ = std::make_unique<ZipfRng>(seed ^ 0x21Full,
                                      config_.rows_per_table,
                                      SysbenchConfig::kZipfTheta);
  }
}

uint64_t SysbenchWorkload::PickRow() {
  if (zipf_ != nullptr) return 1 + zipf_->Next();
  return 1 + fd_rows_.Mod(rng_.Next());
}

engine::Table* SysbenchWorkload::PickTable(bool* is_shared) {
  uint32_t group;
  bool shared = false;
  if (config_.num_nodes == 1) {
    group = 0;
  } else if (rng_.Chance(config_.shared_fraction)) {
    group = config_.num_nodes;  // the shared group
    shared = true;
  } else {
    group = node_;  // this node's private group
  }
  const uint32_t base = config_.num_nodes == 1 ? 0 : group * config_.tables;
  const uint32_t t = base + static_cast<uint32_t>(fd_tables_.Mod(rng_.Next()));
  if (is_shared != nullptr) *is_shared = shared;
  shared_queries_ += shared ? 1 : 0;
  return db_->table(static_cast<size_t>(t));
}

void SysbenchWorkload::ChargeClient(sim::ExecContext& ctx, uint64_t bytes) {
  if (client_net_ != nullptr) {
    const Nanos done = sim::ChargeChannel(ctx, *client_net_, ctx.now, bytes);
    ctx.now = std::max(ctx.now, done);
  }
}

void SysbenchWorkload::PointSelect(sim::ExecContext& ctx) {
  engine::Table* t = PickTable(nullptr);
  ctx.Advance(sim::kCpuCosts.point_query_base);
  const Status got = t->GetTo(ctx, PickRow(), &row_scratch_);
  POLAR_CHECK_MSG(got.ok(), "sysbench row missing");
  ChargeClient(ctx, 64 + SysbenchConfig::kRowSize);
  total_queries_++;
}

void SysbenchWorkload::RangeSelect(sim::ExecContext& ctx) {
  engine::Table* t = PickTable(nullptr);
  ctx.Advance(sim::kCpuCosts.range_query_base);
  const uint64_t from = 1 + fd_range_start_.Mod(rng_.Next());
  auto n = t->Scan(ctx, from, SysbenchConfig::kRangeSize, nullptr);
  POLAR_CHECK(n.ok());
  ChargeClient(ctx, 64 + *n * SysbenchConfig::kRowSize);
  total_queries_++;
}

void SysbenchWorkload::IndexUpdate(sim::ExecContext& ctx) {
  engine::Table* t = PickTable(nullptr);
  ctx.Advance(sim::kCpuCosts.write_query_base);
  const uint32_t k = static_cast<uint32_t>(rng_.Next());
  POLAR_CHECK(t->UpdateColumn(ctx, PickRow(), kKOff,
                              Slice(reinterpret_cast<const char*>(&k), kKLen))
                  .ok());
  ChargeClient(ctx, 128);
  total_queries_++;
}

void SysbenchWorkload::NonIndexUpdate(sim::ExecContext& ctx) {
  engine::Table* t = PickTable(nullptr);
  ctx.Advance(sim::kCpuCosts.write_query_base);
  char c[kCLen];
  std::memset(c, 'a' + static_cast<char>(rng_.Uniform(26)), sizeof(c));
  POLAR_CHECK(
      t->UpdateColumn(ctx, PickRow(), kCOff, Slice(c, sizeof(c))).ok());
  ChargeClient(ctx, 128);
  total_queries_++;
}

void SysbenchWorkload::DeleteInsert(sim::ExecContext& ctx) {
  engine::Table* t = PickTable(nullptr);
  const uint64_t id = PickRow();
  ctx.Advance(sim::kCpuCosts.write_query_base);
  const Status del = t->Delete(ctx, id);
  total_queries_++;
  ctx.Advance(sim::kCpuCosts.write_query_base);
  if (del.ok()) {
    FillRow(config_, id, &rng_, &row_scratch_);
    POLAR_CHECK(t->Insert(ctx, id, row_scratch_).ok());
  }
  total_queries_++;
  ChargeClient(ctx, 128);
}

uint32_t SysbenchWorkload::RunEvent(sim::ExecContext& ctx, SysbenchOp op) {
  POLAR_PROF_SCOPE(kWorkload);
  const uint64_t before = total_queries_;
  switch (op) {
    case SysbenchOp::kPointSelect:
      PointSelect(ctx);
      break;
    case SysbenchOp::kRangeSelect:
      RangeSelect(ctx);
      break;
    case SysbenchOp::kReadOnly:
      for (int i = 0; i < 10; i++) PointSelect(ctx);
      RangeSelect(ctx);
      db_->FinishReadOnly(ctx);
      break;
    case SysbenchOp::kReadWrite:
      for (int i = 0; i < 10; i++) PointSelect(ctx);
      RangeSelect(ctx);
      IndexUpdate(ctx);
      NonIndexUpdate(ctx);
      DeleteInsert(ctx);
      db_->CommitTransaction(ctx);
      break;
    case SysbenchOp::kWriteOnly:
      IndexUpdate(ctx);
      NonIndexUpdate(ctx);
      DeleteInsert(ctx);
      db_->CommitTransaction(ctx);
      break;
    case SysbenchOp::kPointUpdate:
      for (int i = 0; i < 10; i++) IndexUpdate(ctx);
      db_->CommitTransaction(ctx);
      break;
  }
  return static_cast<uint32_t>(total_queries_ - before);
}

}  // namespace polarcxl::workload
