#include "workload/tatp.h"

#include <string>

#include "common/prof.h"

namespace polarcxl::workload {

namespace {
constexpr uint16_t kSubscriberRow = 132;  // 10 bit_x + 10 hex_x + vlr etc.
constexpr uint16_t kAccessInfoRow = 48;
constexpr uint16_t kSpecialFacilityRow = 40;
constexpr uint16_t kCallForwardingRow = 40;

uint64_t AccessInfoKey(uint64_t sid, uint64_t ai) { return sid * 4 + ai; }
uint64_t SpecialFacilityKey(uint64_t sid, uint64_t sf) { return sid * 4 + sf; }
uint64_t CallForwardingKey(uint64_t sid, uint64_t sf, uint64_t start_hr) {
  return SpecialFacilityKey(sid, sf) * 24 + start_hr;
}

// One template per fill character (sizes are fixed per character);
// thread_local because sweep experiments run on concurrent threads.
const std::string& Filled(uint16_t size, char c) {
  static thread_local std::string cache[256];
  std::string& s = cache[static_cast<unsigned char>(c)];
  if (s.size() != size) s.assign(size, c);
  return s;
}
}  // namespace

Status LoadTatpTables(sim::ExecContext& ctx, engine::Database* db,
                      const TatpConfig& config) {
  POLAR_RETURN_IF_ERROR(
      db->CreateTable(ctx, "subscriber", kSubscriberRow).status());
  POLAR_RETURN_IF_ERROR(
      db->CreateTable(ctx, "access_info", kAccessInfoRow).status());
  POLAR_RETURN_IF_ERROR(
      db->CreateTable(ctx, "special_facility", kSpecialFacilityRow).status());
  POLAR_RETURN_IF_ERROR(
      db->CreateTable(ctx, "call_forwarding", kCallForwardingRow).status());

  Rng rng(0x7A79);
  for (uint64_t sid = 1; sid <= config.subscribers; sid++) {
    POLAR_RETURN_IF_ERROR(db->table(TatpTables::kSubscriber)
                              ->Insert(ctx, sid, Filled(kSubscriberRow, 's')));
    // 1..4 access-info rows; ai_type 0..3.
    const uint64_t ais = 1 + rng.Uniform(4);
    for (uint64_t ai = 0; ai < ais; ai++) {
      POLAR_RETURN_IF_ERROR(
          db->table(TatpTables::kAccessInfo)
              ->Insert(ctx, AccessInfoKey(sid, ai), Filled(kAccessInfoRow, 'a')));
    }
    // 1..4 special facilities; ~half get a call-forwarding row.
    const uint64_t sfs = 1 + rng.Uniform(4);
    for (uint64_t sf = 0; sf < sfs; sf++) {
      POLAR_RETURN_IF_ERROR(db->table(TatpTables::kSpecialFacility)
                                ->Insert(ctx, SpecialFacilityKey(sid, sf),
                                         Filled(kSpecialFacilityRow, 'f')));
      if (rng.Chance(0.5)) {
        POLAR_RETURN_IF_ERROR(
            db->table(TatpTables::kCallForwarding)
                ->Insert(ctx, CallForwardingKey(sid, sf, rng.Uniform(24)),
                         Filled(kCallForwardingRow, 'x')));
      }
    }
  }
  db->CommitTransaction(ctx);
  db->Checkpoint(ctx);
  return Status::OK();
}

TatpWorkload::TatpWorkload(engine::Database* db, TatpConfig config,
                           NodeId node, uint64_t seed)
    : db_(db),
      config_(config),
      node_(node),
      rng_(seed ^ (0x7A7AULL + node)),
      fd_per_node_(std::max<uint64_t>(1, config_.SubscribersPerNode())) {}

uint64_t TatpWorkload::PickSubscriber() {
  const uint64_t base =
      static_cast<uint64_t>(node_) * fd_per_node_.divisor();
  return 1 + base + fd_per_node_.Mod(rng_.Next());
}

uint32_t TatpWorkload::RunTransaction(sim::ExecContext& ctx) {
  POLAR_PROF_SCOPE(kWorkload);
  const uint64_t sid = PickSubscriber();
  const uint64_t pick = rng_.Uniform(100);
  uint32_t queries = 0;

  if (pick < 35) {  // GET_SUBSCRIBER_DATA
    ctx.Advance(sim::kCpuCosts.point_query_base);
    POLAR_CHECK(db_->table(TatpTables::kSubscriber)
                    ->GetTo(ctx, sid, &row_scratch_)
                    .ok());
    stats_.reads++;
    queries = 1;
    db_->FinishReadOnly(ctx);
  } else if (pick < 45) {  // GET_NEW_DESTINATION
    ctx.Advance(sim::kCpuCosts.point_query_base);
    const uint64_t sf = rng_.Uniform(4);
    const Status fac = db_->table(TatpTables::kSpecialFacility)
                           ->GetTo(ctx, SpecialFacilityKey(sid, sf),
                                   &row_scratch_);
    queries = 1;
    if (fac.ok()) {
      ctx.Advance(sim::kCpuCosts.point_query_base);
      const Status cf =
          db_->table(TatpTables::kCallForwarding)
              ->GetTo(ctx, CallForwardingKey(sid, sf, rng_.Uniform(24)),
                      &row_scratch_);
      if (!cf.ok()) stats_.not_found++;
      queries++;
    } else {
      stats_.not_found++;
    }
    stats_.reads++;
    db_->FinishReadOnly(ctx);
  } else if (pick < 80) {  // GET_ACCESS_DATA
    ctx.Advance(sim::kCpuCosts.point_query_base);
    const Status ai =
        db_->table(TatpTables::kAccessInfo)
            ->GetTo(ctx, AccessInfoKey(sid, rng_.Uniform(4)), &row_scratch_);
    if (!ai.ok()) stats_.not_found++;
    stats_.reads++;
    queries = 1;
    db_->FinishReadOnly(ctx);
  } else if (pick < 82) {  // UPDATE_SUBSCRIBER_DATA
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const uint8_t bit = static_cast<uint8_t>(rng_.Uniform(2));
    POLAR_CHECK(db_->table(TatpTables::kSubscriber)
                    ->UpdateColumn(ctx, sid, 0,
                                   Slice(reinterpret_cast<const char*>(&bit),
                                         1))
                    .ok());
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const uint16_t data_a = static_cast<uint16_t>(rng_.Next());
    auto s = db_->table(TatpTables::kSpecialFacility)
                 ->UpdateColumn(ctx, SpecialFacilityKey(sid, rng_.Uniform(4)),
                                0,
                                Slice(reinterpret_cast<const char*>(&data_a),
                                      sizeof(data_a)));
    if (!s.ok()) stats_.not_found++;
    stats_.writes++;
    queries = 2;
    db_->CommitTransaction(ctx);
  } else if (pick < 96) {  // UPDATE_LOCATION
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const uint32_t vlr = static_cast<uint32_t>(rng_.Next());
    POLAR_CHECK(db_->table(TatpTables::kSubscriber)
                    ->UpdateColumn(ctx, sid, 20,
                                   Slice(reinterpret_cast<const char*>(&vlr),
                                         sizeof(vlr)))
                    .ok());
    stats_.writes++;
    queries = 1;
    db_->CommitTransaction(ctx);
  } else if (pick < 98) {  // INSERT_CALL_FORWARDING
    ctx.Advance(sim::kCpuCosts.point_query_base);
    const uint64_t sf = rng_.Uniform(4);
    db_->table(TatpTables::kSpecialFacility)
        ->GetTo(ctx, SpecialFacilityKey(sid, sf), &row_scratch_)
        .ok();
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const Status ins =
        db_->table(TatpTables::kCallForwarding)
            ->Insert(ctx, CallForwardingKey(sid, sf, rng_.Uniform(24)),
                     Filled(kCallForwardingRow, 'n'));
    if (!ins.ok()) stats_.not_found++;  // duplicate start hour
    stats_.writes++;
    queries = 2;
    db_->CommitTransaction(ctx);
  } else {  // DELETE_CALL_FORWARDING
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const Status del =
        db_->table(TatpTables::kCallForwarding)
            ->Delete(ctx, CallForwardingKey(sid, rng_.Uniform(4),
                                            rng_.Uniform(24)));
    if (!del.ok()) stats_.not_found++;
    stats_.writes++;
    queries = 1;
    db_->CommitTransaction(ctx);
  }
  return queries;
}

}  // namespace polarcxl::workload
