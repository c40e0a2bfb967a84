// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Multi-statement transactions with rollback: each transactional write
// first logs a durable logical undo record (ARIES-style: undo information
// travels in the WAL), so both runtime Abort() and the recovery-time undo
// pass for loser transactions (recovery/txn_undo.h) can reverse it. Undo is
// logical (re-insert / remove / restore-bytes through the B+tree), which
// keeps it valid across page splits, and idempotent, which makes a crash
// during rollback harmless.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace polarcxl::engine {

/// One reversible action, both kept in memory (for runtime aborts) and
/// serialized into a kUndoInfo WAL record (for recovery).
struct UndoOp {
  enum class Kind : uint8_t {
    kRemove = 0,        // undo of an insert: delete `key`
    kReinsert = 1,      // undo of a delete: insert `key` = bytes
    kRestoreBytes = 2,  // undo of an update: write bytes at [off, off+len)
  };

  Kind kind = Kind::kRemove;
  uint16_t table = 0;
  uint32_t off = 0;
  uint64_t key = 0;
  std::vector<uint8_t> bytes;

  std::vector<uint8_t> Serialize() const;
  /// In-place form: serializes into `*out` (resized, capacity reused) so
  /// the WAL record payload is built without an intermediate vector. `Buf`
  /// is any byte container with the resize/data surface (std::vector,
  /// storage::PayloadBuf).
  template <typename Buf>
  void SerializeInto(Buf* out) const {
    out->resize(1 + 2 + 4 + 8 + bytes.size());
    uint8_t* d = out->data();
    d[0] = static_cast<uint8_t>(kind);
    std::memcpy(d + 1, &table, sizeof(table));
    std::memcpy(d + 3, &off, sizeof(off));
    std::memcpy(d + 7, &key, sizeof(key));
    // An empty payload's data() may be null, which memcpy must not see.
    if (!bytes.empty()) std::memcpy(d + 15, bytes.data(), bytes.size());
  }
  static UndoOp Deserialize(const uint8_t* data, size_t len);
  template <typename Buf>
  static UndoOp Deserialize(const Buf& data) {
    return Deserialize(data.data(), data.size());
  }
};

/// A transaction handle. Obtain via TransactionManager::Begin; finish with
/// Commit or Abort exactly once.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  bool finished() const { return finished_; }
  size_t num_undo_ops() const { return undo_.size(); }

 private:
  friend class TransactionManager;
  explicit Transaction(uint64_t id) : id_(id) {}

  uint64_t id_;
  bool finished_ = false;
  std::vector<UndoOp> undo_;
};

/// Transactional operation surface over a Database. Writes performed
/// through this class are atomic as a group: Commit makes them durable,
/// Abort (or a crash before the commit record reaches the log) erases them.
class TransactionManager {
 public:
  explicit TransactionManager(Database* db) : db_(db) {}
  POLAR_DISALLOW_COPY(TransactionManager);

  std::unique_ptr<Transaction> Begin(sim::ExecContext& ctx);

  Status Insert(sim::ExecContext& ctx, Transaction* txn, size_t table,
                uint64_t key, Slice row);
  Status Update(sim::ExecContext& ctx, Transaction* txn, size_t table,
                uint64_t key, Slice row);
  Status UpdateColumn(sim::ExecContext& ctx, Transaction* txn, size_t table,
                      uint64_t key, uint32_t off, Slice bytes);
  Status Delete(sim::ExecContext& ctx, Transaction* txn, size_t table,
                uint64_t key);
  Result<std::string> Get(sim::ExecContext& ctx, Transaction* txn,
                          size_t table, uint64_t key);
  /// Allocation-free form of Get(): reads into the caller's scratch string,
  /// reusing its capacity. Identical charging and visibility.
  Status GetTo(sim::ExecContext& ctx, Transaction* txn, size_t table,
               uint64_t key, std::string* out);

  /// Durably commits: appends the commit marker and flushes the WAL.
  Status Commit(sim::ExecContext& ctx, Transaction* txn);

  /// Rolls back every write of the transaction (reverse order), then logs
  /// the abort marker so recovery knows the rollback was materialized.
  Status Abort(sim::ExecContext& ctx, Transaction* txn);

  Database* db() { return db_; }

 private:
  /// Logs the undo record durably-with-the-change and remembers it.
  void RecordUndo(sim::ExecContext& ctx, Transaction* txn, UndoOp op);
  Status ApplyUndo(sim::ExecContext& ctx, const UndoOp& op);
  void AppendMarker(sim::ExecContext& ctx, storage::RedoKind kind,
                    uint64_t txn_id);

  friend Status ApplyUndoForRecovery(sim::ExecContext& ctx, Database* db,
                                     const UndoOp& op);

  Database* db_;
  uint64_t next_txn_id_ = 1;
  // Write-path scratch (managers are used single-threaded, like the rest of
  // an instance): old-row image for undo capture and the one-record batch
  // handed to AppendMtr's drain overload. Steady state reuses both.
  std::string old_row_scratch_;
  std::vector<storage::RedoRecord> batch_scratch_;
};

/// Recovery helper: applies one deserialized undo op against a recovered
/// database (idempotent).
Status ApplyUndoForRecovery(sim::ExecContext& ctx, Database* db,
                            const UndoOp& op);

}  // namespace polarcxl::engine
