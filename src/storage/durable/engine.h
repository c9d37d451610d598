// The durable storage engine: one data directory holding snapshots +
// WALs, implementing core::DurabilitySink so every committed mutation
// of a core::Database is logged before the statement is acknowledged.
//
// Data-dir layout:
//   snapshot-<seq>.snap   immutable full-state images; <seq> is the
//                         first WAL sequence number NOT contained in
//                         the snapshot
//   wal-<seq>.log         append-only DML logs, one per snapshot
//                         generation (rotated at BeginSnapshot)
//
// Recovery protocol (Recover):
//   1. Load the highest-numbered snapshot. A snapshot that fails
//      validation is a hard error — older WALs were GC'd when it was
//      published, so there is no silent fallback. `.tmp` files (a
//      crash mid-publish) are ignored and cleaned up.
//   2. Replay every WAL with seq >= the snapshot's next_wal_seq in
//      ascending order; a gap in the sequence is a hard error.
//      Records apply *physically* (appended rows, whole weight
//      epochs) — replay never re-runs IPF or model training, and a
//      replayed epoch keeps its fit provenance so the first
//      post-restart SEMI-OPEN refit is a signature-match no-op.
//   3. A torn record at the tail of the LAST WAL (a crash mid-append)
//      is truncated with a warning; corruption anywhere else fails
//      loudly.
//   4. Reopen the last WAL for append and attach to the database as
//      its durability sink.
//
// Snapshot protocol: BeginSnapshot (called with writers excluded)
// rotates the WAL and serializes the state to memory; CommitSnapshot
// (called without any lock) publishes the image atomically and GC's
// snapshots + WALs older than the new generation. A crash between the
// two leaves the previous snapshot + both WALs — fully recoverable.
#ifndef MOSAIC_STORAGE_DURABLE_ENGINE_H_
#define MOSAIC_STORAGE_DURABLE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "core/durability.h"
#include "storage/durable/wal.h"

namespace mosaic {
namespace core {
class Database;
}  // namespace core

namespace durable {

struct StorageEngineOptions {
  /// fsync the WAL on every logged mutation, so an acknowledged write
  /// survives a crash. Turning it off trades that guarantee for
  /// ingest throughput (the OS still flushes eventually; snapshots
  /// are always fsync'd).
  bool fsync_dml = true;
};

struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;  ///< next_wal_seq of the loaded snapshot
  uint64_t wal_files_replayed = 0;
  uint64_t wal_records_applied = 0;
  bool wal_tail_truncated = false;
  /// Bytes read and CRC-verified: the loaded snapshot file, and the
  /// valid prefix of every replayed WAL (headers included).
  uint64_t snapshot_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t tables = 0;
  uint64_t populations = 0;
  uint64_t samples = 0;
  uint64_t recovery_us = 0;
};

class StorageEngine : public core::DurabilitySink {
 public:
  /// Open (creating if needed) a data directory. No recovery happens
  /// yet; call Recover exactly once before logging anything.
  [[nodiscard]] static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& data_dir, StorageEngineOptions options = {});

  ~StorageEngine() override = default;

  /// Rebuild `db` from the newest snapshot + WAL replay (see the
  /// protocol above), then attach this engine as the database's
  /// durability sink. `db` must be freshly constructed (empty
  /// catalog).
  [[nodiscard]] Result<RecoveryInfo> Recover(core::Database* db);

  /// Opaque product of BeginSnapshot, consumed by CommitSnapshot.
  struct PendingSnapshot {
    std::string image;
    uint64_t next_wal_seq = 0;
  };

  /// Capture a consistent snapshot image in memory and rotate the WAL
  /// to the next sequence number. The caller must exclude writers
  /// (the service holds its exclusive catalog lock); the call does no
  /// data-file I/O beyond creating the next WAL, so the lock hold is
  /// short.
  [[nodiscard]] Result<PendingSnapshot> BeginSnapshot(core::Database* db);

  /// Publish the captured image atomically, then GC snapshots and
  /// WALs made obsolete by it. Runs without any engine lock — DML
  /// continues appending to the rotated WAL meanwhile.
  [[nodiscard]] Status CommitSnapshot(PendingSnapshot pending);

  const std::string& data_dir() const { return data_dir_; }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  // --- core::DurabilitySink ---
  [[nodiscard]] Status LogCreateTable(const std::string& name, const Table& table) override;
  [[nodiscard]] Status LogCreatePopulation(const core::PopulationInfo& population) override;
  [[nodiscard]] Status LogCreateSample(const core::SampleInfo& sample) override;
  [[nodiscard]] Status LogRegisterMarginal(const std::string& population,
                             const std::string& metadata_name,
                             const stats::Marginal& marginal) override;
  [[nodiscard]] Status LogDrop(sql::DropStmt::Target target,
                 const std::string& name) override;
  [[nodiscard]] Status LogTableAppend(const std::string& name, const Table& suffix) override;
  [[nodiscard]] Status LogTableReplace(const std::string& name, const Table& table) override;
  [[nodiscard]] Status LogSampleIngest(const std::string& name, const Table& suffix,
                         const core::WeightEpoch& epoch) override;
  [[nodiscard]] Status LogPublishEpoch(const std::string& name,
                         const core::WeightEpoch& epoch) override;

 private:
  explicit StorageEngine(std::string data_dir, StorageEngineOptions options);

  std::string PathOf(const std::string& file) const {
    return data_dir_ + "/" + file;
  }

  /// Serialize versions from the attached database and append under
  /// the WAL mutex. Every sink method funnels here.
  [[nodiscard]] Status AppendRecord(WalRecordType type, std::string body);

  [[nodiscard]] Status ApplyWalRecord(core::Database* db, const WalRecord& record);

  /// Delete snapshots and WALs with seq < `keep_seq` (post-commit GC).
  [[nodiscard]] Status GarbageCollect(uint64_t keep_seq);

  std::string data_dir_;
  StorageEngineOptions options_;
  core::Database* db_ = nullptr;  ///< set by Recover
  RecoveryInfo recovery_info_;

  /// Serializes WAL appends and rotation. SEMI-OPEN refits publish
  /// epochs under the service's SHARED lock, so concurrent log calls
  /// are real; rotation in BeginSnapshot runs under the service's
  /// exclusive lock but still takes this mutex for the programmatic
  /// (service-less) users.
  Mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(wal_mu_);

  metrics::Counter* wal_appends_total_;
  metrics::Counter* wal_append_bytes_total_;
  metrics::Counter* wal_fsyncs_total_;
  metrics::Counter* snapshots_total_;
  metrics::Counter* snapshot_bytes_total_;
  metrics::Counter* recoveries_total_;
  metrics::Counter* recovery_wal_records_total_;
  metrics::Counter* recovery_tail_truncations_total_;
  metrics::Histogram* wal_append_us_;
  metrics::Histogram* snapshot_write_us_;
  metrics::Histogram* recovery_us_;
};

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_ENGINE_H_
