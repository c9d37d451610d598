#include "storage/durable/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/event_log.h"
#include "core/database.h"
#include "storage/durable/serde.h"
#include "storage/durable/snapshot.h"

namespace mosaic {
namespace durable {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool IsTmpFile(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
}

}  // namespace

StorageEngine::StorageEngine(std::string data_dir,
                             StorageEngineOptions options)
    : data_dir_(std::move(data_dir)), options_(options) {
  metrics::Registry& reg = metrics::Registry::Global();
  wal_appends_total_ = reg.GetCounter("mosaic_wal_appends_total");
  wal_append_bytes_total_ = reg.GetCounter("mosaic_wal_append_bytes_total");
  wal_fsyncs_total_ = reg.GetCounter("mosaic_wal_fsyncs_total");
  snapshots_total_ = reg.GetCounter("mosaic_snapshots_total");
  snapshot_bytes_total_ = reg.GetCounter("mosaic_snapshot_bytes_total");
  recoveries_total_ = reg.GetCounter("mosaic_recoveries_total");
  recovery_wal_records_total_ =
      reg.GetCounter("mosaic_recovery_wal_records_total");
  recovery_tail_truncations_total_ =
      reg.GetCounter("mosaic_recovery_wal_tail_truncations_total");
  wal_append_us_ = reg.GetHistogram("mosaic_wal_append_us");
  snapshot_write_us_ = reg.GetHistogram("mosaic_snapshot_write_us");
  recovery_us_ = reg.GetHistogram("mosaic_recovery_us");
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& data_dir, StorageEngineOptions options) {
  MOSAIC_RETURN_IF_ERROR(EnsureDir(data_dir));
  return std::unique_ptr<StorageEngine>(
      new StorageEngine(data_dir, options));
}

Result<RecoveryInfo> StorageEngine::Recover(core::Database* db) {
  const uint64_t start_us = NowUs();
  RecoveryInfo info;
  MOSAIC_ASSIGN_OR_RETURN(std::vector<std::string> files, ListDir(data_dir_));

  // Inventory the directory. `.tmp` leftovers are crashes mid-publish
  // — never valid state, always safe to delete.
  uint64_t best_snapshot = 0;
  bool have_snapshot = false;
  std::vector<uint64_t> wal_seqs;
  for (const std::string& name : files) {
    if (IsTmpFile(name)) {
      MOSAIC_RETURN_IF_ERROR(RemoveFile(PathOf(name)));
      continue;
    }
    if (Result<uint64_t> seq = ParseSnapshotFileName(name); seq.ok()) {
      if (!have_snapshot || *seq > best_snapshot) best_snapshot = *seq;
      have_snapshot = true;
      continue;
    }
    if (Result<uint64_t> seq = ParseWalFileName(name); seq.ok()) {
      wal_seqs.push_back(*seq);
    }
  }

  // 1. Snapshot. Failure to load the newest snapshot is a hard error:
  // the WALs that predate it were GC'd at publish time, so a corrupt
  // snapshot means the state genuinely cannot be reconstructed — say
  // so instead of serving something partial.
  uint64_t replay_from = 1;
  if (have_snapshot) {
    MOSAIC_ASSIGN_OR_RETURN(
        SnapshotState state,
        LoadSnapshot(PathOf(SnapshotFileName(best_snapshot))));
    for (auto& [name, table] : state.tables) {
      MOSAIC_RETURN_IF_ERROR(
          db->catalog()->AddTable(name, std::move(table)));
      ++info.tables;
    }
    for (core::PopulationInfo& population : state.populations) {
      MOSAIC_RETURN_IF_ERROR(
          db->catalog()->AddPopulation(std::move(population)));
      ++info.populations;
    }
    for (SnapshotState::Sample& sample : state.samples) {
      const std::string name = sample.info.name;
      MOSAIC_RETURN_IF_ERROR(db->catalog()->AddSample(std::move(sample.info)));
      MOSAIC_RETURN_IF_ERROR(
          db->RestoreSampleEpoch(name, std::move(sample.epoch)));
      ++info.samples;
    }
    db->RestoreVersions(state.catalog_version, state.metadata_version);
    replay_from = state.next_wal_seq;
    info.snapshot_loaded = true;
    info.snapshot_seq = best_snapshot;
    info.snapshot_bytes = state.file_bytes;
  }

  // 2./3. WAL replay, ascending, gap-free.
  std::sort(wal_seqs.begin(), wal_seqs.end());
  uint64_t next_wal_seq = replay_from;
  uint64_t last_wal_seq = 0;
  bool have_wal = false;
  for (const uint64_t seq : wal_seqs) {
    if (seq < replay_from) {
      // Obsolete generation that a crash interrupted GC of.
      MOSAIC_RETURN_IF_ERROR(RemoveFile(PathOf(WalFileName(seq))));
      continue;
    }
    if (seq != next_wal_seq) {
      return Status::IOError(
          "recovery: missing WAL " + WalFileName(next_wal_seq) + " (found " +
          WalFileName(seq) + ") — refusing to serve a state with a hole");
    }
    const std::string path = PathOf(WalFileName(seq));
    MOSAIC_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(path));
    if (wal.seq != seq) {
      return Status::IOError("recovery: " + path +
                             " header seq does not match its file name");
    }
    if (wal.tail_truncated) {
      // Only the LAST wal may legally have a torn tail (a crash
      // mid-append); a torn tail in an earlier generation means the
      // later rotation observed a log we now cannot read fully.
      if (seq != wal_seqs.back()) {
        return Status::IOError("recovery: " + path +
                               " has a torn tail but is not the last WAL");
      }
      std::fprintf(stderr,
                   "[mosaic] recovery: truncating torn WAL tail %s at byte "
                   "%llu\n",
                   path.c_str(),
                   static_cast<unsigned long long>(wal.valid_bytes));
      MOSAIC_RETURN_IF_ERROR(TruncateFile(path, wal.valid_bytes));
      info.wal_tail_truncated = true;
      recovery_tail_truncations_total_->Inc();
    }
    for (const WalRecord& record : wal.records) {
      MOSAIC_RETURN_IF_ERROR(ApplyWalRecord(db, record));
      db->RestoreVersions(record.catalog_version, record.metadata_version);
      ++info.wal_records_applied;
    }
    ++info.wal_files_replayed;
    info.wal_bytes += wal.valid_bytes;
    last_wal_seq = seq;
    have_wal = true;
    ++next_wal_seq;
  }

  // 4. Reopen (or start) the live WAL and attach. Recovery is
  // single-threaded by contract, but wal_ is lock-guarded for the
  // serving phase — take the (uncontended) lock so the discipline
  // holds everywhere.
  {
    MutexLock lock(wal_mu_);
    if (have_wal) {
      MOSAIC_ASSIGN_OR_RETURN(
          wal_, WalWriter::OpenForAppend(PathOf(WalFileName(last_wal_seq)),
                                         last_wal_seq));
    } else {
      MOSAIC_ASSIGN_OR_RETURN(
          wal_, WalWriter::Create(PathOf(WalFileName(replay_from)),
                                  replay_from));
    }
  }
  db_ = db;
  db->set_durability_sink(this);

  // Final object counts (WAL replay can add or drop past the
  // snapshot's totals).
  info.tables = db->catalog()->TableNames().size();
  info.populations = db->catalog()->PopulationNames().size();
  info.samples = db->catalog()->SampleNames().size();

  info.recovery_us = NowUs() - start_us;
  recoveries_total_->Inc();
  recovery_wal_records_total_->Inc(info.wal_records_applied);
  recovery_us_->Record(info.recovery_us);
  recovery_info_ = info;
  elog::EventLog::Global().Emit(
      LogLevel::kInfo, "recovery_complete",
      {{"data_dir", data_dir_},
       {"tables", std::to_string(info.tables)},
       {"populations", std::to_string(info.populations)},
       {"samples", std::to_string(info.samples)},
       {"snapshot_loaded", info.snapshot_loaded ? "true" : "false"},
       {"wal_records_applied", std::to_string(info.wal_records_applied)},
       {"wal_tail_truncated", info.wal_tail_truncated ? "true" : "false"},
       {"snapshot_bytes", std::to_string(info.snapshot_bytes)},
       {"wal_bytes", std::to_string(info.wal_bytes)},
       {"recovery_us", std::to_string(info.recovery_us)}});
  return info;
}

Status StorageEngine::ApplyWalRecord(core::Database* db,
                                     const WalRecord& record) {
  ByteReader in(record.body);
  switch (record.type) {
    case WalRecordType::kCreateTable: {
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(Table table, DecodeTable(&in));
      return db->catalog()->AddTable(name, std::move(table));
    }
    case WalRecordType::kCreatePopulation: {
      MOSAIC_ASSIGN_OR_RETURN(core::PopulationInfo p, DecodePopulation(&in));
      return db->catalog()->AddPopulation(std::move(p));
    }
    case WalRecordType::kCreateSample: {
      MOSAIC_ASSIGN_OR_RETURN(core::SampleInfo s, DecodeSampleHeader(&in));
      return db->catalog()->AddSample(std::move(s));
    }
    case WalRecordType::kRegisterMarginal: {
      MOSAIC_ASSIGN_OR_RETURN(std::string population, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(std::string metadata_name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(stats::Marginal marginal, DecodeMarginal(&in));
      return db->RegisterMarginal(population, metadata_name,
                                  std::move(marginal));
    }
    case WalRecordType::kDrop: {
      MOSAIC_ASSIGN_OR_RETURN(uint8_t target, in.ReadU8());
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      switch (static_cast<sql::DropStmt::Target>(target)) {
        case sql::DropStmt::Target::kTable:
          return db->catalog()->DropTable(name);
        case sql::DropStmt::Target::kPopulation:
          return db->catalog()->DropPopulation(name);
        case sql::DropStmt::Target::kSample:
          return db->catalog()->DropSample(name);
        case sql::DropStmt::Target::kMetadata:
          return db->catalog()->DropMetadata(name);
      }
      return Status::InvalidArgument("wal: bad drop target");
    }
    case WalRecordType::kTableAppend: {
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(Table suffix, DecodeTable(&in));
      MOSAIC_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(name));
      return table->Concat(suffix);
    }
    case WalRecordType::kTableReplace: {
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(Table replacement, DecodeTable(&in));
      MOSAIC_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(name));
      *table = std::move(replacement);
      return Status::OK();
    }
    case WalRecordType::kSampleIngest: {
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(Table suffix, DecodeTable(&in));
      MOSAIC_ASSIGN_OR_RETURN(core::WeightEpoch epoch, DecodeWeightEpoch(&in));
      MOSAIC_ASSIGN_OR_RETURN(core::SampleInfo * sample,
                              db->catalog()->GetSample(name));
      MOSAIC_RETURN_IF_ERROR(sample->data.Concat(suffix));
      return db->RestoreSampleEpoch(name, std::move(epoch));
    }
    case WalRecordType::kPublishEpoch: {
      MOSAIC_ASSIGN_OR_RETURN(std::string name, in.ReadString());
      MOSAIC_ASSIGN_OR_RETURN(core::WeightEpoch epoch, DecodeWeightEpoch(&in));
      return db->RestoreSampleEpoch(name, std::move(epoch));
    }
  }
  return Status::InvalidArgument("wal: unknown record type");
}

Status StorageEngine::AppendRecord(WalRecordType type, std::string body) {
  const uint64_t start_us = NowUs();
  WalRecord record;
  record.type = type;
  record.body = std::move(body);
  // Versions AFTER the mutation: the statement bumped them before
  // logging, and it still holds the lock that serialized the bump.
  record.catalog_version = db_->catalog_version();
  record.metadata_version = db_->metadata_version();
  {
    MutexLock lock(wal_mu_);
    if (wal_ == nullptr) {
      return Status::Internal("durable: log call before Recover");
    }
    MOSAIC_RETURN_IF_ERROR(wal_->Append(record, options_.fsync_dml));
  }
  wal_appends_total_->Inc();
  wal_append_bytes_total_->Inc(record.body.size());
  if (options_.fsync_dml) wal_fsyncs_total_->Inc();
  wal_append_us_->Record(NowUs() - start_us);
  return Status::OK();
}

Result<StorageEngine::PendingSnapshot> StorageEngine::BeginSnapshot(
    core::Database* db) {
  PendingSnapshot pending;
  {
    MutexLock lock(wal_mu_);
    if (wal_ == nullptr) {
      return Status::Internal("durable: BeginSnapshot before Recover");
    }
    // The snapshot will contain everything logged so far; the next
    // generation starts a fresh WAL. Rotate first so any mutation
    // that slips in after the capture (there can be none while the
    // caller holds its exclusive lock, but programmatic callers may
    // be laxer) lands in the WAL the snapshot points at.
    const uint64_t next_seq = wal_->seq() + 1;
    MOSAIC_RETURN_IF_ERROR(wal_->Sync());
    MOSAIC_ASSIGN_OR_RETURN(
        std::unique_ptr<WalWriter> next,
        WalWriter::Create(PathOf(WalFileName(next_seq)), next_seq));
    wal_ = std::move(next);
    pending.next_wal_seq = next_seq;
  }
  MOSAIC_ASSIGN_OR_RETURN(pending.image,
                          BuildSnapshotImage(db, pending.next_wal_seq));
  return pending;
}

Status StorageEngine::CommitSnapshot(PendingSnapshot pending) {
  const uint64_t start_us = NowUs();
  const std::string path = PathOf(SnapshotFileName(pending.next_wal_seq));
  MOSAIC_RETURN_IF_ERROR(AtomicWriteFile(path, pending.image));
  snapshots_total_->Inc();
  snapshot_bytes_total_->Inc(pending.image.size());
  snapshot_write_us_->Record(NowUs() - start_us);
  elog::EventLog::Global().Emit(
      LogLevel::kInfo, "snapshot_written",
      {{"file", SnapshotFileName(pending.next_wal_seq)},
       {"bytes", std::to_string(pending.image.size())},
       {"write_us", std::to_string(NowUs() - start_us)}});
  // Only after the new snapshot is durable do its predecessors (and
  // the WAL generations it swallowed) become garbage.
  return GarbageCollect(pending.next_wal_seq);
}

Status StorageEngine::GarbageCollect(uint64_t keep_seq) {
  MOSAIC_ASSIGN_OR_RETURN(std::vector<std::string> files, ListDir(data_dir_));
  for (const std::string& name : files) {
    if (Result<uint64_t> seq = ParseSnapshotFileName(name);
        seq.ok() && *seq < keep_seq) {
      MOSAIC_RETURN_IF_ERROR(RemoveFile(PathOf(name)));
      continue;
    }
    if (Result<uint64_t> seq = ParseWalFileName(name);
        seq.ok() && *seq < keep_seq) {
      MOSAIC_RETURN_IF_ERROR(RemoveFile(PathOf(name)));
    }
  }
  return Status::OK();
}

// --- sink methods: encode the physical payload, append, done ---

Status StorageEngine::LogCreateTable(const std::string& name,
                                     const Table& table) {
  ByteWriter body;
  body.PutString(name);
  EncodeTable(table, &body);
  return AppendRecord(WalRecordType::kCreateTable, body.Take());
}

Status StorageEngine::LogCreatePopulation(
    const core::PopulationInfo& population) {
  ByteWriter body;
  EncodePopulation(population, &body);
  return AppendRecord(WalRecordType::kCreatePopulation, body.Take());
}

Status StorageEngine::LogCreateSample(const core::SampleInfo& sample) {
  ByteWriter body;
  EncodeSampleHeader(sample, &body);
  return AppendRecord(WalRecordType::kCreateSample, body.Take());
}

Status StorageEngine::LogRegisterMarginal(const std::string& population,
                                          const std::string& metadata_name,
                                          const stats::Marginal& marginal) {
  ByteWriter body;
  body.PutString(population);
  body.PutString(metadata_name);
  EncodeMarginal(marginal, &body);
  return AppendRecord(WalRecordType::kRegisterMarginal, body.Take());
}

Status StorageEngine::LogDrop(sql::DropStmt::Target target,
                              const std::string& name) {
  ByteWriter body;
  body.PutU8(static_cast<uint8_t>(target));
  body.PutString(name);
  return AppendRecord(WalRecordType::kDrop, body.Take());
}

Status StorageEngine::LogTableAppend(const std::string& name,
                                     const Table& suffix) {
  ByteWriter body;
  body.PutString(name);
  EncodeTable(suffix, &body);
  return AppendRecord(WalRecordType::kTableAppend, body.Take());
}

Status StorageEngine::LogTableReplace(const std::string& name,
                                      const Table& table) {
  ByteWriter body;
  body.PutString(name);
  EncodeTable(table, &body);
  return AppendRecord(WalRecordType::kTableReplace, body.Take());
}

Status StorageEngine::LogSampleIngest(const std::string& name,
                                      const Table& suffix,
                                      const core::WeightEpoch& epoch) {
  ByteWriter body;
  body.PutString(name);
  EncodeTable(suffix, &body);
  EncodeWeightEpoch(epoch, &body);
  return AppendRecord(WalRecordType::kSampleIngest, body.Take());
}

Status StorageEngine::LogPublishEpoch(const std::string& name,
                                      const core::WeightEpoch& epoch) {
  ByteWriter body;
  body.PutString(name);
  EncodeWeightEpoch(epoch, &body);
  return AppendRecord(WalRecordType::kPublishEpoch, body.Take());
}

}  // namespace durable
}  // namespace mosaic
