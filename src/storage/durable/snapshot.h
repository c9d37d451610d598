// Versioned on-disk snapshots of the full engine state.
//
// A snapshot file is one immutable image of catalog + samples +
// weight epochs, named "snapshot-<seq>.snap" where <seq> is the WAL
// sequence number that starts *after* it (recovery loads the snapshot,
// then replays WALs with seq >= that number). Layout:
//
//   header   : magic "MOSSNP01" | u32 format | u64 next_wal_seq
//              | u64 catalog_version | u64 metadata_version | u32 crc
//   section A: framed segments  u8 type | u32 len | u32 crc | payload
//              kTable      — auxiliary table, fully inline
//              kPopulation — population + marginals
//              kSample     — sample header, current WeightEpoch,
//                            dictionaries, per-column byte sizes+CRCs
//              kEnd        — terminator
//   section B: for each sample (in segment order), each column's raw
//              array (int64/double/bool data or int32 dictionary
//              codes) at the next 64-byte-aligned file offset.
//
// Every field and column array is in the byte order of the shared
// codec (storage/codec.h, little-endian, asserted there), so a column
// section is directly the host's own array and loads with one copy.
//
// Section B offsets are never stored: writer and reader both walk the
// same deterministic layout. The 64-byte alignment is part of the
// format: existing snapshot files carry it, so it stays.
//
// Snapshots are published atomically (write .tmp, fsync, rename,
// fsync dir). Readers treat any validation failure as a hard error:
// by the time a snapshot is loaded, the WALs predating it have been
// GC'd, so there is nothing older to fall back to and serving a
// partial state silently is the one forbidden outcome.
#ifndef MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_
#define MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/catalog.h"
#include "core/weights.h"
#include "storage/table.h"

namespace mosaic {
namespace core {
class Database;
}  // namespace core

namespace durable {

std::string SnapshotFileName(uint64_t seq);
[[nodiscard]] Result<uint64_t> ParseSnapshotFileName(const std::string& name);

/// Serialize the database's entire durable state into a snapshot
/// image (the exact file bytes). Pure in-memory capture — the caller
/// holds whatever lock excludes writers, then publishes the image
/// outside the lock with AtomicWriteFile.
[[nodiscard]] Result<std::string> BuildSnapshotImage(core::Database* db,
                                       uint64_t next_wal_seq);

/// Fully decoded snapshot (owning copies of all data).
struct SnapshotState {
  uint64_t next_wal_seq = 1;
  uint64_t catalog_version = 1;
  uint64_t metadata_version = 1;
  uint64_t file_bytes = 0;  ///< bytes read and CRC-verified
  std::vector<std::pair<std::string, Table>> tables;
  std::vector<core::PopulationInfo> populations;
  struct Sample {
    core::SampleInfo info;  ///< with data materialized
    core::WeightEpoch epoch;
  };
  std::vector<Sample> samples;
};

/// Read + validate + materialize a snapshot file into RAM.
[[nodiscard]] Result<SnapshotState> LoadSnapshot(const std::string& path);

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_
