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
// codec (storage/codec.h, little-endian, asserted there), so a mapped
// column is directly the host's own array.
//
// Section B offsets are never stored: writer and reader both walk the
// same deterministic layout. Because the offsets are 64-byte aligned
// and an mmap base is page-aligned, a mapped column array is 64-byte
// aligned in memory — exactly what the SIMD kernels require of a
// ColumnSpan — so MappedSnapshot serves zero-copy TableViews of
// samples larger than RAM.
//
// Snapshots are published atomically (write .tmp, fsync, rename,
// fsync dir). Readers treat any validation failure as a hard error:
// by the time a snapshot is loaded, the WALs predating it have been
// GC'd, so there is nothing older to fall back to and serving a
// partial state silently is the one forbidden outcome.
#ifndef MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_
#define MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/catalog.h"
#include "core/weights.h"
#include "storage/durable/io.h"
#include "storage/table.h"
#include "storage/table_view.h"

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

/// Zero-copy access to a snapshot's sample columns through mmap.
/// Catalog objects (schemas, marginals, dictionaries, weight epochs)
/// are decoded into RAM; sample column arrays stay in the mapping and
/// are served as ColumnSpans. The MappedSnapshot must outlive every
/// TableView it hands out.
class MappedSnapshot {
 public:
  [[nodiscard]] static Result<std::unique_ptr<MappedSnapshot>> Open(
      const std::string& path);

  uint64_t next_wal_seq() const { return next_wal_seq_; }
  uint64_t catalog_version() const { return catalog_version_; }
  uint64_t metadata_version() const { return metadata_version_; }

  std::vector<std::string> sample_names() const;

  /// Zero-copy view of a sample's columns (no weight column attached;
  /// callers add one from epoch() via TableView::AddDoubleSpan).
  [[nodiscard]] Result<TableView> SampleView(const std::string& name) const;

  /// The sample's weight epoch as captured (decoded into RAM).
  [[nodiscard]] Result<const core::WeightEpoch*> SampleEpoch(const std::string& name) const;

 private:
  struct MappedSample {
    core::SampleInfo header;  ///< data empty; schema/mechanism/etc.
    core::WeightEpoch epoch;
    size_t num_rows = 0;
    std::vector<ColumnSpan> spans;
  };

  MappedFile file_;
  uint64_t next_wal_seq_ = 1;
  uint64_t catalog_version_ = 1;
  uint64_t metadata_version_ = 1;
  std::vector<MappedSample> samples_;
};

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_SNAPSHOT_H_
