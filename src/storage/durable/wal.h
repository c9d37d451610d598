// Append-only write-ahead log of DML.
//
// File layout: a 16-byte header (magic "MOSWAL01" + u64 sequence
// number), then a stream of records, each framed as
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// where the payload is `u8 type | u64 catalog_version |
// u64 metadata_version | body`, all in the shared codec's byte order
// (storage/codec.h). The versions are the database's
// counters *after* the operation committed, so replay restores the
// exact stamps (the fit-signature machinery embeds metadata_version;
// exact restoration is what makes post-restart refits no-op).
//
// Torn-tail policy (ISSUE 8): a record whose frame extends past EOF,
// or whose CRC fails with nothing valid parseable after it, is a torn
// tail from a crash mid-append — recovery truncates it and continues.
// A CRC failure *followed by* a valid record is silent corruption in
// the middle of the log and recovery must fail loudly rather than
// serve a state with a hole in it.
#ifndef MOSAIC_STORAGE_DURABLE_WAL_H_
#define MOSAIC_STORAGE_DURABLE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace mosaic {
namespace durable {

enum class WalRecordType : uint8_t {
  kCreateTable = 1,
  kCreatePopulation = 2,
  kCreateSample = 3,
  kRegisterMarginal = 4,
  kDrop = 5,
  kTableAppend = 6,
  kTableReplace = 7,
  kSampleIngest = 8,
  kPublishEpoch = 9,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kCreateTable;
  uint64_t catalog_version = 0;
  uint64_t metadata_version = 0;
  std::string body;  ///< type-specific serde payload
};

/// "wal-000042.log" for seq 42 (zero-padded so lexicographic directory
/// order is numeric order).
std::string WalFileName(uint64_t seq);
/// Parse a WAL file name back to its sequence number; nullopt-style
/// NotFound for non-WAL names.
[[nodiscard]] Result<uint64_t> ParseWalFileName(const std::string& name);

/// Appender. Not thread-safe; the storage engine serializes appends
/// behind its own mutex.
class WalWriter {
 public:
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Create a fresh WAL file (fails if it exists) and make its
  /// existence durable.
  [[nodiscard]] static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint64_t seq);

  /// Reopen an existing WAL for append after recovery validated it
  /// (and truncated any torn tail).
  [[nodiscard]] static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, uint64_t seq);

  /// Append one record; when `sync`, fsync before returning so the
  /// record survives a crash the moment the statement is acknowledged.
  [[nodiscard]] Status Append(const WalRecord& record, bool sync);

  [[nodiscard]] Status Sync();

  uint64_t seq() const { return seq_; }
  const std::string& path() const { return path_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  WalWriter(int fd, uint64_t seq, std::string path)
      : fd_(fd), seq_(seq), path_(std::move(path)) {}

  int fd_;
  uint64_t seq_;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

struct WalReadResult {
  uint64_t seq = 0;
  std::vector<WalRecord> records;
  /// File offset just past the last valid record — the length the
  /// file should be truncated to when `tail_truncated`.
  uint64_t valid_bytes = 0;
  bool tail_truncated = false;
};

/// Read and validate a whole WAL file. Applies the torn-tail policy
/// above; does not modify the file (the caller truncates to
/// `valid_bytes` before reopening for append).
[[nodiscard]] Result<WalReadResult> ReadWal(const std::string& path);

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_WAL_H_
