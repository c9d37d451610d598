#include "storage/durable/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/codec.h"
#include "storage/durable/crc32.h"
#include "storage/durable/io.h"

namespace mosaic {
namespace durable {

namespace {

constexpr char kWalMagic[8] = {'M', 'O', 'S', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderSize = 16;  // magic + u64 seq
constexpr size_t kFrameSize = 8;    // u32 len + u32 crc
// A record larger than this is treated as a corrupt length field, not
// an allocation request. Generous: a 16M-row double column is 128MB.
constexpr uint32_t kMaxRecordLen = 1u << 30;

// u8 type + u64 catalog_version + u64 metadata_version
constexpr size_t kPayloadHeaderSize = 1 + 8 + 8;

[[nodiscard]] Result<WalRecord> DecodePayload(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  WalRecord record;
  MOSAIC_ASSIGN_OR_RETURN(uint8_t type, in.ReadU8());
  if (type < static_cast<uint8_t>(WalRecordType::kCreateTable) ||
      type > static_cast<uint8_t>(WalRecordType::kPublishEpoch)) {
    return Status::InvalidArgument("wal: unknown record type " +
                                   std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  MOSAIC_ASSIGN_OR_RETURN(record.catalog_version, in.ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(record.metadata_version, in.ReadU64());
  record.body = std::string(in.rest());
  return record;
}

/// Does any complete, CRC-valid record frame parse starting at or
/// after `from`? Distinguishes a torn tail (no) from mid-log
/// corruption (yes). Scans frame-by-frame from every byte position:
/// after corruption we no longer trust frame lengths, so an honest
/// answer needs the byte-granular scan; WAL tails are small.
bool AnyValidRecordAfter(const uint8_t* data, size_t size, size_t from) {
  for (size_t off = from; off + kFrameSize <= size; ++off) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data + off, 4);
    std::memcpy(&crc, data + off + 4, 4);
    if (len == 0 || len > kMaxRecordLen) continue;
    if (off + kFrameSize + len > size) continue;
    if (Crc32(data + off + kFrameSize, len) != crc) continue;
    if (DecodePayload(data + off + kFrameSize, len).ok()) return true;
  }
  return false;
}

}  // namespace

std::string WalFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

[[nodiscard]] Result<uint64_t> ParseWalFileName(const std::string& name) {
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return Status::NotFound("not a wal file: " + name);
  }
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return Status::NotFound("not a wal file: " + name);
  uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return Status::NotFound("not a wal file: " + name);
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t seq) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IOError("wal: create " + path + ": " +
                           std::strerror(errno));
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(fd, seq, path));
  ByteWriter header;
  header.PutBytes(kWalMagic, sizeof(kWalMagic));
  header.PutU64(seq);
  Status st = WriteFull(fd, header.buffer().data(), header.size());
  if (st.ok()) st = SyncFd(fd);
  if (st.ok()) st = SyncDirOf(path);  // make the new file name durable
  if (!st.ok()) return st;
  writer->bytes_written_ = header.size();
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t seq) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("wal: open " + path + ": " + std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    const Status st =
        Status::IOError("wal: lseek " + path + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(fd, seq, path));
  writer->bytes_written_ = static_cast<uint64_t>(size);
  return writer;
}

Status WalWriter::Append(const WalRecord& record, bool sync) {
  // One buffer: reserve the frame header, encode the payload after it,
  // then fill in its length and CRC.
  ByteWriter w;
  w.Reserve(kFrameSize + kPayloadHeaderSize + record.body.size());
  w.PutU32(0);  // len
  w.PutU32(0);  // crc
  w.PutU8(static_cast<uint8_t>(record.type));
  w.PutU64(record.catalog_version);
  w.PutU64(record.metadata_version);
  w.PutBytes(record.body.data(), record.body.size());
  const std::string_view payload =
      std::string_view(w.buffer()).substr(kFrameSize);
  w.PatchU32(0, static_cast<uint32_t>(payload.size()));
  w.PatchU32(4, Crc32(payload.data(), payload.size()));
  MOSAIC_RETURN_IF_ERROR(WriteFull(fd_, w.buffer().data(), w.size()));
  bytes_written_ += w.size();
  if (sync) MOSAIC_RETURN_IF_ERROR(SyncFd(fd_));
  return Status::OK();
}

Status WalWriter::Sync() { return SyncFd(fd_); }

[[nodiscard]] Result<WalReadResult> ReadWal(const std::string& path) {
  MOSAIC_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
  const auto* data = reinterpret_cast<const uint8_t*>(contents.data());
  const size_t size = contents.size();

  if (size < kHeaderSize) {
    return Status::IOError("wal: " + path + ": file shorter than header");
  }
  if (std::memcmp(data, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("wal: " + path + ": bad magic");
  }
  WalReadResult result;
  {
    ByteReader header(data + sizeof(kWalMagic), 8);
    MOSAIC_ASSIGN_OR_RETURN(result.seq, header.ReadU64());
  }

  size_t off = kHeaderSize;
  while (off < size) {
    // A partial frame header at EOF is a torn append.
    if (off + kFrameSize > size) {
      result.tail_truncated = true;
      break;
    }
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data + off, 4);
    std::memcpy(&crc, data + off + 4, 4);
    const bool length_sane = len > 0 && len <= kMaxRecordLen;
    const bool in_bounds = length_sane && off + kFrameSize + len <= size;
    bool crc_ok = false;
    if (in_bounds) {
      crc_ok = Crc32(data + off + kFrameSize, len) == crc;
    }
    if (!crc_ok) {
      // Torn tail or mid-log corruption? If anything valid parses
      // after this point the log has a hole — refuse to serve it.
      const size_t next = length_sane && in_bounds
                              ? off + kFrameSize + len
                              : off + 1;
      if (AnyValidRecordAfter(data, size, next)) {
        return Status::IOError(
            "wal: " + path + ": CRC mismatch at offset " +
            std::to_string(off) +
            " with valid records after it (mid-log corruption)");
      }
      result.tail_truncated = true;
      break;
    }
    MOSAIC_ASSIGN_OR_RETURN(WalRecord record,
                            DecodePayload(data + off + kFrameSize, len));
    result.records.push_back(std::move(record));
    off += kFrameSize + len;
  }
  // When the tail tore, `off` is the start of the torn record; when
  // the scan ran clean it equals the file size.
  result.valid_bytes = off;
  return result;
}

}  // namespace durable
}  // namespace mosaic
