// Crash-safe POSIX file primitives shared by the WAL and snapshot
// code: EINTR-safe full reads/writes, fsync of files and directories,
// and atomic publish via write-to-temp + rename. Every durability
// guarantee the engine makes reduces to the discipline in this file:
// data is fsync'd before it is referenced, and files become visible
// only through rename(2).
#ifndef MOSAIC_STORAGE_DURABLE_IO_H_
#define MOSAIC_STORAGE_DURABLE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mosaic {
namespace durable {

/// Create `dir` (and missing parents) with 0755; OK if it exists.
[[nodiscard]] Status EnsureDir(const std::string& dir);

/// True if `path` names an existing regular file.
bool FileExists(const std::string& path);

/// Regular-file names (not paths) inside `dir`, sorted ascending.
[[nodiscard]] Result<std::vector<std::string>> ListDir(const std::string& dir);

/// Whole file contents.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

/// Write all of `data[0..n)` to `fd`, retrying on EINTR and partial
/// writes.
[[nodiscard]] Status WriteFull(int fd, const void* data, size_t n);

/// fsync(fd); on failure the file's durability is unknown, so the
/// caller must treat the write as failed.
[[nodiscard]] Status SyncFd(int fd);

/// fsync the directory containing `path`, making a completed rename
/// of `path` durable.
[[nodiscard]] Status SyncDirOf(const std::string& path);

/// Atomically publish `data` at `path`: write `<path>.tmp`, fsync it,
/// rename over `path`, fsync the directory. Readers never observe a
/// partial file — only the old state or the new one.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& data);

/// Truncate `path` to `size` bytes and fsync (drops a torn WAL tail).
[[nodiscard]] Status TruncateFile(const std::string& path, uint64_t size);

/// Delete a file; OK if it does not exist.
[[nodiscard]] Status RemoveFile(const std::string& path);

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_IO_H_
