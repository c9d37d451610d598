#include "storage/durable/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace mosaic {
namespace durable {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  // lint:allow errno-no-syscall: called on the failure path right
  // after the syscall; errno still holds that call's error.
  return what + " " + path + ": " + std::strerror(errno);
}

/// Parent directory of `path` ("." when it has no slash).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

[[nodiscard]] Status CloseFd(int fd, const std::string& path) {
  // close(2) can surface deferred write errors; retrying close on
  // EINTR is unsafe (the fd state is unspecified), so report and move
  // on.
  if (::close(fd) != 0 && errno != EINTR) {
    return Status::IOError(Errno("close", path));
  }
  return Status::OK();
}

}  // namespace

[[nodiscard]] Status EnsureDir(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty directory path");
  // Create parents first (mkdir -p).
  for (size_t i = 1; i < dir.size(); ++i) {
    if (dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(Errno("mkdir", prefix));
    }
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(Errno("mkdir", dir));
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("not a directory: " + dir);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

[[nodiscard]] Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError(Errno("opendir", dir));
  std::vector<std::string> names;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

[[nodiscard]] Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("open", path));
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    const Status st = Status::IOError(Errno("read", path));
    ::close(fd);
    return st;
  }
  MOSAIC_RETURN_IF_ERROR(CloseFd(fd, path));
  return out;
}

[[nodiscard]] Status WriteFull(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, p + off, n - off);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  return Status::OK();
}

[[nodiscard]] Status SyncFd(int fd) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

[[nodiscard]] Status SyncDirOf(const std::string& path) {
  const std::string dir = DirName(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("open dir", dir));
  const Status sync = SyncFd(fd);
  const Status close = CloseFd(fd, dir);
  MOSAIC_RETURN_IF_ERROR(sync);
  return close;
}

[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError(Errno("open", tmp));
  Status st = WriteFull(fd, data.data(), data.size());
  if (st.ok()) st = SyncFd(fd);
  const Status close = CloseFd(fd, tmp);
  if (st.ok()) st = close;
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rn = Status::IOError(Errno("rename", tmp));
    ::unlink(tmp.c_str());
    return rn;
  }
  return SyncDirOf(path);
}

[[nodiscard]] Status TruncateFile(const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("open", path));
  Status st = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    st = Status::IOError(Errno("ftruncate", path));
  }
  if (st.ok()) st = SyncFd(fd);
  const Status close = CloseFd(fd, path);
  MOSAIC_RETURN_IF_ERROR(st);
  return close;
}

[[nodiscard]] Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(Errno("unlink", path));
  }
  return Status::OK();
}

}  // namespace durable
}  // namespace mosaic
