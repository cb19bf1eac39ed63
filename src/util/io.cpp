#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace jarvis::util::io {

namespace {

std::string ErrnoText(int err) {
  return std::error_code(err, std::generic_category()).message();
}

[[noreturn]] void ThrowIo(const std::string& op, const std::string& path,
                          int err) {
  throw IoError(op + " failed for '" + path + "': " + ErrnoText(err));
}

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][n] is kCrcTables[k - 1][n] advanced over one more zero
// byte, so one step folds eight input bytes with eight independent
// lookups instead of a serial chain of eight.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// RAII fd so every error path closes.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

void WriteAll(int fd, const std::string& path, const std::string& payload) {
  std::size_t written = 0;
  while (written < payload.size()) {
    const ::ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("write", path, errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

// Best effort: directory fsync makes the rename itself durable, but some
// filesystems refuse fsync on directory fds — never fail the write on it.
void FsyncDirOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  const auto& t = kCrcTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(bytes) ^ crc;
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw IoError("create_directories failed for '" + path +
                  "': " + ec.message());
  }
}

std::string ReadFile(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) ThrowIo("open", path, errno);
  std::string out;
  struct stat info {};
  if (::fstat(fd.get(), &info) == 0 && info.st_size > 0) {
    out.reserve(static_cast<std::size_t>(info.st_size));
  }
  std::array<char, 1 << 16> buffer;
  for (;;) {
    const ::ssize_t n = ::read(fd.get(), buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("read", path, errno);
    }
    if (n == 0) break;
    out.append(buffer.data(), static_cast<std::size_t>(n));
  }
  return out;
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void AtomicWriteFile(const std::string& path, const std::string& payload,
                     WriteInterceptor* interceptor) {
  const std::string tmp = path + ".tmp";
  // Only an interceptor may mutate the bytes; production writes skip the
  // copy.
  std::string mutated;
  const std::string* bytes = &payload;
  if (interceptor != nullptr) {
    mutated = payload;
    interceptor->OnWrite(path, mutated);
    bytes = &mutated;
  }
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) ThrowIo("open", tmp, errno);
    try {
      WriteAll(fd.get(), tmp, *bytes);
      if (::fsync(fd.get()) != 0) ThrowIo("fsync", tmp, errno);
    } catch (...) {
      RemoveFile(tmp);
      throw;
    }
  }
  if (interceptor != nullptr && !interceptor->OnRename(path)) {
    RemoveFile(tmp);
    throw IoError("rename failed for '" + path + "': injected storage fault");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    RemoveFile(tmp);
    ThrowIo("rename", path, err);
  }
  FsyncDirOf(path);
}

}  // namespace jarvis::util::io
