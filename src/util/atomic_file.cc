#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace iosched::util {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path,
                             int err) {
  throw std::runtime_error(what + " '" + path +
                           "': " + std::strerror(err));
}

std::string DirName(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void FsyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) ThrowErrno("AtomicFileWriter: cannot open directory", dir,
                         errno);
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ThrowErrno("AtomicFileWriter: fsync of directory failed", dir, err);
  }
  ::close(fd);
}

/// The one publish routine: write `pieces` in order to a unique temp
/// sibling (so the rename stays within one filesystem), fsync it, rename it
/// over `path`, fsync the directory.
void PublishAtomic(const std::string& path,
                   std::span<const std::string_view> pieces) {
  std::vector<char> tmp(path.begin(), path.end());
  const char suffix[] = ".tmpXXXXXX";
  tmp.insert(tmp.end(), suffix, suffix + sizeof(suffix));  // includes '\0'
  int fd = ::mkstemp(tmp.data());
  if (fd < 0) ThrowErrno("AtomicFileWriter: cannot create temp file for",
                         path, errno);
  const std::string tmp_path(tmp.data());

  auto fail = [&](const char* what, int err) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    ThrowErrno(what, path, err);
  };

  // mkstemp creates 0600; published outputs should be world-readable like
  // any ofstream-created file.
  if (::fchmod(fd, 0644) != 0) fail("AtomicFileWriter: fchmod failed for",
                                    errno);

  for (std::string_view piece : pieces) {
    std::size_t written = 0;
    while (written < piece.size()) {
      ssize_t n = ::write(fd, piece.data() + written, piece.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("AtomicFileWriter: write failed for", errno);
      }
      written += static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd) != 0) fail("AtomicFileWriter: fsync failed for", errno);
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    ThrowErrno("AtomicFileWriter: close failed for", path, errno);
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp_path.c_str());
    ThrowErrno("AtomicFileWriter: rename failed for", path, err);
  }
  FsyncDirectory(DirName(path));
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) {
    throw std::runtime_error("AtomicFileWriter: empty path");
  }
}

AtomicFileWriter::~AtomicFileWriter() = default;

void AtomicFileWriter::Commit() {
  if (committed_) {
    throw std::runtime_error("AtomicFileWriter: Commit() called twice for '" +
                             path_ + "'");
  }
  const std::string_view contents = buffer_.view();
  PublishAtomic(path_, {&contents, 1});
  committed_ = true;
}

void WriteFileAtomic(const std::string& path, std::string_view contents) {
  WriteFileAtomic(path, {&contents, 1});
}

void WriteFileAtomic(const std::string& path,
                     std::span<const std::string_view> pieces) {
  if (path.empty()) throw std::runtime_error("WriteFileAtomic: empty path");
  PublishAtomic(path, pieces);
}

}  // namespace iosched::util
