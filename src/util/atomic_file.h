// Crash-safe file output: write the full contents to a temporary file next
// to the destination, fsync it, then rename over the target. Readers either
// see the complete old file or the complete new file — never a truncated
// mix — so a crash mid-write cannot leave a half-written CSV/JSON behind.
//
// Usage:
//   util::AtomicFileWriter out(path);
//   out.stream() << ...;           // or out.Write(string_view)
//   out.Commit();                  // throws std::runtime_error on failure
//
// If Commit() is never called (exception unwound past the writer), nothing
// touches the destination — contents are staged in memory until Commit().
// Callers that already hold their bytes use WriteFileAtomic instead, which
// writes them straight to the temp file with no staging copy; its gather
// form takes the file as a list of pieces (a checkpoint's headers and
// section payloads), so a large file is never assembled in memory.
// All three entry points share one temp + fsync + rename + directory-fsync
// routine. All failures — open, write, flush, fsync, rename — throw with
// the path and the OS errno text, so disk-full and unwritable-dir
// conditions surface as errors instead of silently truncated output.
#pragma once

#include <span>
#include <sstream>
#include <string>
#include <string_view>

namespace iosched::util {

class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;
  ~AtomicFileWriter();

  /// Buffered output stream; contents reach disk only on Commit().
  std::ostream& stream() { return buffer_; }

  void Write(std::string_view data) { buffer_ << data; }

  /// Atomically publishes the buffered contents to `path`: writes a
  /// temporary sibling file, fsyncs it, renames it over the target, and
  /// fsyncs the containing directory. Throws std::runtime_error carrying
  /// the path and errno text on any failure. At most one Commit() per
  /// writer.
  void Commit();

  const std::string& path() const { return path_; }
  bool committed() const { return committed_; }

 private:
  std::string path_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

/// One-shot helper: atomically replace `path` with `contents`.
void WriteFileAtomic(const std::string& path, std::string_view contents);

/// Gather form: atomically replace `path` with the concatenation of
/// `pieces`, each written in order straight to the temp file.
void WriteFileAtomic(const std::string& path,
                     std::span<const std::string_view> pieces);

}  // namespace iosched::util
