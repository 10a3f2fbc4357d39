#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ckpt/serializer.h"
#include "util/atomic_file.h"

namespace iosched::ckpt {

namespace fs = std::filesystem;

void CheckpointFile::AddSection(std::string name, std::string payload) {
  for (const auto& [existing, _] : sections_) {
    if (existing == name) {
      throw std::logic_error("checkpoint: duplicate section '" + name + "'");
    }
  }
  sections_.emplace_back(std::move(name), std::move(payload));
}

bool CheckpointFile::HasSection(std::string_view name) const {
  for (const auto& [existing, _] : sections_) {
    if (existing == name) return true;
  }
  return false;
}

std::string_view CheckpointFile::Section(std::string_view name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return payload;
  }
  throw FormatError("checkpoint: missing section '" + std::string(name) +
                    "'");
}

std::vector<std::string_view> CheckpointFile::Layout(
    std::vector<std::string>& headers) const {
  headers.clear();
  headers.reserve(sections_.size() + 1);
  {
    Writer w;
    w.Bytes(kMagic.data(), kMagic.size());
    w.U32(kFormatVersion);
    w.U64(config_hash_);
    w.U32(static_cast<std::uint32_t>(sections_.size()));
    headers.push_back(w.TakeBuffer());
  }
  for (const auto& [name, payload] : sections_) {
    Writer w;
    w.Str(name);
    w.U64(payload.size());
    w.U32(Crc32(payload));
    headers.push_back(w.TakeBuffer());
  }
  std::vector<std::string_view> pieces;
  pieces.reserve(2 * sections_.size() + 1);
  pieces.push_back(headers[0]);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    pieces.push_back(headers[i + 1]);
    pieces.push_back(sections_[i].second);
  }
  return pieces;
}

std::string CheckpointFile::Encode() const {
  std::vector<std::string> headers;
  std::vector<std::string_view> pieces = Layout(headers);
  std::size_t size = 0;
  for (std::string_view piece : pieces) size += piece.size();
  std::string bytes;
  bytes.reserve(size);
  for (std::string_view piece : pieces) bytes.append(piece);
  return bytes;
}

void CheckpointFile::WriteAtomic(const std::string& path) const {
  std::vector<std::string> headers;
  util::WriteFileAtomic(path, Layout(headers));
}

CheckpointFile CheckpointFile::Decode(std::string_view bytes,
                                      const std::string& context) {
  if (bytes.size() < kMagic.size() ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    throw FormatError("checkpoint '" + context +
                      "': bad magic (not a checkpoint file)");
  }
  Reader r(bytes.substr(kMagic.size()), "'" + context + "' header");
  std::uint32_t version;
  std::uint64_t config_hash;
  std::uint32_t section_count;
  try {
    version = r.U32();
    config_hash = r.U64();
    section_count = r.U32();
  } catch (const std::runtime_error& e) {
    throw FormatError(e.what());
  }
  if (version != kFormatVersion) {
    throw VersionError("checkpoint '" + context + "': format version " +
                       std::to_string(version) + " (this build reads only " +
                       std::to_string(kFormatVersion) + ")");
  }
  CheckpointFile file;
  file.config_hash_ = config_hash;
  file.sections_.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::string name;
    std::uint64_t size;
    std::uint32_t crc;
    try {
      name = r.Str();
      size = r.U64();
      crc = r.U32();
    } catch (const std::runtime_error& e) {
      throw FormatError(e.what());
    }
    if (file.HasSection(name)) {
      throw FormatError("checkpoint '" + context + "': duplicate section '" +
                        name + "'");
    }
    if (r.Remaining() < size) {
      throw FormatError("checkpoint '" + context + "': section '" + name +
                        "' truncated (declares " + std::to_string(size) +
                        " bytes, " + std::to_string(r.Remaining()) +
                        " remain)");
    }
    std::string payload(r.Raw(size));
    if (Crc32(payload) != crc) {
      throw CrcError("checkpoint '" + context + "': CRC mismatch in section '" +
                     name + "' (file is corrupt)");
    }
    file.sections_.emplace_back(std::move(name), std::move(payload));
  }
  try {
    r.ExpectEnd();
  } catch (const std::runtime_error& e) {
    throw FormatError(e.what());
  }
  return file;
}

CheckpointFile CheckpointFile::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    int err = errno;
    throw FormatError("checkpoint '" + path +
                      "': cannot open: " + std::strerror(err));
  }
  const std::streamoff size = in.tellg();
  if (size < 0) throw FormatError("checkpoint '" + path + "': read error");
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size)) {
    throw FormatError("checkpoint '" + path + "': read error");
  }
  return Decode(bytes, path);
}

namespace {
constexpr std::string_view kFilePrefix = "ckpt-";
constexpr std::string_view kFileSuffix = ".iosckpt";
}  // namespace

std::string CheckpointFileName(const std::string& directory,
                               std::uint64_t sequence) {
  std::string seq = std::to_string(sequence);
  if (seq.size() < 6) seq.insert(0, 6 - seq.size(), '0');
  return directory + "/" + std::string(kFilePrefix) + seq +
         std::string(kFileSuffix);
}

std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() <= kFilePrefix.size() + kFileSuffix.size()) continue;
    if (name.compare(0, kFilePrefix.size(), kFilePrefix) != 0) continue;
    if (name.compare(name.size() - kFileSuffix.size(), kFileSuffix.size(),
                     kFileSuffix) != 0) {
      continue;
    }
    std::string digits = name.substr(
        kFilePrefix.size(),
        name.size() - kFilePrefix.size() - kFileSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::uint64_t NextSequence(const std::string& directory) {
  auto existing = ListCheckpoints(directory);
  return existing.empty() ? 1 : existing.back().first + 1;
}

void PruneOld(const std::string& directory, int keep_last) {
  if (keep_last <= 0) return;
  auto existing = ListCheckpoints(directory);
  if (existing.size() <= static_cast<std::size_t>(keep_last)) return;
  std::size_t drop = existing.size() - static_cast<std::size_t>(keep_last);
  for (std::size_t i = 0; i < drop; ++i) {
    std::error_code ec;
    fs::remove(existing[i].second, ec);  // best effort; stale files are inert
  }
}

std::string FindLatestValid(const std::string& directory,
                            std::uint64_t expected_config_hash,
                            std::string* diagnostic) {
  auto existing = ListCheckpoints(directory);
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    try {
      CheckpointFile file = CheckpointFile::Load(it->second);
      if (file.config_hash() != expected_config_hash) {
        if (diagnostic != nullptr) {
          *diagnostic += "skipped '" + it->second +
                         "': config hash mismatch (checkpoint was taken "
                         "under a different configuration)\n";
        }
        continue;
      }
      return it->second;
    } catch (const CheckpointError& e) {
      if (diagnostic != nullptr) {
        *diagnostic += std::string("skipped '") + it->second +
                       "': " + e.what() + "\n";
      }
    }
  }
  return {};
}

}  // namespace iosched::ckpt
