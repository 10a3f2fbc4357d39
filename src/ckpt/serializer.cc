#include "ckpt/serializer.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace iosched::ckpt {

void Writer::U32(std::uint32_t v) {
  char raw[4];
  for (int i = 0; i < 4; ++i) raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  Put(raw, 4);
}

void Writer::U64(std::uint64_t v) {
  char raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  Put(raw, 8);
}

void Writer::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  Put(s.data(), s.size());
}

void Writer::Bytes(const void* data, std::size_t size) {
  Put(static_cast<const char*>(data), size);
}

Reader::Reader(std::string_view data, std::string context, Links links)
    : data_(data), context_(std::move(context)), links_(std::move(links)) {}

void Reader::Fail(const std::string& what) const {
  throw FormatError("checkpoint " + context_ + ": " + what);
}

const char* Reader::Take(std::size_t n) {
  if (data_.size() - pos_ < n) {
    Fail("truncated (wanted " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + " of " + std::to_string(data_.size()) + ")");
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::U8() {
  return static_cast<std::uint8_t>(*Take(1));
}

bool Reader::Bool() {
  std::uint8_t v = U8();
  if (v > 1) Fail("malformed bool value " + std::to_string(v));
  return v == 1;
}

std::uint32_t Reader::U32() {
  const char* p = Take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t Reader::U64() {
  const char* p = Take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::string Reader::Str() {
  std::uint32_t size = U32();
  const char* p = Take(size);
  return std::string(p, size);
}

std::string_view Reader::Raw(std::size_t n) {
  return std::string_view(Take(n), n);
}

void Reader::Size(std::size_t& n) {
  n = U32();
  if (n > Remaining()) {
    Fail("count " + std::to_string(n) + " exceeds the " +
         std::to_string(Remaining()) + " bytes left");
  }
}

void Reader::PendingEvent(std::uint64_t& id) {
  id = U64();
  if (id == 0) return;
  if (!links_.is_pending) {
    throw std::logic_error("checkpoint " + context_ +
                           ": reader has no pending-event check");
  }
  if (!links_.is_pending(id)) {
    Fail("event " + std::to_string(id) + " is not pending in the sim section");
  }
}

const workload::Job* Reader::FindJob(std::int64_t id) const {
  if (!links_.find_job) {
    throw std::logic_error("checkpoint " + context_ +
                           ": reader has no job lookup");
  }
  const workload::Job* job = links_.find_job(id);
  if (job == nullptr) {
    Fail("job " + std::to_string(id) + " is not present in the workload");
  }
  return job;
}

void Reader::ExpectEnd() const {
  if (!AtEnd()) {
    Fail(std::to_string(Remaining()) +
         " unread trailing bytes (layout mismatch)");
  }
}

namespace {
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the byte-wise CRC table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

std::uint32_t Crc32(std::string_view data) {
  const CrcTables& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = LoadLe32(p) ^ crc;
    std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace iosched::ckpt
