#include "ckpt/serializer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

namespace iosched::ckpt {
namespace {

TEST(Serializer, RoundTripsEveryFieldType) {
  Writer w;
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFULL);
  w.I64(-42);
  w.F64(3.141592653589793);
  w.Str("hello");
  w.Str("");
  const char raw[] = {1, 2, 3};
  w.Bytes(raw, sizeof(raw));

  Reader r(w.buffer(), "test");
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.141592653589793);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  std::string_view bytes = r.Raw(3);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[2], 3);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(Serializer, DoublesAreBitExact) {
  // Resume-equivalence requires no decimal round-trip: NaN payloads,
  // signed zero, denormals, and infinity must all survive unchanged.
  const double values[] = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), 0.1 + 0.2};
  Writer w;
  for (double v : values) w.F64(v);
  w.F64(std::numeric_limits<double>::quiet_NaN());
  Reader r(w.buffer(), "test");
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.F64()),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_TRUE(std::isnan(r.F64()));
}

TEST(Serializer, StringsMayContainNulBytes) {
  std::string s("a\0b", 3);
  Writer w;
  w.Str(s);
  Reader r(w.buffer(), "test");
  EXPECT_EQ(r.Str(), s);
}

TEST(Serializer, TruncatedReadThrowsWithContext) {
  Writer w;
  w.U32(7);
  Reader r(w.buffer(), "engine");
  try {
    (void)r.U64();
    FAIL() << "expected truncation error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Serializer, StringLengthBeyondPayloadThrows) {
  Writer w;
  w.U32(100);  // declares a 100-byte string with no bytes behind it
  Reader r(w.buffer(), "test");
  EXPECT_THROW((void)r.Str(), std::runtime_error);
}

TEST(Serializer, MalformedBoolThrows) {
  Writer w;
  w.U8(2);
  Reader r(w.buffer(), "test");
  EXPECT_THROW((void)r.Bool(), std::runtime_error);
}

TEST(Serializer, ExpectEndThrowsOnTrailingBytes) {
  Writer w;
  w.U32(1);
  w.U32(2);
  Reader r(w.buffer(), "test");
  (void)r.U32();
  EXPECT_THROW(r.ExpectEnd(), std::runtime_error);
}

TEST(Serializer, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// The textbook byte-at-a-time CRC-32, the reference the sliced loop must
// match bit for bit: checkpoint files written by either one must verify.
std::uint32_t ByteWiseCrc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Serializer, Crc32MatchesByteWiseReferenceAtEveryLengthAndAlignment) {
  // Every tail length (0-7 bytes past the 8-byte blocks) at every start
  // alignment, over bytes that exercise all eight table lanes.
  std::string buffer(8 + 257, '\0');
  std::uint32_t x = 12345;
  for (char& c : buffer) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), ByteWiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Serializer, Crc32DetectsSingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  std::uint32_t before = Crc32(data);
  data[5] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

}  // namespace
}  // namespace iosched::ckpt
