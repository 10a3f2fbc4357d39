#include "ckpt/serializer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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
  } catch (const FormatError& e) {
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

TEST(Serializer, CountBeyondPayloadThrowsBeforeSizing) {
  // A count of 2^20 with no elements behind it: the sequence helper must
  // refuse it against the bytes left instead of sizing the container first.
  Writer w;
  w.U32(1u << 20);
  Reader r(w.buffer(), "test");
  std::vector<double> values;
  EXPECT_THROW(r.Seq(values, [&r](double& v) { r.F64(v); }), FormatError);
  EXPECT_EQ(values.capacity(), 0u);
}

TEST(Serializer, SequencesAndSortedMapsRoundTrip) {
  std::vector<double> values = {1.5, -2.0, 0.25};
  std::unordered_map<std::int64_t, int> counts = {{9, 1}, {-3, 2}, {4, 3}};
  std::map<double, std::int64_t> by_factor = {{0.5, 7}, {0.25, 8}};
  Writer w;
  w.Seq(values, [&w](double& v) { w.F64(v); });
  w.SortedMap(counts, [&w](std::int64_t, int& n) { w.I64(n); });
  w.SortedMap(by_factor, [&w](double, std::int64_t& n) { w.I64(n); });

  // The unordered map is written in ascending key order.
  Reader raw(w.buffer(), "test");
  raw.Raw(4 + 3 * 8);
  EXPECT_EQ(raw.U32(), 3u);
  EXPECT_EQ(raw.I64(), -3);

  Reader r(w.buffer(), "test");
  std::vector<double> values2;
  std::unordered_map<std::int64_t, int> counts2;
  std::map<double, std::int64_t> by_factor2;
  r.Seq(values2, [&r](double& v) { r.F64(v); });
  r.SortedMap(counts2, [&r](std::int64_t, int& n) { r.I64(n); });
  r.SortedMap(by_factor2, [&r](double, std::int64_t& n) { r.I64(n); });
  r.ExpectEnd();
  EXPECT_EQ(values2, values);
  EXPECT_EQ(counts2, counts);
  EXPECT_EQ(by_factor2, by_factor);
}

TEST(Serializer, SortedMapRejectsARepeatedKey) {
  Writer w;
  w.U32(2);
  for (int i = 0; i < 2; ++i) {
    w.I64(5);
    w.I64(i);
  }
  Reader r(w.buffer(), "test");
  std::unordered_map<std::int64_t, int> map;
  EXPECT_THROW(r.SortedMap(map, [&r](std::int64_t, int& v) { r.I64(v); }),
               FormatError);
}

enum class Color : std::uint8_t { kRed, kGreen, kBlue };

TEST(Serializer, EnumBeyondItsLastValueThrows) {
  Writer w;
  w.Enum(Color::kBlue, Color::kBlue);
  w.U8(3);
  Reader r(w.buffer(), "test");
  Color c = Color::kRed;
  r.Enum(c, Color::kBlue);
  EXPECT_EQ(c, Color::kBlue);
  EXPECT_THROW(r.Enum(c, Color::kBlue), FormatError);
}

TEST(Serializer, EventIdsMustBePendingAndJobsPresent) {
  Writer w;
  w.PendingEvent(0);
  w.PendingEvent(7);
  w.PendingEvent(8);
  w.I64(42);
  Reader r(w.buffer(), "test",
           {.find_job = [](std::int64_t) { return nullptr; },
            .is_pending = [](std::uint64_t id) { return id == 7; }});
  std::uint64_t id = 99;
  r.PendingEvent(id);
  EXPECT_EQ(id, 0u);  // 0 names no event
  r.PendingEvent(id);
  EXPECT_EQ(id, 7u);
  EXPECT_THROW(r.PendingEvent(id), FormatError);
  EXPECT_THROW((void)r.FindJob(r.I64()), FormatError);
}

TEST(Serializer, RngStateRoundTrips) {
  util::Rng rng(3, 5);
  (void)rng.Normal(0.0, 1.0);  // leaves a Box-Muller spare behind
  Writer w;
  w.Rng(rng);
  util::Rng restored(1);
  Reader r(w.buffer(), "test");
  r.Rng(restored);
  r.ExpectEnd();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.Normal(0.0, 1.0), rng.Normal(0.0, 1.0));
  }
}

TEST(Serializer, SizeOnlyPassCountsWhatEncodeExactWrites) {
  std::vector<double> values = {1.5, -2.0, 0.25, 8.0};
  std::unordered_map<std::int64_t, int> counts = {{9, 1}, {-3, 2}, {4, 3}};
  util::Rng rng(3, 5);
  const char raw[] = {1, 2, 3};
  auto serialize = [&](Writer& w) {
    w.U8(0xAB);
    w.Bool(true);
    w.U32(7u);
    w.U64(9);
    w.I64(-42);
    w.F64(2.5);
    w.Str("section");
    w.Bytes(raw, sizeof(raw));
    w.Seq(values, [&w](double& v) { w.F64(v); });
    w.SortedMap(counts, [&w](std::int64_t, int& n) { w.I64(n); });
    w.Rng(rng);
    w.PendingEvent(11);
  };
  Writer plain;
  serialize(plain);
  Writer counter = Writer::SizeOnly();
  serialize(counter);
  EXPECT_EQ(counter.size(), plain.size());
  EXPECT_TRUE(counter.buffer().empty());

  const std::string exact = EncodeExact(serialize);
  EXPECT_EQ(exact, plain.buffer());
  // Past the small-string buffer, a one-shot reservation is exact.
  ASSERT_GT(exact.size(), 64u);
  EXPECT_EQ(exact.capacity(), exact.size());
}

TEST(Serializer, EncodeExactThrowsWhenThePassesDisagree) {
  int pass = 0;
  auto drifting = [&pass](Writer& w) {
    if (pass++ == 0) {
      w.U32(1);
    } else {
      w.U64(1);
    }
  };
  EXPECT_THROW(EncodeExact(drifting), std::logic_error);
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
