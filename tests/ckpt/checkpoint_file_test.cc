#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace iosched::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root.
std::string TestDir(const std::string& leaf) {
  fs::path dir = fs::path(testing::TempDir()) / ("ckpt_file_test_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

CheckpointFile MakeFile() {
  CheckpointFile file;
  file.SetConfigHash(0x1122334455667788ULL);
  file.AddSection("alpha", "payload-a");
  file.AddSection("beta", std::string("\x00\x01\x02", 3));
  return file;
}

TEST(CheckpointFile, EncodeDecodeRoundTrip) {
  CheckpointFile file = MakeFile();
  CheckpointFile decoded = CheckpointFile::Decode(file.Encode(), "mem");
  EXPECT_EQ(decoded.config_hash(), 0x1122334455667788ULL);
  EXPECT_EQ(decoded.Section("alpha"), "payload-a");
  EXPECT_EQ(decoded.Section("beta"), std::string("\x00\x01\x02", 3));
  EXPECT_TRUE(decoded.HasSection("alpha"));
  EXPECT_FALSE(decoded.HasSection("gamma"));
}

TEST(CheckpointFile, DuplicateSectionRejected) {
  CheckpointFile file;
  file.AddSection("dup", "x");
  EXPECT_THROW(file.AddSection("dup", "y"), std::logic_error);
}

TEST(CheckpointFile, DuplicateSectionInFileIsFormatError) {
  CheckpointFile file;
  file.AddSection("aa", "x");
  file.AddSection("ab", "y");
  std::string bytes = file.Encode();
  std::size_t at = bytes.find("ab");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 1] = 'a';  // names are not covered by the payload CRCs
  EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), FormatError);
}

TEST(CheckpointFile, MissingSectionIsFormatError) {
  CheckpointFile decoded = CheckpointFile::Decode(MakeFile().Encode(), "mem");
  EXPECT_THROW((void)decoded.Section("gamma"), FormatError);
}

TEST(CheckpointFile, BadMagicIsFormatError) {
  std::string bytes = MakeFile().Encode();
  bytes[0] = 'X';
  EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), FormatError);
  EXPECT_THROW(CheckpointFile::Decode("not a checkpoint", "mem"),
               FormatError);
  EXPECT_THROW(CheckpointFile::Decode("", "mem"), FormatError);
}

TEST(CheckpointFile, FutureVersionIsVersionError) {
  std::string bytes = MakeFile().Encode();
  // format_version is the u32 right after the 8-byte magic.
  bytes[8] = static_cast<char>(kFormatVersion + 1);
  EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), VersionError);
}

TEST(CheckpointFile, OlderVersionsAreVersionErrors) {
  // Version 5 carried the prediction and plan gate bytes in the iosched
  // section and numbered the scheduler's event kinds with a plan review; 4
  // hashed workloads byte-wise; 3 saved pending events inside each
  // component's section; 1 and 2 predate the slim records and the arrival
  // cursor. None is misread.
  std::string bytes = MakeFile().Encode();
  for (std::uint32_t version = 1; version < kFormatVersion; ++version) {
    bytes[8] = static_cast<char>(version);
    EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), VersionError)
        << "version " << version;
  }
}

TEST(CheckpointFile, FlippedPayloadByteIsCrcError) {
  std::string bytes = MakeFile().Encode();
  // Flip the last payload byte; headers stay intact so this must surface
  // as a CRC mismatch, not a structural error.
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), CrcError);
}

TEST(CheckpointFile, TruncationIsFormatError) {
  std::string bytes = MakeFile().Encode();
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                           std::size_t{9}}) {
    EXPECT_THROW(CheckpointFile::Decode(bytes.substr(0, keep), "mem"),
                 FormatError)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(CheckpointFile, TrailingGarbageIsFormatError) {
  std::string bytes = MakeFile().Encode() + "extra";
  EXPECT_THROW(CheckpointFile::Decode(bytes, "mem"), FormatError);
}

TEST(CheckpointFile, WriteAtomicThenLoadRoundTrips) {
  std::string dir = TestDir("roundtrip");
  std::string path = dir + "/state.iosckpt";
  MakeFile().WriteAtomic(path);
  CheckpointFile loaded = CheckpointFile::Load(path);
  EXPECT_EQ(loaded.config_hash(), 0x1122334455667788ULL);
  EXPECT_EQ(loaded.Section("alpha"), "payload-a");
  // No temp-file siblings left behind after a successful publish.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(CheckpointFile, WrittenBytesEqualEncode) {
  CheckpointFile file;
  file.SetConfigHash(42);
  file.AddSection("head", "h");
  file.AddSection("empty", "");
  std::string big(100000, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 31 % 251);
  }
  file.AddSection("big", big);
  std::string path = TestDir("gather") + "/state.iosckpt";
  file.WriteAtomic(path);
  std::string on_disk;
  {
    std::ifstream in(path, std::ios::binary);
    on_disk.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(on_disk, file.Encode());

  CheckpointFile loaded = CheckpointFile::Load(path);
  EXPECT_EQ(loaded.config_hash(), 42u);
  EXPECT_EQ(loaded.Section("head"), "h");
  EXPECT_TRUE(loaded.HasSection("empty"));
  EXPECT_EQ(loaded.Section("empty"), "");
  EXPECT_EQ(loaded.Section("big"), big);
  EXPECT_EQ(loaded.Encode(), on_disk);
}

TEST(CheckpointFile, LoadMissingFileThrows) {
  EXPECT_THROW(CheckpointFile::Load(TestDir("missing") + "/nope.iosckpt"),
               CheckpointError);
}

TEST(CheckpointFile, LoadTruncatedFileIsFormatError) {
  std::string dir = TestDir("truncated");
  std::string path = dir + "/state.iosckpt";
  std::string bytes = MakeFile().Encode();
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(CheckpointFile::Load(path), FormatError);
}

TEST(CheckpointNaming, FileNameIsZeroPaddedAndOrdered) {
  EXPECT_EQ(CheckpointFileName("/tmp/d", 1), "/tmp/d/ckpt-000001.iosckpt");
  EXPECT_EQ(CheckpointFileName("/tmp/d", 123456),
            "/tmp/d/ckpt-123456.iosckpt");
}

TEST(CheckpointNaming, ListAndNextSequence) {
  std::string dir = TestDir("listing");
  EXPECT_TRUE(ListCheckpoints(dir).empty());
  EXPECT_EQ(NextSequence(dir), 1u);
  EXPECT_TRUE(ListCheckpoints(dir + "/does-not-exist").empty());

  MakeFile().WriteAtomic(CheckpointFileName(dir, 3));
  MakeFile().WriteAtomic(CheckpointFileName(dir, 1));
  MakeFile().WriteAtomic(CheckpointFileName(dir, 7));
  std::ofstream(dir + "/README.txt") << "not a checkpoint";

  auto listed = ListCheckpoints(dir);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 1u);
  EXPECT_EQ(listed[1].first, 3u);
  EXPECT_EQ(listed[2].first, 7u);
  EXPECT_EQ(NextSequence(dir), 8u);
}

TEST(CheckpointNaming, PruneOldKeepsNewest) {
  std::string dir = TestDir("prune");
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    MakeFile().WriteAtomic(CheckpointFileName(dir, seq));
  }
  PruneOld(dir, 2);
  auto listed = ListCheckpoints(dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, 4u);
  EXPECT_EQ(listed[1].first, 5u);
  // keep_last <= 0 keeps everything.
  PruneOld(dir, 0);
  EXPECT_EQ(ListCheckpoints(dir).size(), 2u);
}

TEST(FindLatestValid, PicksNewestMatchingHash) {
  std::string dir = TestDir("latest");
  CheckpointFile file = MakeFile();
  file.WriteAtomic(CheckpointFileName(dir, 1));
  file.WriteAtomic(CheckpointFileName(dir, 2));
  EXPECT_EQ(FindLatestValid(dir, file.config_hash()),
            CheckpointFileName(dir, 2));
}

TEST(FindLatestValid, FallsBackPastDamagedNewest) {
  std::string dir = TestDir("fallback");
  CheckpointFile file = MakeFile();
  file.WriteAtomic(CheckpointFileName(dir, 1));
  // Newest checkpoint is corrupt: a payload byte flipped after publish.
  std::string bytes = file.Encode();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  std::ofstream(CheckpointFileName(dir, 2), std::ios::binary) << bytes;

  std::string diagnostic;
  EXPECT_EQ(FindLatestValid(dir, file.config_hash(), &diagnostic),
            CheckpointFileName(dir, 1));
  EXPECT_FALSE(diagnostic.empty());
}

TEST(FindLatestValid, SkipsWrongConfigHash) {
  std::string dir = TestDir("wronghash");
  CheckpointFile file = MakeFile();
  file.WriteAtomic(CheckpointFileName(dir, 1));
  EXPECT_EQ(FindLatestValid(dir, file.config_hash() + 1), "");
}

TEST(FindLatestValid, EmptyOrMissingDirectoryYieldsNothing) {
  EXPECT_EQ(FindLatestValid(TestDir("empty"), 42), "");
  EXPECT_EQ(FindLatestValid("/definitely/not/a/dir", 42), "");
}

}  // namespace
}  // namespace iosched::ckpt
