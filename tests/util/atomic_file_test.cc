#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace iosched::util {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& leaf) {
  fs::path dir = fs::path(testing::TempDir()) / ("atomic_file_test_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AtomicFileWriter, CommitPublishesContents) {
  std::string path = TestDir("publish") + "/out.csv";
  AtomicFileWriter out(path);
  out.stream() << "a,b\n1,2\n";
  out.Write("3,4\n");
  EXPECT_FALSE(out.committed());
  out.Commit();
  EXPECT_TRUE(out.committed());
  EXPECT_EQ(Slurp(path), "a,b\n1,2\n3,4\n");
}

TEST(AtomicFileWriter, NoCommitLeavesDestinationUntouched) {
  std::string dir = TestDir("nocommit");
  std::string path = dir + "/out.txt";
  std::ofstream(path) << "original";
  {
    AtomicFileWriter out(path);
    out.stream() << "replacement";
    // Destructor without Commit(): nothing reaches the destination and no
    // temp sibling survives.
  }
  EXPECT_EQ(Slurp(path), "original");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFileWriter, CommitReplacesExistingFile) {
  std::string path = TestDir("replace") + "/out.txt";
  std::ofstream(path) << "old contents that are longer";
  AtomicFileWriter out(path);
  out.stream() << "new";
  out.Commit();
  EXPECT_EQ(Slurp(path), "new");
}

TEST(AtomicFileWriter, CommitIntoMissingDirectoryThrowsWithPath) {
  std::string path = TestDir("baddir") + "/no/such/subdir/out.txt";
  AtomicFileWriter out(path);
  out.stream() << "data";
  try {
    out.Commit();
    FAIL() << "expected commit failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must carry the destination path: " << e.what();
  }
}

TEST(AtomicFileWriter, DoubleCommitThrows) {
  std::string path = TestDir("double") + "/out.txt";
  AtomicFileWriter out(path);
  out.stream() << "x";
  out.Commit();
  EXPECT_THROW(out.Commit(), std::runtime_error);
}

TEST(AtomicFileWriter, EmptyPathRejected) {
  EXPECT_THROW(AtomicFileWriter(""), std::runtime_error);
}

TEST(AtomicFileWriter, BinaryContentsSurviveByteExact) {
  std::string path = TestDir("binary") + "/blob.bin";
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  AtomicFileWriter out(path);
  out.Write(payload);
  out.Commit();
  EXPECT_EQ(Slurp(path), payload);
}

TEST(WriteFileAtomic, GatherWritesPiecesInOrder) {
  std::string path = TestDir("gather") + "/out.bin";
  const std::string_view pieces[] = {"ab", "", "cde",
                                     std::string_view("\0f", 2)};
  WriteFileAtomic(path, pieces);
  EXPECT_EQ(Slurp(path), std::string("abcde\0f", 7));
}

TEST(WriteFileAtomic, OneShotHelper) {
  std::string path = TestDir("oneshot") + "/out.txt";
  WriteFileAtomic(path, "hello");
  EXPECT_EQ(Slurp(path), "hello");
  WriteFileAtomic(path, "world");
  EXPECT_EQ(Slurp(path), "world");
  EXPECT_THROW(WriteFileAtomic(TestDir("oneshot2") + "/a/b/c.txt", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace iosched::util
