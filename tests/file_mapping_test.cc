// Tests for common::MappedFile's two roles — read-only file mapping and
// file-backed writable scratch — with the error paths of each creation
// mode (missing/empty files, paths that are not regular files, unusable
// scratch directories) and the residency-release contract the
// out-of-core publish path depends on: dropping resident pages of a
// file-backed scratch mapping must never lose data.
#include "privelet/common/file_mapping.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

namespace privelet::common {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(MappedFileTest, OpenReadsWholeFile) {
  const std::string path = TempPath("mapped_open.bin");
  WriteFileBytes(path, "privelet mapping payload");
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(24u, mapped->size());
  EXPECT_FALSE(mapped->writable());
  EXPECT_EQ(0, std::memcmp(mapped->bytes().data(), "privelet mapping payload",
                           mapped->size()));
}

TEST(MappedFileTest, OpenMissingFileIsAnIOError) {
  auto mapped = MappedFile::Open(TempPath("mapped_missing.bin"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(StatusCode::kIOError, mapped.status().code());
}

TEST(MappedFileTest, OpenEmptyFileYieldsEmptyMapping) {
  const std::string path = TempPath("mapped_empty.bin");
  WriteFileBytes(path, "");
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(0u, mapped->size());
  EXPECT_TRUE(mapped->bytes().empty());
}

TEST(MappedFileTest, OpenDirectoryIsAnIOError) {
  // Directories open and stat fine but are not regular files; they are
  // rejected before the map step.
  auto mapped = MappedFile::Open(testing::TempDir());
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(StatusCode::kIOError, mapped.status().code());
}

TEST(MappedFileTest, OpenFifoIsAnIOErrorWithoutBlocking) {
  // A FIFO with no writer would block a plain open(2) forever; Open must
  // reject it as not a regular file instead.
  const std::string path = TempPath("mapped_fifo");
  ::unlink(path.c_str());
  ASSERT_EQ(0, ::mkfifo(path.c_str(), 0600));
  auto mapped = MappedFile::Open(path);
  ::unlink(path.c_str());
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(StatusCode::kIOError, mapped.status().code());
}

TEST(MappedFileTest, ScratchIsWritableZeroFilledAndSurvivesRelease) {
  auto scratch = MappedFile::CreateScratch(1 << 20);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  ASSERT_EQ(std::size_t{1} << 20, scratch->size());
  EXPECT_TRUE(scratch->writable());

  std::span<std::byte> bytes = scratch->mutable_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(std::byte{0}, bytes[i]) << "scratch not zero-filled at " << i;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i * 131u);
  }
  // The out-of-core contract: releasing residency evicts pages but the
  // data lives on (file-backed MAP_SHARED) and faults back in unchanged.
  scratch->ReleaseResidency();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(static_cast<std::byte>(i * 131u), bytes[i])
        << "data lost after ReleaseResidency at " << i;
  }
}

TEST(MappedFileTest, ScratchOfSizeZeroIsEmptyButWritable) {
  auto scratch = MappedFile::CreateScratch(0);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_EQ(0u, scratch->size());
  EXPECT_TRUE(scratch->writable());
  EXPECT_TRUE(scratch->mutable_bytes().empty());
}

TEST(MappedFileTest, ScratchInMissingDirectoryIsAnIOError) {
  auto scratch =
      MappedFile::CreateScratch(4096, TempPath("no_such_dir/nested"));
  ASSERT_FALSE(scratch.ok());
  EXPECT_EQ(StatusCode::kIOError, scratch.status().code());
}

TEST(MappedFileTest, ScratchUnderAFileIsAnIOError) {
  // A scratch dir that names a regular file fails mkstemp with ENOTDIR —
  // the unwritable-directory error path.
  const std::string blocker = TempPath("scratch_blocker");
  WriteFileBytes(blocker, "x");
  auto scratch = MappedFile::CreateScratch(4096, blocker);
  ASSERT_FALSE(scratch.ok());
  EXPECT_EQ(StatusCode::kIOError, scratch.status().code());
}

TEST(MappedFileTest, MoveTransfersTheMapping) {
  auto scratch = MappedFile::CreateScratch(4096);
  ASSERT_TRUE(scratch.ok());
  scratch->mutable_bytes()[7] = std::byte{42};

  MappedFile moved = std::move(*scratch);
  EXPECT_EQ(0u, scratch->size());
  EXPECT_FALSE(scratch->writable());
  ASSERT_EQ(4096u, moved.size());
  EXPECT_TRUE(moved.writable());
  EXPECT_EQ(std::byte{42}, moved.mutable_bytes()[7]);
}

TEST(MappedFileDeathTest, MutableBytesOnReadOnlyMappingChecks) {
  const std::string path = TempPath("mapped_readonly.bin");
  WriteFileBytes(path, "readonly");
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_DEATH((void)mapped->mutable_bytes(), "read-only mapping");
}

}  // namespace
}  // namespace privelet::common
