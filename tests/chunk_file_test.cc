#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "storage/chunk_data.h"
#include "storage/chunk_file.h"
#include "test_util.h"

namespace aac {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class ChunkFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = MakeThreeDimCube();
    cells_ = RandomBaseCells(cube_, 0.6, 77);
    table_ = std::make_unique<FactTable>(cube_.grid.get(), cells_);
  }

  TestCube cube_;
  std::vector<Cell> cells_;
  std::unique_ptr<FactTable> table_;
};

TEST_F(ChunkFileTest, RoundTripWholeTable) {
  const std::string path = TempPath("roundtrip.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
  ChunkFileReader reader;
  ASSERT_TRUE(reader.Open(path, cube_.schema->num_dims()));
  EXPECT_EQ(reader.num_tuples(), table_->num_tuples());
  EXPECT_EQ(reader.num_chunks(), table_->num_chunks());

  // Rebuilding a FactTable from the file yields identical contents.
  FactTable reloaded(cube_.grid.get(), reader.ReadAll());
  EXPECT_EQ(reloaded.num_tuples(), table_->num_tuples());
  for (ChunkId c = 0; c < table_->num_chunks(); ++c) {
    ChunkData a, b;
    a.cells.assign(table_->ChunkSlice(c).begin(), table_->ChunkSlice(c).end());
    b.cells.assign(reloaded.ChunkSlice(c).begin(),
                   reloaded.ChunkSlice(c).end());
    EXPECT_TRUE(ChunkDataEquals(cube_.schema->num_dims(), &a, &b));
  }
}

TEST_F(ChunkFileTest, PerChunkReadsMatchSlices) {
  const std::string path = TempPath("chunks.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
  ChunkFileReader reader;
  ASSERT_TRUE(reader.Open(path, cube_.schema->num_dims()));
  for (ChunkId c = 0; c < table_->num_chunks(); ++c) {
    std::vector<Cell> got = reader.ReadChunk(c);
    ASSERT_EQ(got.size(), table_->ChunkSlice(c).size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].values, table_->ChunkSlice(c)[i].values);
      EXPECT_EQ(got[i].measure, table_->ChunkSlice(c)[i].measure);
      EXPECT_EQ(got[i].count, table_->ChunkSlice(c)[i].count);
    }
  }
}

TEST_F(ChunkFileTest, EmptyTableRoundTrips) {
  FactTable empty(cube_.grid.get(), {});
  const std::string path = TempPath("empty.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(empty, path));
  ChunkFileReader reader;
  ASSERT_TRUE(reader.Open(path, cube_.schema->num_dims()));
  EXPECT_EQ(reader.num_tuples(), 0);
  EXPECT_TRUE(reader.ReadAll().empty());
}

TEST_F(ChunkFileTest, RejectsWrongDimensionCount) {
  const std::string path = TempPath("dims.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
  ChunkFileReader reader;
  EXPECT_FALSE(reader.Open(path, cube_.schema->num_dims() + 1));
}

TEST_F(ChunkFileTest, RejectsMissingFile) {
  ChunkFileReader reader;
  EXPECT_FALSE(reader.Open(TempPath("nonexistent.aacf"), 3));
}

TEST_F(ChunkFileTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.aacf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE not a chunk file at all", f);
  std::fclose(f);
  ChunkFileReader reader;
  EXPECT_FALSE(reader.Open(path, cube_.schema->num_dims()));
}

TEST_F(ChunkFileTest, DetectsTruncation) {
  const std::string path = TempPath("truncated.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
  // Chop off the last 16 bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 16), 0);
  ChunkFileReader reader;
  EXPECT_FALSE(reader.Open(path, cube_.schema->num_dims()));
}

// A header count too large for the file fails Open before anything is
// sized from it: no bad_alloc from the directory, no overflow in its
// num_chunks + 1 entries.
TEST_F(ChunkFileTest, RejectsOversizedCountsWithoutAllocating) {
  const std::string path = TempPath("oversized.aacf");
  constexpr long kNumChunksAt = 12;  // after magic, version and num_dims
  constexpr long kNumTuplesAt = 20;
  const struct {
    long at;
    int64_t value;
  } patches[] = {{kNumChunksAt, int64_t{1} << 40},
                 {kNumChunksAt, INT64_MAX},
                 {kNumTuplesAt, int64_t{1} << 40}};
  for (const auto& patch : patches) {
    ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, patch.at, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&patch.value, sizeof(patch.value), 1, f), 1u);
    std::fclose(f);
    ChunkFileReader reader;
    EXPECT_FALSE(reader.Open(path, cube_.schema->num_dims()))
        << "count " << patch.value << " at byte " << patch.at;
  }
}

TEST_F(ChunkFileTest, DetectsPayloadCorruption) {
  const std::string path = TempPath("corrupt.aacf");
  ASSERT_TRUE(ChunkFileWriter::Write(*table_, path));
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -9, SEEK_END);
  std::fputc(0x5A, f);
  std::fclose(f);
  ChunkFileReader reader;
  EXPECT_FALSE(reader.Open(path, cube_.schema->num_dims()));
}

}  // namespace
}  // namespace aac
