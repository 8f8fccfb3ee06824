#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cache/snapshot.h"
#include "core/vcm.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 33, kBigCache,
                       /*two_level_policy=*/true);
    // Populate with a mix of levels and provenances.
    const GroupById base = env_.lattice().base_id();
    for (ChunkId c = 0; c < env_.grid().NumChunks(base); ++c) {
      CacheChunkFromBackend(env_, base, c);
    }
    const GroupById mid = env_.lattice().IdOf(LevelVector{1, 1});
    CacheChunkFromBackend(env_, mid, 0);
  }

  TestEnv env_;
};

TEST_F(SnapshotTest, SaveAndReloadRestoresEntries) {
  const std::string path = TempPath("cache.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));

  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, env_.cache->bytes_per_tuple(), &policy);
  const int64_t restored =
      CacheSnapshot::Load(path, env_.grid(), &fresh);
  EXPECT_EQ(restored, static_cast<int64_t>(env_.cache->num_entries()));
  EXPECT_EQ(fresh.num_entries(), env_.cache->num_entries());
  EXPECT_EQ(fresh.bytes_used(), env_.cache->bytes_used());

  // Contents survive byte-for-value.
  env_.cache->ForEach([&](const CacheEntryInfo& info) {
    const ChunkData* a = env_.cache->Peek(info.key);
    const ChunkData* b = fresh.Peek(info.key);
    ASSERT_NE(b, nullptr);
    ChunkData ca = *a, cb = *b;
    EXPECT_TRUE(ChunkDataEquals(env_.schema().num_dims(), &ca, &cb));
  });
}

TEST_F(SnapshotTest, ReloadRebuildsVirtualCounts) {
  const std::string path = TempPath("counts.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));

  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, env_.cache->bytes_per_tuple(), &policy);
  VcmStrategy vcm(env_.cube.grid.get(), &fresh);
  fresh.AddListener(vcm.listener());
  ASSERT_GT(CacheSnapshot::Load(path, env_.grid(), &fresh), 0);
  // Base fully restored => everything computable, counts consistent.
  EXPECT_TRUE(vcm.IsComputable(env_.lattice().top_id(), 0));
  const std::vector<uint8_t> scratch = vcm.counts().ComputeFromScratch();
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(vcm.counts().CountOf(gb, c),
                scratch[OracleIndex(env_, gb, c)]);
    }
  }
}

TEST_F(SnapshotTest, SmallerCacheLoadsWhatFits) {
  const std::string path = TempPath("small.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  TwoLevelPolicy policy;
  ChunkCache tiny(env_.cache->bytes_used() / 3,
                  env_.cache->bytes_per_tuple(), &policy);
  const int64_t restored =
      CacheSnapshot::Load(path, env_.grid(), &tiny);
  EXPECT_GE(restored, 0);
  // Admission may evict earlier snapshot entries; what matters is that the
  // restored cache respects its capacity and holds fewer entries.
  EXPECT_LT(tiny.num_entries(), env_.cache->num_entries());
  EXPECT_LE(tiny.bytes_used(), tiny.capacity_bytes());
}

TEST_F(SnapshotTest, RejectsWrongDims) {
  const std::string path = TempPath("dims.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  const TestCube other = MakeThreeDimCube();
  ASSERT_NE(other.schema->num_dims(), env_.schema().num_dims());
  EXPECT_EQ(CacheSnapshot::Load(path, *other.grid, &fresh), -1);
}

TEST_F(SnapshotTest, RejectsGarbageFile) {
  const std::string path = TempPath("garbage.aacs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
}

// Overwrites `len` bytes at `offset` of the file with `bytes`.
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
  std::fclose(f);
}

// Reads `len` bytes at `offset` of the file into `bytes`.
void ReadFile(const std::string& path, long offset, void* bytes, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fread(bytes, 1, len, f), len);
  std::fclose(f);
}

// File layout: 20-byte header (magic, version, dims, entry count), then per
// entry { i32 gb @ +0, i64 chunk @ +4, u8 source @ +12, f64 benefit @ +13,
// i64 cells @ +21 }.
constexpr long kHeaderBytes = 20;

TEST_F(SnapshotTest, RejectsInsaneCellCountWithoutAllocating) {
  const std::string path = TempPath("cells.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  // A flipped high byte turns the first entry's cell count into ~10^18;
  // loading must fail with a status, not abort in a huge resize.
  const int64_t insane = int64_t{1} << 60;
  PatchFile(path, kHeaderBytes + 21, &insane, sizeof(insane));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
  EXPECT_EQ(fresh.num_entries(), 0u);
}

TEST_F(SnapshotTest, RejectsNegativeGroupBy) {
  const std::string path = TempPath("gb.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  const int32_t bad_gb = -7;
  PatchFile(path, kHeaderBytes, &bad_gb, sizeof(bad_gb));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
}

// An entry's ids index the virtual-count arrays of the cache's listeners,
// so ids outside the grid must be rejected before anything is inserted.
TEST_F(SnapshotTest, RejectsGroupByOutsideTheGrid) {
  const std::string path = TempPath("gb_range.aacs");
  ASSERT_TRUE(CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  const int32_t bad_gb = env_.lattice().num_groupbys() + 3;
  PatchFile(path, kHeaderBytes, &bad_gb, sizeof(bad_gb));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, env_.cache->bytes_per_tuple(), &policy);
  VcmStrategy vcm(env_.cube.grid.get(), &fresh);
  fresh.AddListener(vcm.listener());
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
  EXPECT_EQ(fresh.num_entries(), 0u);
}

TEST_F(SnapshotTest, RejectsChunkOutsideTheGrid) {
  const std::string path = TempPath("chunk_range.aacs");
  ASSERT_TRUE(CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  const int64_t bad_chunk = int64_t{1} << 20;
  PatchFile(path, kHeaderBytes + 4, &bad_chunk, sizeof(bad_chunk));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, env_.cache->bytes_per_tuple(), &policy);
  VcmStrategy vcm(env_.cube.grid.get(), &fresh);
  fresh.AddListener(vcm.listener());
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
  EXPECT_EQ(fresh.num_entries(), 0u);
}

TEST_F(SnapshotTest, RejectsCellOutsideItsChunk) {
  const std::string path = TempPath("cell_range.aacs");
  ASSERT_TRUE(CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  int64_t first_cells = 0;
  ReadFile(path, kHeaderBytes + 21, &first_cells, sizeof(first_cells));
  ASSERT_GT(first_cells, 0);
  // The first cell's first value id, right after the entry header.
  const int32_t bad_value = 1 << 20;
  PatchFile(path, kHeaderBytes + 29, &bad_value, sizeof(bad_value));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, env_.cache->bytes_per_tuple(), &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
  EXPECT_EQ(fresh.num_entries(), 0u);
}

TEST_F(SnapshotTest, RejectsUnknownSourceByte) {
  const std::string path = TempPath("source.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  const uint8_t bad_source = 7;
  PatchFile(path, kHeaderBytes + 12, &bad_source, sizeof(bad_source));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
}

TEST_F(SnapshotTest, RejectsInflatedEntryCount) {
  const std::string path = TempPath("entries.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  const int64_t insane = int64_t{1} << 56;
  PatchFile(path, 12, &insane, sizeof(insane));
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
}

TEST_F(SnapshotTest, DetectsTruncation) {
  const std::string path = TempPath("trunc.aacs");
  ASSERT_TRUE(
      CacheSnapshot::Save(*env_.cache, env_.grid(), path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  TwoLevelPolicy policy;
  ChunkCache fresh(kBigCache, 10, &policy);
  EXPECT_EQ(CacheSnapshot::Load(path, env_.grid(), &fresh), -1);
}

}  // namespace
}  // namespace aac
