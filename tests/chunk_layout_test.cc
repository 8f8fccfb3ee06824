#include <gtest/gtest.h>

#include <vector>

#include "chunks/chunk_layout.h"
#include "schema/dimension.h"
#include "workload/apb_schema.h"

namespace aac {
namespace {

TEST(ChunkLayout, UniformChunkCounts) {
  Dimension d = Dimension::Uniform("x", 2, {3, 2});  // cards 2, 6, 12
  auto layout =
      DimensionChunkLayout::UniformValuesPerChunk(&d, {2, 3, 3});
  EXPECT_EQ(layout.num_chunks(0), 1);
  EXPECT_EQ(layout.num_chunks(1), 2);
  EXPECT_EQ(layout.num_chunks(2), 4);
  EXPECT_EQ(layout.TotalChunksAllLevels(), 7);
}

TEST(ChunkLayout, LastChunkMayBeSmaller) {
  Dimension d("flat", {"only"}, 7, {});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {3});
  EXPECT_EQ(layout.num_chunks(0), 3);
  EXPECT_EQ(layout.ChunkWidth(0, 0), 3);
  EXPECT_EQ(layout.ChunkWidth(0, 2), 1);
}

// Every value at every level lies in the value range of the chunk that
// ChunkOfValue names for it.
void ExpectChunkOfValueInvertsValueRange(const DimensionChunkLayout& layout) {
  const Dimension& d = layout.dimension();
  for (int level = 0; level < d.num_levels(); ++level) {
    for (int32_t v = 0; v < d.cardinality(level); ++v) {
      const int32_t chunk = layout.ChunkOfValue(level, v);
      ASSERT_GE(chunk, 0);
      ASSERT_LT(chunk, layout.num_chunks(level));
      auto [b, e] = layout.ValueRange(level, chunk);
      EXPECT_GE(v, b) << d.name() << " level " << level;
      EXPECT_LT(v, e) << d.name() << " level " << level;
    }
  }
}

TEST(ChunkLayout, ChunkOfValueAndValueRangeAreInverse) {
  Dimension d = Dimension::Uniform("x", 2, {3, 2});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {2, 3, 3});
  ExpectChunkOfValueInvertsValueRange(layout);

  // The non-uniform layout of NonUniformHierarchyAlignedBoundaries.
  Dimension nonuniform("c", {"region", "store"}, 2, {{0, 0, 0, 1, 1}});
  ExpectChunkOfValueInvertsValueRange(
      DimensionChunkLayout(&nonuniform, {{0, 1}, {0, 3}}));

  const ApbCube apb;
  for (int dim = 0; dim < apb.schema().num_dims(); ++dim) {
    ExpectChunkOfValueInvertsValueRange(apb.grid().layout(dim));
  }
}

TEST(ChunkLayout, ValueRangesPartitionLevel) {
  Dimension d = Dimension::Uniform("x", 3, {4});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {1, 4});
  for (int level = 0; level < d.num_levels(); ++level) {
    int32_t expect_begin = 0;
    for (int32_t c = 0; c < layout.num_chunks(level); ++c) {
      auto [b, e] = layout.ValueRange(level, c);
      EXPECT_EQ(b, expect_begin);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, d.cardinality(level));
  }
}

TEST(ChunkLayout, ChildChunkRangePartitions) {
  // The closure property: children of level-l chunks partition level l+1.
  Dimension d = Dimension::Uniform("x", 2, {2, 3});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {1, 2, 6});
  for (int level = 0; level < d.hierarchy_size(); ++level) {
    int32_t expect_begin = 0;
    for (int32_t c = 0; c < layout.num_chunks(level); ++c) {
      auto [b, e] = layout.ChildChunkRange(level, c);
      EXPECT_EQ(b, expect_begin);
      EXPECT_LT(b, e);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, layout.num_chunks(level + 1));
  }
}

TEST(ChunkLayout, DescendantChunkRangeComposesChildRanges) {
  Dimension d = Dimension::Uniform("x", 1, {2, 2, 2});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {1, 1, 2, 2});
  // Level 0 has 1 chunk; level 3 has 4 chunks; the single chunk covers all.
  auto [b, e] = layout.DescendantChunkRange(0, 0, 3);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(e, layout.num_chunks(3));
  // Identity when target == level.
  auto [b2, e2] = layout.DescendantChunkRange(2, 1, 2);
  EXPECT_EQ(b2, 1);
  EXPECT_EQ(e2, 2);
}

TEST(ChunkLayout, ParentChunkInvertsChildRange) {
  Dimension d = Dimension::Uniform("x", 2, {3, 2});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {1, 3, 6});
  for (int level = 1; level < d.num_levels(); ++level) {
    for (int32_t c = 0; c < layout.num_chunks(level); ++c) {
      const int32_t parent = layout.ParentChunk(level, c);
      auto [b, e] = layout.ChildChunkRange(level - 1, parent);
      EXPECT_GE(c, b);
      EXPECT_LT(c, e);
    }
  }
}

TEST(ChunkLayout, AncestorChunkMultiHop) {
  Dimension d = Dimension::Uniform("x", 1, {2, 2, 2});
  auto layout = DimensionChunkLayout::UniformValuesPerChunk(&d, {1, 1, 2, 1});
  // Level 3 has 8 chunks; level 0 has 1.
  for (int32_t c = 0; c < layout.num_chunks(3); ++c) {
    EXPECT_EQ(layout.AncestorChunk(3, c, 0), 0);
  }
  EXPECT_EQ(layout.AncestorChunk(3, 5, 3), 5);  // identity
}

TEST(ChunkLayout, NonUniformHierarchyAlignedBoundaries) {
  // Parents [0,0,0,1,1]: children of value 0 are 0..2, of value 1 are 3..4.
  Dimension d("c", {"region", "store"}, 2, {{0, 0, 0, 1, 1}});
  // Store chunks {0,1,2} and {3,4} align with the hierarchy.
  DimensionChunkLayout layout(&d, {{0, 1}, {0, 3}});
  EXPECT_EQ(layout.num_chunks(1), 2);
  auto [b, e] = layout.ChildChunkRange(0, 0);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(e, 1);
  auto [b1, e1] = layout.ChildChunkRange(0, 1);
  EXPECT_EQ(b1, 1);
  EXPECT_EQ(e1, 2);
}

TEST(ChunkLayoutDeathTest, MisalignedBoundariesAbort) {
  // Chunk boundary at store 2 splits region 0's children {0,1,2}.
  Dimension d("c", {"region", "store"}, 2, {{0, 0, 0, 1, 1}});
  EXPECT_DEATH(DimensionChunkLayout(&d, {{0, 1}, {0, 2}}), "AAC_CHECK");
}

TEST(ChunkLayoutDeathTest, FirstBeginMustBeZero) {
  Dimension d("flat", {"only"}, 4, {});
  EXPECT_DEATH(DimensionChunkLayout(&d, {{1, 2}}), "AAC_CHECK");
}

TEST(ChunkLayoutDeathTest, NonIncreasingBeginsAbort) {
  Dimension d("flat", {"only"}, 4, {});
  EXPECT_DEATH(DimensionChunkLayout(&d, {{0, 2, 2}}), "AAC_CHECK");
}

}  // namespace
}  // namespace aac
