#include "storage/rollup_plan.h"

#include "util/check.h"

namespace aac {

RollupPlan BuildRollupPlan(const ChunkGrid& grid, GroupById from, GroupById to,
                           ChunkId chunk) {
  const Schema& schema = grid.schema();
  const Lattice& lattice = grid.lattice();
  AAC_CHECK(lattice.IsAncestor(to, from));
  const LevelVector& from_lv = lattice.LevelOf(from);
  const LevelVector& to_lv = lattice.LevelOf(to);
  const ChunkCoords coords = grid.CoordsOf(to, chunk);

  RollupPlan plan;
  plan.num_dims = schema.num_dims();

  // Target chunk shape (row-major strides, least-significant dimension last).
  for (int d = plan.num_dims - 1; d >= 0; --d) {
    auto [vb, ve] =
        grid.layout(d).ValueRange(to_lv[d], coords[static_cast<size_t>(d)]);
    plan.range_begin[static_cast<size_t>(d)] = vb;
    plan.width[static_cast<size_t>(d)] = ve - vb;
    plan.stride[static_cast<size_t>(d)] = plan.cells;
    plan.cells *= ve - vb;
  }
  // Premultiplied int32 table entries require every offset < cells to fit;
  // a chunk with > 2^31 cells would be broken long before this (the cache
  // stores whole chunks in memory).
  AAC_CHECK_LE(plan.cells, std::numeric_limits<int32_t>::max());

  // Per-dimension source windows and flattened ancestor→offset tables.
  int64_t total_entries = 0;
  for (int d = 0; d < plan.num_dims; ++d) {
    const Dimension& dim = schema.dimension(d);
    auto [sb, se] = dim.DescendantValueRange(
        to_lv[d], plan.range_begin[static_cast<size_t>(d)], from_lv[d]);
    // The descendant range of the full target value range: contiguous
    // because parent maps are monotone (the closure property).
    se = dim.DescendantValueRange(to_lv[d],
                                  plan.range_begin[static_cast<size_t>(d)] +
                                      plan.width[static_cast<size_t>(d)] - 1,
                                  from_lv[d])
             .second;
    plan.src_begin[static_cast<size_t>(d)] = sb;
    plan.src_width[static_cast<size_t>(d)] = se - sb;
    total_entries += se - sb;
  }
  plan.storage.resize(static_cast<size_t>(total_entries));
  int64_t cursor = 0;
  for (int d = 0; d < plan.num_dims; ++d) {
    const Dimension& dim = schema.dimension(d);
    int32_t* entries = plan.storage.data() + cursor;
    plan.table[static_cast<size_t>(d)] = entries;
    const int32_t sb = plan.src_begin[static_cast<size_t>(d)];
    const int32_t sw = plan.src_width[static_cast<size_t>(d)];
    const int32_t vb = plan.range_begin[static_cast<size_t>(d)];
    const int32_t w = plan.width[static_cast<size_t>(d)];
    const int64_t stride = plan.stride[static_cast<size_t>(d)];
    if (from_lv[d] == to_lv[d]) {
      // Identity level: source values are target values.
      for (int32_t i = 0; i < sw; ++i) {
        const int32_t rel = sb + i - vb;
        AAC_CHECK(rel >= 0 && rel < w);
        entries[i] = static_cast<int32_t>(rel * stride);
      }
    } else {
      // One flattened-table load per source value; range validation happens
      // here, once, instead of per cell in the fold loop.
      std::span<const int32_t> ancestors =
          dim.AncestorTable(from_lv[d], to_lv[d]);
      for (int32_t i = 0; i < sw; ++i) {
        const int32_t rel = ancestors[static_cast<size_t>(sb + i)] - vb;
        AAC_CHECK(rel >= 0 && rel < w);
        entries[i] = static_cast<int32_t>(rel * stride);
      }
    }
    cursor += sw;
  }
  return plan;
}

void SparseFoldTable::Reset(int64_t expected) {
  size_t capacity = 16;
  while (static_cast<int64_t>(capacity) < 2 * expected) capacity *= 2;
  if (keys_.size() < capacity) {
    keys_.assign(capacity, kEmpty);
    states_.assign(capacity, FoldState());
    used_.clear();
  } else {
    for (size_t i : used_) {
      keys_[i] = kEmpty;
      states_[i].Reset();
    }
    used_.clear();
  }
  mask_ = keys_.size() - 1;
}

FoldArena& ThreadFoldArena() {
  thread_local FoldArena arena;
  return arena;
}

}  // namespace aac
