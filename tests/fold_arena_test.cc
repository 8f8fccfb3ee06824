#include "storage/rollup_plan.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "storage/aggregator.h"
#include "test_util.h"
#include "util/rng.h"

namespace aac {
namespace {

// ---------------------------------------------------------------------------
// FoldArena memory accounting and the trim policy (one huge fold must not
// pin its high-water scratch forever).
// ---------------------------------------------------------------------------

TEST(FoldArena, RetainedBytesTracksHighWaterAndTrims) {
  FoldArena arena;
  EXPECT_EQ(arena.retained_bytes(), 0);

  arena.EnsureDense(1 << 16);
  const int64_t high_water = arena.retained_bytes();
  // 64k fold states (32 bytes each) plus 64k occupancy bytes.
  EXPECT_GE(high_water, int64_t{1 << 16} * 32);

  // Shrinking folds do not release anything (that is the point of the
  // arena) ...
  arena.EnsureDense(16);
  EXPECT_EQ(arena.retained_bytes(), high_water);

  // ... only an explicit trim does.
  arena.TrimToDefault();
  EXPECT_EQ(arena.retained_bytes(), 0);
  EXPECT_EQ(arena.dense_capacity(), 0);

  // And the arena regrows cleanly afterwards.
  arena.EnsureDense(64);
  EXPECT_GE(arena.dense_capacity(), 64);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(arena.dense_occupied()[i], 0);
    EXPECT_EQ(arena.dense_states()[i].count, 0);
  }
}

// Trim between an aggregator's folds: a big dense fold inflates the arena
// it folds into, TrimIfAbove gives the scratch back, and the next fold is
// still bit-identical.
TEST(FoldArena, AggregatorTrimReleasesHighWaterAndFoldsIdentically) {
  TestCube cube;  // one 128x128 base chunk = 16384 dense cells
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("x", 8, {16}));
  dims.push_back(Dimension::Uniform("y", 8, {16}));
  cube.schema = std::make_unique<Schema>(std::move(dims));
  cube.lattice = std::make_unique<Lattice>(cube.schema.get());
  for (int d = 0; d < 2; ++d) {
    cube.layouts.push_back(std::make_unique<DimensionChunkLayout>(
        DimensionChunkLayout::UniformValuesPerChunk(&cube.schema->dimension(d),
                                                    {8, 128})));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : cube.layouts) ptrs.push_back(l.get());
  cube.grid = std::make_unique<ChunkGrid>(cube.lattice.get(), std::move(ptrs));

  const GroupById base = cube.lattice->base_id();
  Rng rng(31);
  std::vector<Cell> cells;
  for (int i = 0; i < 5000; ++i) {
    Cell c;
    c.values[0] = static_cast<int32_t>(rng.Uniform(128));
    c.values[1] = static_cast<int32_t>(rng.Uniform(128));
    InitCellAggregates(c, static_cast<double>(rng.Uniform(100)) + 0.5);
    cells.push_back(c);
  }

  FoldArena arena;
  Aggregator agg(cube.grid.get(), &arena);
  ChunkData before = agg.AggregateCells(base, cells, base, 0);
  ASSERT_TRUE(agg.last_fold().used_dense);
  const int64_t high_water = arena.retained_bytes();
  EXPECT_GE(high_water, int64_t{16384} * 32);

  // Below the limit: no trim, scratch stays.
  EXPECT_FALSE(arena.TrimIfAbove(high_water));
  EXPECT_EQ(arena.retained_bytes(), high_water);

  // Above the limit: trimmed to nothing.
  EXPECT_TRUE(arena.TrimIfAbove(high_water - 1));
  EXPECT_EQ(arena.retained_bytes(), 0);
  EXPECT_FALSE(arena.TrimIfAbove(high_water - 1));  // already trimmed

  // The refold regrows the scratch and reproduces the same bytes.
  ChunkData after = agg.AggregateCells(base, cells, base, 0);
  ASSERT_EQ(after.cells.size(), before.cells.size());
  for (size_t i = 0; i < after.cells.size(); ++i) {
    EXPECT_EQ(after.cells[i].values[0], before.cells[i].values[0]);
    EXPECT_EQ(after.cells[i].values[1], before.cells[i].values[1]);
    EXPECT_EQ(after.cells[i].measure, before.cells[i].measure);
    EXPECT_EQ(after.cells[i].count, before.cells[i].count);
    EXPECT_EQ(after.cells[i].min, before.cells[i].min);
    EXPECT_EQ(after.cells[i].max, before.cells[i].max);
  }
  EXPECT_EQ(arena.retained_bytes(), high_water);
}

// ---------------------------------------------------------------------------
// SparseFoldTable edge cases (satellite: Reset(0), growth across folds, the
// sizing guard, differential fuzz against std::unordered_map).
// ---------------------------------------------------------------------------

TEST(SparseFoldTable, ResetZeroGivesUsableMinimumTable) {
  SparseFoldTable table;
  table.Reset(0);
  EXPECT_EQ(table.size(), 0);
  // Even a zero-expectation table accepts a few keys (load factor < 1/2 of
  // the 16-slot minimum) — folds whose estimate was wrong still work.
  Cell c;
  InitCellAggregates(c, 2.0);
  table.Slot(7).Merge(c);
  table.Slot(42).Merge(c);
  table.Slot(7).Merge(c);
  EXPECT_EQ(table.size(), 2);
  table.ForEach([](int64_t key, const FoldState& s) {
    EXPECT_TRUE(key == 7 || key == 42);
    EXPECT_EQ(s.count, key == 7 ? 2 : 1);
  });
}

TEST(SparseFoldTable, GrowsAcrossFoldsAndWipesPreviousState) {
  SparseFoldTable table;
  Cell c;
  InitCellAggregates(c, 5.0);

  table.Reset(4);
  const int64_t small_bytes = table.retained_bytes();
  for (int64_t k = 0; k < 4; ++k) table.Slot(k).Merge(c);
  EXPECT_EQ(table.size(), 4);

  // A bigger fold grows the buffers; the previous fold's keys are gone.
  table.Reset(1000);
  EXPECT_GT(table.retained_bytes(), small_bytes);
  EXPECT_EQ(table.size(), 0);
  for (int64_t k = 0; k < 1000; ++k) table.Slot(k * 977).Merge(c);
  EXPECT_EQ(table.size(), 1000);

  // A later small fold reuses the grown buffers (no shrink) and must not
  // see stale keys or stale aggregate state.
  const int64_t grown_bytes = table.retained_bytes();
  table.Reset(1);
  EXPECT_EQ(table.retained_bytes(), grown_bytes);
  FoldState& s = table.Slot(977);  // key present in the previous fold
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(table.size(), 1);

  // TrimToDefault releases everything; Reset rebuilds from empty.
  table.TrimToDefault();
  EXPECT_EQ(table.retained_bytes(), 0);
  table.Reset(0);
  table.Slot(3).Merge(c);
  EXPECT_EQ(table.size(), 1);
}

TEST(SparseFoldTable, ForEachVisitsInInsertionOrder) {
  SparseFoldTable table;
  table.Reset(8);
  Cell c;
  InitCellAggregates(c, 1.0);
  const int64_t keys[] = {900, 3, 512, 44, 7};
  for (int64_t k : keys) table.Slot(k).Merge(c);
  table.Slot(3).Merge(c);  // re-touch must not re-order
  std::vector<int64_t> seen;
  table.ForEach([&](int64_t key, const FoldState&) { seen.push_back(key); });
  ASSERT_EQ(seen.size(), 5u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], keys[i]);
}

// The sizing guard: Reset(expected) promises capacity for `expected`
// distinct keys at load factor 1/2; overflowing that budget must die with
// an AAC_CHECK, not probe forever or corrupt slots.
TEST(SparseFoldTableDeathTest, OverflowingResetBudgetHitsSizingGuard) {
  Cell c;
  InitCellAggregates(c, 1.0);
  EXPECT_DEATH(
      {
        SparseFoldTable table;
        table.Reset(2);  // minimum 16 slots: guard allows at most 8 keys
        for (int64_t k = 0; k < 32; ++k) table.Slot(k * 131).Merge(c);
      },
      "AAC_CHECK");
}

// Differential fuzz: random key streams (clustered to force probe chains
// and duplicate hits) against std::unordered_map<int64_t, FoldState>.
TEST(SparseFoldTable, RandomizedDifferentialAgainstUnorderedMap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 6151);
    SparseFoldTable table;
    std::unordered_map<int64_t, FoldState> reference;
    for (int round = 0; round < 4; ++round) {
      const int distinct = 1 + static_cast<int>(rng.Uniform(300));
      // The key formula below derives up to 4 distinct keys per base value.
      table.Reset(int64_t{distinct} * 4);
      reference.clear();
      const int ops = distinct * 3;
      for (int i = 0; i < ops; ++i) {
        // Cluster keys so adjacent ones collide into probe chains, and
        // repeat keys so the find-path is exercised as much as insert.
        const int64_t key =
            static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(distinct))) *
                (rng.Bernoulli(0.5) ? 1 : 4096) +
            (rng.Bernoulli(0.5) ? 0 : int64_t{1} << 33);
        Cell c;
        InitCellAggregates(c, static_cast<double>(rng.Uniform(100)) + 0.25);
        table.Slot(key).Merge(c);
        reference[key].Merge(c);
      }
      ASSERT_EQ(table.size(), static_cast<int64_t>(reference.size()))
          << "seed " << seed << " round " << round;
      int64_t visited = 0;
      table.ForEach([&](int64_t key, const FoldState& s) {
        ++visited;
        auto it = reference.find(key);
        ASSERT_NE(it, reference.end()) << "seed " << seed << " key " << key;
        EXPECT_EQ(s.sum, it->second.sum) << "seed " << seed << " key " << key;
        EXPECT_EQ(s.count, it->second.count);
        EXPECT_EQ(s.min, it->second.min);
        EXPECT_EQ(s.max, it->second.max);
      });
      EXPECT_EQ(visited, table.size());
    }
  }
}

}  // namespace
}  // namespace aac
