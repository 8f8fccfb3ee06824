#include "storage/morsel_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/aggregator.h"
#include "storage/fold_kernel.h"
#include "test_util.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace aac {
namespace {

// A two-dimensional cube whose base group-by is one side x side chunk
// (mirrors rollup_plan_test's MakeFlatCube).
TestCube MakeFlatCube(int32_t side) {
  TestCube c;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("x", 8, {side / 8}));
  dims.push_back(Dimension::Uniform("y", 8, {side / 8}));
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  for (int d = 0; d < 2; ++d) {
    c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
        DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(d),
                                                    {8, side})));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Random base cells inside base chunk 0 of a flat cube.
std::vector<Cell> RandomFlatCells(const TestCube& cube, int n, uint64_t seed) {
  Rng rng(seed);
  const int32_t side = cube.schema->dimension(0).cardinality(1);
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Cell c;
    c.values[0] = static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(side)));
    c.values[1] = static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(side)));
    InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 0.5);
    cells.push_back(c);
  }
  return cells;
}

// Exact equality including emit order: the morsel-parallel fold must be
// indistinguishable from the serial one, bit for bit.
void ExpectExactlyEqual(int num_dims, const ChunkData& got,
                        const ChunkData& want, int lanes) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << "lanes " << lanes;
  for (size_t i = 0; i < got.cells.size(); ++i) {
    const Cell& g = got.cells[i];
    const Cell& w = want.cells[i];
    for (int d = 0; d < num_dims; ++d) {
      ASSERT_EQ(g.values[static_cast<size_t>(d)],
                w.values[static_cast<size_t>(d)])
          << "lanes " << lanes << " cell " << i;
    }
    ASSERT_EQ(g.measure, w.measure) << "lanes " << lanes << " cell " << i;
    ASSERT_EQ(g.count, w.count) << "lanes " << lanes << " cell " << i;
    ASSERT_EQ(g.min, w.min) << "lanes " << lanes << " cell " << i;
    ASSERT_EQ(g.max, w.max) << "lanes " << lanes << " cell " << i;
  }
}

TEST(MorselPool, ZeroHelpersRunsInline) {
  MorselPool pool(0);
  EXPECT_EQ(pool.num_helpers(), 0);
  int calls = 0;
  const int lanes = pool.RunPartitioned(4, [&](int lane, int total,
                                               FoldArena* arena) {
    ++calls;
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(total, 1);
    EXPECT_EQ(arena, nullptr);  // lane 0 always uses the caller's arena
  });
  EXPECT_EQ(lanes, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pool.stats().serial_runs, 1);
  EXPECT_EQ(pool.stats().parallel_runs, 0);
}

TEST(MorselPool, PartitionsAcrossIdleHelpers) {
  MorselPool pool(3);
  std::atomic<int> calls{0};
  std::atomic<uint32_t> lane_mask{0};
  const int lanes =
      pool.RunPartitioned(8, [&](int lane, int total, FoldArena* arena) {
        calls.fetch_add(1, std::memory_order_relaxed);
        lane_mask.fetch_or(1u << lane, std::memory_order_relaxed);
        EXPECT_EQ(total, 4);  // quiescent pool: caller + all 3 helpers
        EXPECT_EQ(arena == nullptr, lane == 0);
      });
  EXPECT_EQ(lanes, 4);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(lane_mask.load(), 0b1111u);  // every lane ran exactly once
  const MorselPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.parallel_runs, 1);
  EXPECT_EQ(stats.helper_dispatches, 3);

  // max_helpers caps the borrow even when more helpers are idle.
  const int capped = pool.RunPartitioned(1, [](int, int total, FoldArena*) {
    EXPECT_EQ(total, 2);
  });
  EXPECT_EQ(capped, 2);
}

TEST(MorselPool, HelperTrimsOversizedArenaAfterJob) {
  MorselPool pool(2);
  // Helper lanes inflate their private arenas past the trim threshold;
  // the helpers must give the memory back before rejoining the idle set.
  const int64_t big_cells =
      FoldArena::kTrimBytes / static_cast<int64_t>(sizeof(FoldState)) + 1024;
  pool.RunPartitioned(2, [&](int lane, int, FoldArena* arena) {
    if (lane != 0) arena->EnsureDense(big_cells);
  });
  const MorselPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.helper_dispatches, 2);
  EXPECT_EQ(stats.helper_trims, 2);
  const int64_t retained = pool.IdleHelperArenaRetainedBytes();
  ASSERT_GE(retained, 0);  // pool is idle again
  EXPECT_LT(retained, FoldArena::kTrimBytes);
  EXPECT_TRUE(pool.TrimIdleHelperArenas());  // idle pool accepts the trim
  EXPECT_EQ(pool.IdleHelperArenaRetainedBytes(), 0);
}

// The tentpole acceptance property: a morsel-parallel fold is bit-identical
// to the serial fold regardless of lane count — target-offset windows give
// every target cell the full sequential merge order (DESIGN.md §13).
TEST(MorselFold, BitIdenticalToSerialAcrossLaneCounts) {
  for (const int32_t side : {64, 128}) {
    TestCube cube = MakeFlatCube(side);
    const GroupById base = cube.lattice->base_id();
    // Enough cells to keep the 128-side chunk (16384 cells) on the dense
    // path: cells <= 4 * incoming.
    std::vector<Cell> cells = RandomFlatCells(cube, 5000, 42 + static_cast<uint64_t>(side));
    std::vector<std::span<const Cell>> spans{cells};

    Aggregator serial(cube.grid.get());
    ChunkData want = serial.AggregateSpans(base, spans, base, 0);
    ASSERT_TRUE(serial.last_fold().used_dense);
    const int64_t serial_tuples = serial.tuples_processed();

    for (int helpers = 1; helpers <= 4; ++helpers) {
      MorselPool pool(helpers);
      Aggregator agg(cube.grid.get());
      agg.set_morsel_pool(&pool);
      pool.set_min_cells(1);
      ChunkData got = agg.AggregateSpans(base, spans, base, 0);
      EXPECT_EQ(agg.last_fold().morsel_lanes, helpers + 1);
      EXPECT_TRUE(agg.last_fold().used_dense);
      ExpectExactlyEqual(2, got, want, helpers + 1);
      // The cost metric counts each source tuple once, as in the serial
      // fold, even though every lane scanned the whole input.
      EXPECT_EQ(agg.tuples_processed(), serial_tuples);

      // Arena state is clean after the parallel fold: refolding through the
      // same aggregator and pool reproduces the same bytes.
      ChunkData again = agg.AggregateSpans(base, spans, base, 0);
      ExpectExactlyEqual(2, again, want, helpers + 1);
    }
  }
}

// Both kernels stay bit-identical under morsel parallelism too.
TEST(MorselFold, KernelsAgreeUnderParallelism) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 3000, 7);
  std::vector<std::span<const Cell>> spans{cells};
  MorselPool pool(3);

  ChunkData outs[2];
  const FoldKernelKind kinds[2] = {FoldKernelKind::kScalar,
                                   FoldKernelKind::kVector};
  for (int k = 0; k < 2; ++k) {
    Aggregator agg(cube.grid.get());
    agg.set_morsel_pool(&pool);
    pool.set_min_cells(1);
    agg.set_fold_kernel(kinds[k]);
    outs[k] = agg.AggregateSpans(base, spans, base, 0);
    EXPECT_EQ(agg.last_fold().morsel_lanes, 4);
  }
  ExpectExactlyEqual(2, outs[1], outs[0], 4);
}

// Folds below the morsel threshold stay serial even with a pool attached.
TEST(MorselFold, SmallFoldsStaySerial) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 100, 3);
  MorselPool pool(2);
  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);  // default min cells = 64k, input is 100
  ChunkData out = agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().morsel_lanes, 1);
  EXPECT_EQ(pool.stats().parallel_runs, 0);
  EXPECT_GT(out.tuple_count(), 0);
}

// Batch-class queries may borrow at most half the helpers; interactive
// queries may take them all. Deterministic on a quiescent pool.
TEST(MorselFold, BatchClassCappedAtHalfTheHelpers) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 3000, 11);
  MorselPool pool(4);
  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);
  pool.set_min_cells(1);

  ExecContext batch;
  batch.query_class = QueryClass::kBatch;
  agg.set_exec_context(&batch);
  agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().morsel_lanes, 3);  // 1 + 4/2

  ExecContext interactive;
  agg.set_exec_context(&interactive);
  agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().morsel_lanes, 5);  // 1 + all 4

  agg.set_exec_context(nullptr);
  agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().morsel_lanes, 5);  // no context = interactive
}

// With every helper busy, a fold degrades to serial on the caller's thread
// instead of waiting — the admission-interplay guarantee.
TEST(MorselFold, BusyPoolDegradesToSerialWithoutWaiting) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 3000, 13);
  MorselPool pool(2);

  std::atomic<int> occupied{0};
  std::atomic<bool> release{false};
  std::thread occupant([&] {
    pool.RunPartitioned(2, [&](int, int, FoldArena*) {
      occupied.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });
  // Wait until all three lanes (occupant + 2 helpers) are inside the job,
  // so no helper is idle.
  while (occupied.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }

  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);
  pool.set_min_cells(1);
  Aggregator serial(cube.grid.get());
  ChunkData got = agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().morsel_lanes, 1);  // nobody waited for a helper
  ChunkData want = serial.AggregateCells(base, cells, base, 0);
  ExpectExactlyEqual(2, got, want, 1);

  release.store(true, std::memory_order_release);
  occupant.join();
  EXPECT_EQ(pool.stats().serial_runs, 1);
}

// A pre-expired deadline cancels the parallel fold at the first checkpoint:
// empty result, cancelled flag, and no torn state left in any lane's arena
// (the follow-up fold through the same aggregator and pool is pristine).
TEST(MorselFold, CancelledFoldLeavesNoResidue) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 3000, 17);
  MorselPool pool(3);
  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);
  pool.set_min_cells(1);

  ExecContext expired;
  expired.deadline = Deadline::AfterNanos(0);
  agg.set_exec_context(&expired);
  ChunkData out = agg.AggregateCells(base, cells, base, 0);
  EXPECT_TRUE(agg.last_fold_cancelled());
  EXPECT_EQ(out.tuple_count(), 0);
  EXPECT_GT(agg.cancel_checks(), 0);

  agg.set_exec_context(nullptr);
  ChunkData got = agg.AggregateCells(base, cells, base, 0);
  EXPECT_FALSE(agg.last_fold_cancelled());
  Aggregator serial(cube.grid.get());
  ChunkData want = serial.AggregateCells(base, cells, base, 0);
  ExpectExactlyEqual(2, got, want, agg.last_fold().morsel_lanes);
}

// An already-fired cancel token behaves the same as an expired deadline.
TEST(MorselFold, CancelTokenAbortsParallelFold) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 3000, 19);
  MorselPool pool(2);
  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);
  pool.set_min_cells(1);

  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  agg.set_exec_context(&ctx);
  ChunkData out = agg.AggregateCells(base, cells, base, 0);
  EXPECT_TRUE(agg.last_fold_cancelled());
  EXPECT_EQ(out.tuple_count(), 0);
}

// Tight-but-nonzero deadlines race the fold: the outcome must be exactly
// one of {complete and bit-identical, cancelled and empty} — never a torn
// chunk — and every outcome leaves the lanes reusable.
TEST(MorselFold, TightDeadlineYieldsAllOrNothing) {
  TestCube cube = MakeFlatCube(128);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells = RandomFlatCells(cube, 5000, 23);
  std::vector<std::span<const Cell>> spans{cells};
  Aggregator serial(cube.grid.get());
  ChunkData want = serial.AggregateSpans(base, spans, base, 0);

  MorselPool pool(3);
  Aggregator agg(cube.grid.get());
  agg.set_morsel_pool(&pool);
  pool.set_min_cells(1);
  int cancelled = 0;
  for (const int64_t budget_ns :
       {int64_t{1'000}, int64_t{10'000}, int64_t{100'000}, int64_t{1'000'000},
        int64_t{10'000'000}}) {
    ExecContext ctx;
    ctx.deadline = Deadline::AfterNanos(budget_ns);
    agg.set_exec_context(&ctx);
    ChunkData out = agg.AggregateSpans(base, spans, base, 0);
    if (agg.last_fold_cancelled()) {
      ++cancelled;
      EXPECT_EQ(out.tuple_count(), 0);
    } else {
      ExpectExactlyEqual(2, out, want, agg.last_fold().morsel_lanes);
    }
  }
  // Whatever mix of outcomes, the machinery must still fold correctly.
  agg.set_exec_context(nullptr);
  ChunkData after = agg.AggregateSpans(base, spans, base, 0);
  ExpectExactlyEqual(2, after, want, agg.last_fold().morsel_lanes);
  (void)cancelled;  // timing-dependent; both outcomes are valid
}

}  // namespace
}  // namespace aac
