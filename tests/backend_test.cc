#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "storage/aggregator.h"
#include "test_util.h"

namespace aac {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = MakeSmallCube();
    base_cells_ = RandomBaseCells(cube_, 0.6, 13);
    table_ = std::make_unique<FactTable>(cube_.grid.get(), base_cells_);
    backend_ = std::make_unique<BackendServer>(table_.get(), BackendCostModel(),
                                               &clock_);
  }

  TestCube cube_;
  std::vector<Cell> base_cells_;
  std::unique_ptr<FactTable> table_;
  SimClock clock_;
  std::unique_ptr<BackendServer> backend_;
};

TEST_F(BackendTest, ReturnsRequestedChunks) {
  const GroupById gb = cube_.lattice->IdOf(LevelVector{1, 0});
  std::vector<ChunkId> wanted{0, 1};
  std::vector<ChunkData> got = backend_->ExecuteChunkQuery(gb, wanted).chunks;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].gb, gb);
  EXPECT_EQ(got[0].chunk, 0);
  EXPECT_EQ(got[1].chunk, 1);
}

TEST_F(BackendTest, ResultsMatchDirectAggregation) {
  Aggregator oracle(cube_.grid.get());
  const Lattice& lat = *cube_.lattice;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    std::vector<ChunkId> all;
    for (ChunkId c = 0; c < cube_.grid->NumChunks(gb); ++c) all.push_back(c);
    std::vector<ChunkData> got = backend_->ExecuteChunkQuery(gb, all).chunks;
    for (auto& chunk : got) {
      std::vector<std::span<const Cell>> spans;
      for (ChunkId bc :
           cube_.grid->ParentChunkNumbers(gb, chunk.chunk, lat.base_id())) {
        spans.push_back(table_->ChunkSlice(bc));
      }
      ChunkData want =
          oracle.AggregateSpans(lat.base_id(), spans, gb, chunk.chunk);
      EXPECT_TRUE(ChunkDataEquals(cube_.schema->num_dims(), &chunk, &want));
    }
  }
}

TEST_F(BackendTest, ChargesSimulatedLatency) {
  const GroupById top = cube_.lattice->top_id();
  EXPECT_EQ(clock_.TotalNanos(), 0);
  backend_->ExecuteChunkQuery(top, {0}).chunks;
  const BackendCostModel& m = backend_->cost_model();
  const int64_t expected = m.QueryCostNanos(backend_->stats().base_chunks_scanned,
                                            backend_->stats().tuples_scanned);
  EXPECT_EQ(clock_.TotalNanos(), expected);
}

TEST_F(BackendTest, StatsAccumulate) {
  const GroupById top = cube_.lattice->top_id();
  backend_->ExecuteChunkQuery(top, {0}).chunks;
  backend_->ExecuteChunkQuery(top, {0}).chunks;
  EXPECT_EQ(backend_->stats().queries, 2);
  EXPECT_EQ(backend_->stats().chunks_returned, 2);
  EXPECT_EQ(backend_->stats().tuples_scanned,
            2 * static_cast<int64_t>(base_cells_.size()));
  backend_->ResetStats();
  EXPECT_EQ(backend_->stats().queries, 0);
}

TEST_F(BackendTest, EstimateMatchesActualCharge) {
  const GroupById gb = cube_.lattice->IdOf(LevelVector{0, 1});
  std::vector<ChunkId> chunks{0, 1};
  const int64_t estimate = backend_->EstimateQueryCostNanos(gb, chunks);
  clock_.Reset();
  backend_->ExecuteChunkQuery(gb, chunks).chunks;
  EXPECT_EQ(clock_.TotalNanos(), estimate);
}

TEST_F(BackendTest, NullClockIsAllowed) {
  BackendServer backend(table_.get(), BackendCostModel(), nullptr);
  std::vector<ChunkData> got =
      backend.ExecuteChunkQuery(cube_.lattice->top_id(), {0}).chunks;
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(BackendTest, EmptyChunkStillReturned) {
  // Query a base chunk with no tuples (density < 1 makes some likely); the
  // result must exist with zero cells rather than being dropped.
  TestCube cube = MakeSmallCube();
  FactTable empty_table(cube.grid.get(), {});
  BackendServer backend(&empty_table, BackendCostModel(), nullptr);
  std::vector<ChunkData> got =
      backend.ExecuteChunkQuery(cube.lattice->base_id(), {0, 1}).chunks;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].tuple_count(), 0);
}

// Two dimensions of 256 x 128 leaf values, chunked 8 x 8 at the base (512
// cells a chunk); the group-by one level up on each has 16 chunks, each
// folded from 4 base chunks. At density 1 the table holds 32,768 tuples.
TestCube MakeWideCube() {
  TestCube c;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("a", 4, {8, 8}));  // cards 4/32/256
  dims.push_back(Dimension::Uniform("b", 4, {4, 8}));  // cards 4/16/128
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(0),
                                                  {2, 8, 32})));
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(1),
                                                  {2, 4, 16})));
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Bit-identical: the same chunk, the same cells in the same order.
bool SameChunk(const ChunkData& a, const ChunkData& b) {
  return a.gb == b.gb && a.chunk == b.chunk &&
         a.cells.size() == b.cells.size() &&
         (a.cells.empty() ||
          std::memcmp(a.cells.data(), b.cells.data(),
                      a.cells.size() * sizeof(Cell)) == 0);
}

// Calls large enough to fold on several workers.
class BackendParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = MakeWideCube();
    table_ = std::make_unique<FactTable>(cube_.grid.get(),
                                         RandomBaseCells(cube_, 1.0, 29));
    gb_ = cube_.lattice->IdOf(LevelVector{1, 1});
    // The chunks in reverse order, so request order is not chunk order,
    // until they read more than kParallelFoldTuples base tuples: a call
    // over them crosses the bound with more than one chunk.
    const GroupById base = cube_.lattice->base_id();
    for (ChunkId c = cube_.grid->NumChunks(gb_) - 1;
         c >= 0 && tuples_ <= BackendServer::kParallelFoldTuples; --c) {
      wanted_.push_back(c);
      for (ChunkId bc : cube_.grid->ParentChunkNumbers(gb_, c, base)) {
        tuples_ += table_->ChunkTupleCount(bc);
      }
    }
    // The oracle: one serial fold per chunk over the same base slices.
    Aggregator oracle(cube_.grid.get());
    for (ChunkId c : wanted_) {
      std::vector<std::span<const Cell>> spans;
      for (ChunkId bc : cube_.grid->ParentChunkNumbers(gb_, c, base)) {
        spans.push_back(table_->ChunkSlice(bc));
      }
      want_.push_back(oracle.AggregateSpans(base, spans, gb_, c));
    }
  }

  TestCube cube_;
  std::unique_ptr<FactTable> table_;
  GroupById gb_ = 0;
  std::vector<ChunkId> wanted_;
  int64_t tuples_ = 0;
  std::vector<ChunkData> want_;
};

TEST_F(BackendParallelTest, LargeCallMatchesSerialFoldsAndOneChunkCalls) {
  ASSERT_GT(tuples_, BackendServer::kParallelFoldTuples);
  ASSERT_GE(wanted_.size(), 2u);

  SimClock clock;
  BackendServer backend(table_.get(), BackendCostModel(), &clock);
  const BackendResult got = backend.ExecuteChunkQuery(gb_, wanted_);
  ASSERT_EQ(got.status, BackendStatus::kOk);
  ASSERT_EQ(got.chunks.size(), wanted_.size());
  for (size_t i = 0; i < wanted_.size(); ++i) {
    EXPECT_TRUE(SameChunk(got.chunks[i], want_[i])) << "chunk " << wanted_[i];
  }

  // The same chunks one call each: the large call's stats are their sums,
  // except that it is one query, and it pays the fixed overhead once.
  BackendServer single(table_.get(), BackendCostModel(), nullptr);
  int64_t single_nanos = 0;
  for (size_t i = 0; i < wanted_.size(); ++i) {
    const BackendResult one = single.ExecuteChunkQuery(gb_, {wanted_[i]});
    ASSERT_EQ(one.chunks.size(), 1u);
    EXPECT_TRUE(SameChunk(one.chunks[0], want_[i])) << "chunk " << wanted_[i];
    single_nanos += one.charged_nanos;
  }
  const BackendStats large = backend.stats();
  const BackendStats sum = single.stats();
  EXPECT_EQ(large.queries, 1);
  EXPECT_EQ(sum.queries, static_cast<int64_t>(wanted_.size()));
  EXPECT_EQ(large.chunks_returned, sum.chunks_returned);
  EXPECT_EQ(large.base_chunks_scanned, sum.base_chunks_scanned);
  EXPECT_EQ(large.tuples_scanned, sum.tuples_scanned);
  EXPECT_EQ(large.tuples_scanned, tuples_);
  const int64_t overhead = backend.cost_model().fixed_query_overhead_ns;
  EXPECT_EQ(got.charged_nanos,
            single_nanos - (sum.queries - 1) * overhead);
  EXPECT_EQ(clock.TotalNanos(), got.charged_nanos);
  EXPECT_EQ(got.charged_nanos, backend.EstimateQueryCostNanos(gb_, wanted_));
}

TEST_F(BackendParallelTest, ConcurrentLargeCallsAreExactAndAddUp) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  SimClock clock;
  BackendServer backend(table_.get(), BackendCostModel(), &clock);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int64_t> charged(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const BackendResult got = backend.ExecuteChunkQuery(gb_, wanted_);
        charged[static_cast<size_t>(t)] += got.charged_nanos;
        if (got.chunks.size() != wanted_.size()) {
          ++mismatches[static_cast<size_t>(t)];
          continue;
        }
        for (size_t i = 0; i < wanted_.size(); ++i) {
          if (!SameChunk(got.chunks[i], want_[i])) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const int64_t calls = kThreads * kRounds;
  const int64_t per_call = backend.EstimateQueryCostNanos(gb_, wanted_);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(charged[static_cast<size_t>(t)], kRounds * per_call);
  }
  const BackendStats stats = backend.stats();
  EXPECT_EQ(stats.queries, calls);
  EXPECT_EQ(stats.chunks_returned,
            calls * static_cast<int64_t>(wanted_.size()));
  EXPECT_EQ(stats.tuples_scanned, calls * tuples_);
  EXPECT_EQ(clock.TotalNanos(), calls * per_call);
}

}  // namespace
}  // namespace aac
