#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "cache/single_flight.h"
#include "storage/aggregator.h"
#include "storage/fact_table.h"
#include "test_util.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/sleep.h"
#include "util/stopwatch.h"
#include "workload/experiment.h"

namespace aac {
namespace {

// ---------------------------------------------------------------------------
// Deadline / CancelToken / ExecContext primitives
// ---------------------------------------------------------------------------

TEST(Deadline, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  d.ChargeSimulated(INT64_C(1) << 60);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ns(), INT64_C(1) << 60);
}

TEST(Deadline, NonPositiveBudgetIsBornExpired) {
  EXPECT_TRUE(Deadline::AfterNanos(0).expired());
  EXPECT_TRUE(Deadline::AfterNanos(-1).expired());
}

TEST(Deadline, SimulatedChargesConsumeTheBudget) {
  // A generous real-time budget that only simulated charges can exhaust
  // within this test's lifetime.
  Deadline d = Deadline::AfterNanos(INT64_C(3'600'000'000'000));
  EXPECT_FALSE(d.expired());
  d.ChargeSimulated(INT64_C(3'600'000'000'000));
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_ns(), 0);
}

TEST(ExecContext, ShouldAbortCombinesDeadlineAndToken) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.ShouldAbort());  // default: unlimited, untokened

  CancelToken token;
  ctx.cancel = &token;
  EXPECT_FALSE(ctx.ShouldAbort());
  token.Cancel();
  EXPECT_TRUE(ctx.ShouldAbort());

  ExecContext expired;
  expired.deadline = Deadline::AfterNanos(-1);
  EXPECT_TRUE(expired.ShouldAbort());
}

// ---------------------------------------------------------------------------
// Aggregator cooperative cancellation
// ---------------------------------------------------------------------------

TEST(AggregatorCancel, CancelledContextAbortsTheFoldEmittingNothing) {
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.6, 5);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  const GroupById base = cube.lattice->base_id();
  const GroupById top = cube.lattice->top_id();

  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  const ChunkId parent = cube.grid->ParentChunkNumbers(top, 0, base)[0];
  agg.set_exec_context(&ctx);
  ChunkData out = agg.AggregateCells(base, table.ChunkSlice(parent), top, 0);
  agg.set_exec_context(nullptr);

  EXPECT_TRUE(agg.last_fold_cancelled());
  EXPECT_TRUE(out.cells.empty());
  EXPECT_GT(agg.cancel_checks(), 0);
}

// The bit-identity guarantee (docs/ALGORITHMS.md): an aborted fold wipes
// its arena state completely, so the next fold over the same arena emits
// exactly what a fresh aggregator would — chunks emitted by a
// partially-executed query are byte-for-byte those of an uncancelled run.
TEST(AggregatorCancel, AbortedFoldLeavesArenaCleanForBitIdenticalRefold) {
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.7, 9);
  FactTable table(cube.grid.get(), base_cells);
  const GroupById base = cube.lattice->base_id();
  const Lattice& lat = *cube.lattice;

  Aggregator reused(cube.grid.get());
  Aggregator fresh(cube.grid.get());
  CancelToken token;
  token.Cancel();
  ExecContext cancelled;
  cancelled.cancel = &token;

  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < cube.grid->NumChunks(gb); ++c) {
      const std::vector<ChunkId> parents =
          cube.grid->ParentChunkNumbers(gb, c, base);
      ASSERT_FALSE(parents.empty());

      // Poison: start (and abort) a fold on the reused aggregator.
      reused.set_exec_context(&cancelled);
      ChunkData aborted =
          reused.AggregateCells(base, table.ChunkSlice(parents[0]), gb, c);
      reused.set_exec_context(nullptr);
      ASSERT_TRUE(reused.last_fold_cancelled());
      ASSERT_TRUE(aborted.cells.empty());

      // The refold through the dirty-then-wiped arena must match a fresh
      // aggregator exactly.
      for (ChunkId p : parents) {
        ChunkData got = reused.AggregateCells(base, table.ChunkSlice(p), gb, c);
        ChunkData want = fresh.AggregateCells(base, table.ChunkSlice(p), gb, c);
        EXPECT_FALSE(reused.last_fold_cancelled());
        ASSERT_TRUE(ChunkDataEquals(cube.schema->num_dims(), &got, &want))
            << "gb=" << lat.LevelOf(gb).ToString() << " chunk=" << c;
      }
    }
  }
}

// Tight deadlines race a long fold: each fold either sees its deadline at
// a checkpoint and comes back cancelled and empty, or finishes and matches
// an unlimited fold bit for bit, in the same cell order. No outcome leaves
// the arena dirty for the next fold.
TEST(AggregatorCancel, TightDeadlineRaceYieldsAllOrNothing) {
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.9, 23);
  FactTable table(cube.grid.get(), base_cells);
  const GroupById base = cube.lattice->base_id();
  const GroupById top = cube.lattice->top_id();
  // Every parent slice 500 times over: thousands of checkpoints, so the
  // budgets below can expire part-way through the fold.
  std::vector<std::span<const Cell>> spans;
  for (int rep = 0; rep < 500; ++rep) {
    for (ChunkId p : cube.grid->ParentChunkNumbers(top, 0, base)) {
      spans.push_back(table.ChunkSlice(p));
    }
  }
  Aggregator unlimited(cube.grid.get());
  const ChunkData want = unlimited.AggregateSpans(base, spans, top, 0);
  ASSERT_FALSE(want.cells.empty());
  auto expect_bit_identical = [&](const ChunkData& got) {
    ASSERT_EQ(got.cells.size(), want.cells.size());
    EXPECT_EQ(std::memcmp(got.cells.data(), want.cells.data(),
                          want.cells.size() * sizeof(Cell)),
              0);
  };

  Aggregator agg(cube.grid.get());
  for (const int64_t budget_ns :
       {int64_t{1'000}, int64_t{10'000}, int64_t{100'000}, int64_t{1'000'000},
        int64_t{10'000'000}}) {
    ExecContext ctx;
    ctx.deadline = Deadline::AfterNanos(budget_ns);
    agg.set_exec_context(&ctx);
    const ChunkData out = agg.AggregateSpans(base, spans, top, 0);
    if (agg.last_fold_cancelled()) {
      EXPECT_TRUE(out.cells.empty()) << "budget " << budget_ns;
    } else {
      expect_bit_identical(out);
    }
  }
  // Whatever mix of outcomes the timing gave, the next fold is clean.
  agg.set_exec_context(nullptr);
  expect_bit_identical(agg.AggregateSpans(base, spans, top, 0));
  EXPECT_FALSE(agg.last_fold_cancelled());
}

TEST(AggregatorCancel, NullContextCostsNoCheckpoints) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.5, 3);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  agg.AggregateCells(cube.lattice->base_id(), table.ChunkSlice(0),
                     cube.lattice->top_id(), 0);
  EXPECT_EQ(agg.cancel_checks(), 0);
  EXPECT_FALSE(agg.last_fold_cancelled());
}

// ---------------------------------------------------------------------------
// CondVar::WaitUntil, the one deadline-bounded wait
// ---------------------------------------------------------------------------

TEST(CondVarWaitUntil, ReadyPredicateWinsOverAnExpiredDeadline) {
  Mutex mu{LockRank::kAdmission, "t.wait_until"};
  CondVar cv;
  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(-1);
  MutexLock lock(mu);
  EXPECT_TRUE(cv.WaitUntil(mu, ctx, [] { return true; }));
}

TEST(CondVarWaitUntil, ReturnsFalseWhenTheDeadlinePassesFirst) {
  Mutex mu{LockRank::kAdmission, "t.wait_until"};
  CondVar cv;
  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(2'000'000);  // 2 ms
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitUntil(mu, ctx, [] { return false; }));
  EXPECT_TRUE(ctx.deadline.expired());
}

// A cancel token has no wakeup channel: nobody notifies, and without a
// deadline only the cancel poll ends the wait, well before the one-second
// slice would.
TEST(CondVarWaitUntil, ReturnsFalseSoonAfterAnotherThreadCancels) {
  Mutex mu{LockRank::kAdmission, "t.wait_until"};
  CondVar cv;
  CancelToken token;
  ExecContext ctx;
  ctx.cancel = &token;
  std::thread canceller([&] {
    SleepForNanos(20'000'000);  // 20 ms
    token.Cancel();
  });
  Stopwatch timer;
  {
    MutexLock lock(mu);
    EXPECT_FALSE(cv.WaitUntil(mu, ctx, [] { return false; }));
  }
  EXPECT_LT(timer.ElapsedNanos(), 500'000'000);
  canceller.join();
}

TEST(CondVarWaitUntil, ReturnsTrueWhenNotifiedReadyBeforeTheDeadline) {
  Mutex mu{LockRank::kAdmission, "t.wait_until"};
  CondVar cv;
  bool ready = false;
  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(INT64_C(60'000'000'000));  // 60 s
  std::thread notifier([&] {
    SleepForNanos(5'000'000);  // 5 ms
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    EXPECT_TRUE(cv.WaitUntil(mu, ctx, [&] { return ready; }));
  }
  EXPECT_FALSE(ctx.deadline.expired());
  notifier.join();
}

// ---------------------------------------------------------------------------
// Single-flight follower detach
// ---------------------------------------------------------------------------

TEST(SingleFlightDeadline, FollowerDetachesWhenItsDeadlineFiresFirst) {
  SingleFlight<ChunkData> sf;
  const CacheKey key{0, 0};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);  // we lead...
  std::shared_ptr<SingleFlight<ChunkData>::Slot> slot = sf.JoinOrLead(key);
  ASSERT_NE(slot, nullptr);  // ...and follow ourselves; nobody publishes yet

  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(2'000'000);  // 2 ms
  ChunkData out;
  EXPECT_EQ(sf.AwaitWithDeadline(*slot, ctx, &out),
            SingleFlight<ChunkData>::AwaitStatus::kDeadline);
  EXPECT_EQ(sf.detached(), 1);

  // The flight is unaffected by the detach: the leader still publishes and
  // a patient follower still gets the data.
  ChunkData data;
  data.gb = 0;
  data.chunk = 0;
  sf.Publish(key, data);
  ExecContext patient;
  EXPECT_EQ(sf.AwaitWithDeadline(*slot, patient, &out),
            SingleFlight<ChunkData>::AwaitStatus::kOk);
  EXPECT_EQ(out.chunk, 0);
}

TEST(SingleFlightDeadline, CancelTokenUnblocksAwait) {
  SingleFlight<ChunkData> sf;
  const CacheKey key{0, 1};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);
  std::shared_ptr<SingleFlight<ChunkData>::Slot> slot = sf.JoinOrLead(key);
  ASSERT_NE(slot, nullptr);

  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  ChunkData out;
  EXPECT_EQ(sf.AwaitWithDeadline(*slot, ctx, &out),
            SingleFlight<ChunkData>::AwaitStatus::kDeadline);
  sf.Fail(key);  // leader cleanup
}

// ---------------------------------------------------------------------------
// Engine-level deadlines: dead-on-arrival, mid-query cancel, salvage
// ---------------------------------------------------------------------------

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 21;
  config.cache_fraction = 0.6;
  return config;
}

TEST(EngineDeadline, ExpiredOnArrivalResolvesWithoutTouchingTheCache) {
  Experiment exp(TinyConfig());
  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));

  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(-1);
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &ctx, &stats);

  EXPECT_EQ(result.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kDeadlineExceeded);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_EQ(static_cast<int64_t>(result.unavailable.size()),
            stats.chunks_requested);
  EXPECT_EQ(stats.backend_attempts, 0);
  EXPECT_EQ(exp.cache().num_entries(), 0u);  // no cache mutation
  EXPECT_FALSE(stats.complete_hit);
}

TEST(EngineDeadline, UnlimitedContextMatchesPlainExecution) {
  Experiment a(TinyConfig());
  Experiment b(TinyConfig());
  const Query q = Query::WholeLevel(
      a.schema(), a.lattice().LevelOf(a.lattice().top_id()));

  QueryStats plain_stats;
  QueryResult plain = a.engine().ExecuteQuery(q, &plain_stats);
  ExecContext ctx;  // no deadline, no token
  QueryStats ctx_stats;
  QueryResult with_ctx = b.engine().ExecuteQuery(q, &ctx, &ctx_stats);

  EXPECT_EQ(plain.status, with_ctx.status);
  EXPECT_EQ(plain.chunks.size(), with_ctx.chunks.size());
  EXPECT_EQ(plain_stats.chunks_backend, ctx_stats.chunks_backend);
  EXPECT_EQ(plain_stats.fetch_abort, ctx_stats.fetch_abort);
}

// Cancels its token during the Nth ExecuteChunkQuery call, then still
// returns the data — models a client disconnecting while the backend round
// trip is in flight.
class CancelDuringFetchBackend : public Backend {
 public:
  CancelDuringFetchBackend(Backend* wrapped, CancelToken* token,
                           int cancel_on_call)
      : wrapped_(wrapped), token_(token), cancel_on_call_(cancel_on_call) {}

  const BackendCostModel& cost_model() const override {
    return wrapped_->cost_model();
  }
  BackendResult ExecuteChunkQuery(
      GroupById gb, const std::vector<ChunkId>& chunks) override {
    if (++calls_ == cancel_on_call_) token_->Cancel();
    return wrapped_->ExecuteChunkQuery(gb, chunks);
  }
  int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const override {
    return wrapped_->EstimateQueryCostNanos(gb, chunks);
  }
  int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                         ChunkId chunk) const override {
    return wrapped_->EstimateMarginalChunkCostNanos(gb, chunk);
  }

 private:
  Backend* wrapped_;
  CancelToken* token_;
  int cancel_on_call_;
  int calls_ = 0;
};

TEST(EngineDeadline, CancelledQueryStillSalvagesFetchedChunksIntoTheCache) {
  Experiment exp(TinyConfig());
  CancelToken token;
  CancelDuringFetchBackend backend(&exp.backend(), &token, /*cancel_on_call=*/1);
  QueryEngine engine(&exp.grid(), &exp.cache(), &exp.strategy(), &backend,
                     &exp.benefit(), &exp.sim_clock(), QueryEngine::Config());

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  ExecContext ctx;
  ctx.cancel = &token;
  QueryStats stats;
  QueryResult result = engine.ExecuteQuery(q, &ctx, &stats);

  // The fetch completed before the cancel was observed (the loop never hit
  // an abort checkpoint, so fetch_abort stays kNone), but the final status
  // checkpoint still reports the truth — and everything fetched is attached
  // AND admitted to the cache (salvage).
  EXPECT_EQ(result.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kNone);
  EXPECT_GT(stats.chunks_backend, 0);
  EXPECT_EQ(stats.salvaged_chunks, stats.chunks_backend);
  EXPECT_GT(exp.cache().num_entries(), 0u);
  EXPECT_FALSE(stats.complete_hit);

  // A follow-up query (new token) is served straight from the salvage.
  QueryStats again;
  QueryResult hit = engine.ExecuteQuery(q, &again);
  EXPECT_EQ(hit.status, ResultStatus::kOk);
  EXPECT_TRUE(again.complete_hit);
  EXPECT_EQ(again.chunks_backend, 0);
}

TEST(EngineDeadline, CancelBeforeSecondQueryAbortsAggregationPhase) {
  Experiment exp(TinyConfig());
  const GroupById top = exp.lattice().top_id();
  const Query q = Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(top));

  // Warm the cache so the query is answerable by aggregation/direct hits.
  exp.engine().ExecuteQuery(q, nullptr);

  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &ctx, &stats);

  // Already-cancelled at entry: typed, immediate, nothing executed.
  EXPECT_EQ(result.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kCancelled);
  EXPECT_EQ(stats.chunks_direct, 0);
  EXPECT_EQ(stats.backend_attempts, 0);
}

}  // namespace
}  // namespace aac
