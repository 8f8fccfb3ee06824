#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/circuit_breaker.h"
#include "core/concurrent_engine.h"
#include "util/deadline.h"
#include "util/sim_clock.h"
#include "workload/experiment.h"

namespace aac {
namespace {

ExecContext Interactive() { return ExecContext{}; }

ExecContext Batch() {
  ExecContext ctx;
  ctx.query_class = QueryClass::kBatch;
  return ctx;
}

TEST(Admission, AdmitsUpToCapacityAndReleasesSlots) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  config.max_queued_interactive = 0;
  AdmissionController admission(config);

  const ExecContext ctx = Interactive();
  EXPECT_EQ(admission.Admit(ctx), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.Admit(ctx), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.stats().running, 2);

  admission.Release(QueryClass::kInteractive);
  admission.Release(QueryClass::kInteractive);
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.queued, 0);
}

TEST(Admission, FullQueueShedsImmediatelyWithoutBlocking) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued_interactive = 0;
  AdmissionController admission(config);

  const ExecContext ctx = Interactive();
  ASSERT_EQ(admission.Admit(ctx), AdmissionOutcome::kAdmitted);
  // Slot busy, zero queue depth: the overload answer is an immediate typed
  // rejection, not unbounded queueing.
  EXPECT_EQ(admission.Admit(ctx), AdmissionOutcome::kShedQueueFull);
  EXPECT_EQ(admission.stats().shed_queue_full, 1);

  admission.Release(QueryClass::kInteractive);
  EXPECT_EQ(admission.Admit(ctx), AdmissionOutcome::kAdmitted);
  admission.Release(QueryClass::kInteractive);
}

TEST(Admission, BatchConcurrencyIsCappedBelowInteractive) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.max_concurrent_batch = 1;
  config.max_queued_batch = 0;
  config.max_queued_interactive = 0;
  AdmissionController admission(config);

  EXPECT_EQ(admission.Admit(Batch()), AdmissionOutcome::kAdmitted);
  // The batch class cap binds even though global slots remain...
  EXPECT_EQ(admission.Admit(Batch()), AdmissionOutcome::kShedQueueFull);
  // ...and those remaining slots stay available to interactive traffic.
  EXPECT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);

  admission.Release(QueryClass::kBatch);
  admission.Release(QueryClass::kInteractive);
  admission.Release(QueryClass::kInteractive);
  EXPECT_EQ(admission.stats().running, 0);
}

TEST(Admission, BatchIsShedWhileTheBreakerIsOpen) {
  SimClock clock;
  CircuitBreaker breaker(BreakerConfig{.failure_threshold = 1}, &clock);
  AdmissionConfig config;
  config.max_concurrent = 4;
  AdmissionController admission(config);
  admission.set_circuit_breaker(&breaker);

  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Backend down: batch is refused outright, interactive still runs (the
  // cache can answer it).
  EXPECT_EQ(admission.Admit(Batch()), AdmissionOutcome::kShedBreakerOpen);
  EXPECT_EQ(admission.stats().shed_breaker_open, 1);
  EXPECT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);
  admission.Release(QueryClass::kInteractive);
}

TEST(Admission, DeadlineExpiresWhileQueued) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued_interactive = 4;
  AdmissionController admission(config);

  ASSERT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);

  ExecContext waiter;
  waiter.deadline = Deadline::AfterNanos(5'000'000);  // 5 ms behind a slot
  EXPECT_EQ(admission.Admit(waiter), AdmissionOutcome::kDeadlineExpiredInQueue);

  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.expired_in_queue, 1);
  EXPECT_EQ(stats.queued, 0);  // the expired waiter left the queue
  EXPECT_GE(stats.peak_queued, 1);
  admission.Release(QueryClass::kInteractive);
}

TEST(Admission, CancelledTokenUnblocksAQueuedWaiter) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued_interactive = 4;
  AdmissionController admission(config);

  ASSERT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);

  CancelToken token;
  ExecContext waiter;
  waiter.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::yield();
    token.Cancel();
  });
  // Blocks at cancel-poll granularity until the token fires.
  EXPECT_EQ(admission.Admit(waiter), AdmissionOutcome::kDeadlineExpiredInQueue);
  canceller.join();
  admission.Release(QueryClass::kInteractive);
}

TEST(Admission, ReleasedSlotIsHandedToAQueuedWaiter) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queued_interactive = 4;
  AdmissionController admission(config);

  ASSERT_EQ(admission.Admit(Interactive()), AdmissionOutcome::kAdmitted);

  AdmissionOutcome waiter_outcome = AdmissionOutcome::kShedQueueFull;
  std::thread waiter([&admission, &waiter_outcome] {
    waiter_outcome = admission.Admit(ExecContext{});  // no deadline: blocks
    admission.Release(QueryClass::kInteractive);
  });
  // Wait until the waiter is visibly queued, then free the slot.
  while (admission.stats().queued == 0) std::this_thread::yield();
  admission.Release(QueryClass::kInteractive);
  waiter.join();

  EXPECT_EQ(waiter_outcome, AdmissionOutcome::kAdmitted);
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

// ---------------------------------------------------------------------------
// Pool integration: the admission gate in front of ConcurrentQueryEngine.
// ---------------------------------------------------------------------------

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 31;
  config.cache_fraction = 0.5;
  config.cache_shards = 4;
  return config;
}

TEST(PoolAdmission, ShedQueryResolvesTypedWithNoWorkDone) {
  ExperimentConfig config = TinyConfig();
  Experiment exp(config);
  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 1;
  admission.max_queued_interactive = 0;
  pool.ConfigureAdmission(admission);

  // Occupy the only slot from the outside, as a long-running query would.
  ASSERT_EQ(pool.admission()->Admit(ExecContext{}),
            AdmissionOutcome::kAdmitted);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  ExecContext ctx;
  QueryStats stats;
  QueryResult result = pool.ExecuteQuery(q, &ctx, &stats);

  EXPECT_EQ(result.status, ResultStatus::kShedded);
  EXPECT_EQ(stats.status, ResultStatus::kShedded);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_TRUE(result.unavailable.empty());
  EXPECT_EQ(stats.backend_attempts, 0);
  EXPECT_EQ(exp.cache().num_entries(), 0u);  // truly no work
  EXPECT_EQ(pool.admission()->stats().shed_queue_full, 1);

  pool.admission()->Release(QueryClass::kInteractive);

  // With the slot free the same query is admitted and runs normally.
  QueryStats ok_stats;
  QueryResult ok = pool.ExecuteQuery(q, &ctx, &ok_stats);
  EXPECT_EQ(ok.status, ResultStatus::kOk);
  EXPECT_GT(ok_stats.queue_wait_ms, -1.0);  // populated (>= 0)
  EXPECT_EQ(pool.admission()->stats().running, 0);  // slot returned
}

TEST(PoolAdmission, DeadlineBurnedInQueueResolvesAsDeadlineExceeded) {
  ExperimentConfig config = TinyConfig();
  Experiment exp(config);
  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 1;
  admission.max_queued_interactive = 4;
  pool.ConfigureAdmission(admission);

  ASSERT_EQ(pool.admission()->Admit(ExecContext{}),
            AdmissionOutcome::kAdmitted);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(5'000'000);  // expires in the queue
  QueryStats stats;
  QueryResult result = pool.ExecuteQuery(q, &ctx, &stats);

  EXPECT_EQ(result.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kDeadlineExceeded);
  EXPECT_GT(stats.queue_wait_ms, 0.0);
  EXPECT_EQ(pool.admission()->stats().expired_in_queue, 1);
  pool.admission()->Release(QueryClass::kInteractive);
}

TEST(PoolAdmission, NullContextBypassesTheGate) {
  ExperimentConfig config = TinyConfig();
  Experiment exp(config);
  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 1;
  admission.max_queued_interactive = 0;
  pool.ConfigureAdmission(admission);

  // Occupy the slot; a legacy (no-context) call is NOT gated and still runs.
  ASSERT_EQ(pool.admission()->Admit(ExecContext{}),
            AdmissionOutcome::kAdmitted);
  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  QueryStats stats;
  QueryResult result = pool.ExecuteQuery(q, &stats);
  EXPECT_EQ(result.status, ResultStatus::kOk);
  pool.admission()->Release(QueryClass::kInteractive);
}

}  // namespace
}  // namespace aac
