#include <gtest/gtest.h>

#include <cstdint>

#include "core/retry_policy.h"
#include "util/deadline.h"
#include "workload/experiment.h"

namespace aac {
namespace {

// ---------------------------------------------------------------------------
// ClampedBackoffNanos — the deadline-aware backoff (the seed slept its full
// backoff step even when the remaining budget was smaller).
// ---------------------------------------------------------------------------

TEST(ClampedBackoff, EqualsPlainBackoffWhenBudgetIsAmple) {
  RetryConfig config;
  config.jitter = 0.3;
  config.seed = 11;
  RetryPolicy plain(config), clamped(config);
  for (int k = 1; k <= 10; ++k) {
    EXPECT_EQ(clamped.ClampedBackoffNanos(k, INT64_C(1) << 60),
              plain.BackoffNanos(k))
        << "retry " << k;
  }
}

TEST(ClampedBackoff, ClampsToRemainingBudget) {
  RetryConfig config;
  config.initial_backoff_ns = 10'000'000;
  config.multiplier = 2.0;
  config.max_backoff_ns = 80'000'000;
  config.jitter = 0.0;  // exact schedule: 10, 20, 40, 80 ms
  RetryPolicy policy(config);
  EXPECT_EQ(policy.ClampedBackoffNanos(1, 3'000'000), 3'000'000);
  EXPECT_EQ(policy.ClampedBackoffNanos(2, 20'000'000), 20'000'000);  // exact
  EXPECT_EQ(policy.ClampedBackoffNanos(3, 1'000'000'000), 40'000'000);
}

TEST(ClampedBackoff, NoBudgetMeansZero) {
  RetryPolicy policy(RetryConfig{});
  EXPECT_EQ(policy.ClampedBackoffNanos(1, 0), 0);
  EXPECT_EQ(policy.ClampedBackoffNanos(2, -5), 0);
}

// The boundary that matters for reproducibility: clamping must consume
// exactly one jitter draw, like the unclamped call, so the downstream
// schedule stays seed-deterministic no matter how often the clamp fired.
TEST(ClampedBackoff, ClampConsumesOneJitterDrawKeepingSeedDeterminism) {
  RetryConfig config;
  config.jitter = 0.4;
  config.seed = 99;
  RetryPolicy a(config), b(config);
  // a: clamped draws (tiny budget); b: unclamped draws.
  EXPECT_LE(a.ClampedBackoffNanos(1, 10), 10);
  b.BackoffNanos(1);
  EXPECT_LE(a.ClampedBackoffNanos(2, 1), 1);
  b.BackoffNanos(2);
  // After the same number of draws, the streams must be aligned again.
  for (int k = 3; k <= 12; ++k) {
    EXPECT_EQ(a.BackoffNanos(k), b.BackoffNanos(k)) << "retry " << k;
  }
}

// ---------------------------------------------------------------------------
// Engine integration: the fetch loop never sleeps past the query deadline.
// ---------------------------------------------------------------------------

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 17;
  config.cache_fraction = 0.5;
  return config;
}

TEST(ClampedBackoff, FetchLoopAbortsInsteadOfOversleepingQueryDeadline) {
  ExperimentConfig config = TinyConfig();
  config.faults.transient_error_rate = 1.0;  // backend down
  config.engine.retry.max_attempts = 10;
  config.engine.retry.deadline_ns = INT64_C(3'600'000'000'000);  // no cap
  config.engine.retry.initial_backoff_ns = 50'000'000;  // 50 ms >> budget
  config.engine.retry.jitter = 0.0;
  Experiment exp(config);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  // Budget far below one backoff step; the first failure's backoff must be
  // clamped away (abort) rather than slept/charged in full.
  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(20'000'000);
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &ctx, &stats);

  EXPECT_EQ(result.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kDeadlineExceeded);
  EXPECT_EQ(stats.backend_attempts, 1);  // no retry fit in the budget
  // The loop charged only the failed attempt, never the 50 ms backoff.
  EXPECT_LT(stats.backend_ms, 50.0);
  EXPECT_EQ(static_cast<int64_t>(result.unavailable.size()),
            stats.chunks_requested);
}

TEST(ClampedBackoff, RetryBudgetStillBoundsTheLoopWithoutQueryDeadline) {
  ExperimentConfig config = TinyConfig();
  config.faults.transient_error_rate = 1.0;
  config.engine.retry.max_attempts = 10;
  config.engine.retry.initial_backoff_ns = 40'000'000;
  config.engine.retry.jitter = 0.0;
  config.engine.retry.deadline_ns = 50'000'000;  // fits ~1 backoff
  Experiment exp(config);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &stats);

  EXPECT_EQ(result.status, ResultStatus::kDegradedPartial);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kRetryBudgetExhausted);
  // Total simulated spend stays within (deadline + one attempt's latency).
  EXPECT_LT(stats.backend_ms, 200.0);
}

}  // namespace
}  // namespace aac
