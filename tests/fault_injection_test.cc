#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "backend/fault_injector.h"
#include "core/circuit_breaker.h"
#include "core/retry_policy.h"
#include "workload/experiment.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsCappedExponentialWithinJitterBounds) {
  RetryConfig config;
  config.initial_backoff_ns = 1'000'000;
  config.multiplier = 2.0;
  config.max_backoff_ns = 8'000'000;
  config.jitter = 0.25;
  config.seed = 3;
  RetryPolicy policy(config);
  for (int k = 1; k <= 8; ++k) {
    const double base = std::min(1'000'000.0 * std::pow(2.0, k - 1),
                                 8'000'000.0);
    const int64_t backoff = policy.BackoffNanos(k);
    EXPECT_GE(backoff, static_cast<int64_t>(base * 0.75) - 1) << "retry " << k;
    EXPECT_LE(backoff, static_cast<int64_t>(base * 1.25) + 1) << "retry " << k;
  }
}

TEST(RetryPolicy, ZeroJitterIsTheExactSchedule) {
  RetryConfig config;
  config.initial_backoff_ns = 1'000'000;
  config.multiplier = 2.0;
  config.max_backoff_ns = 64'000'000;
  config.jitter = 0.0;
  RetryPolicy policy(config);
  EXPECT_EQ(policy.BackoffNanos(1), 1'000'000);
  EXPECT_EQ(policy.BackoffNanos(2), 2'000'000);
  EXPECT_EQ(policy.BackoffNanos(3), 4'000'000);
  EXPECT_EQ(policy.BackoffNanos(7), 64'000'000);  // capped
  EXPECT_EQ(policy.BackoffNanos(8), 64'000'000);
}

TEST(RetryPolicy, SameSeedSameBackoffSequence) {
  RetryConfig config;
  config.jitter = 0.5;
  config.seed = 42;
  RetryPolicy a(config), b(config);
  for (int k = 1; k <= 20; ++k) {
    EXPECT_EQ(a.BackoffNanos(k), b.BackoffNanos(k)) << "retry " << k;
  }
  config.seed = 43;
  RetryPolicy c(config);
  config.seed = 42;
  RetryPolicy e(config);
  int differing = 0;
  for (int k = 1; k <= 20; ++k) {
    differing += (c.BackoffNanos(k) != e.BackoffNanos(k));
  }
  EXPECT_GT(differing, 0);
}

TEST(RetryPolicy, AllowRetryEnforcesAttemptAndDeadlineCaps) {
  RetryConfig config;
  config.max_attempts = 3;
  config.deadline_ns = 10'000'000;
  RetryPolicy policy(config);
  EXPECT_TRUE(policy.AllowRetry(1, 0));
  EXPECT_TRUE(policy.AllowRetry(2, 9'999'999));
  EXPECT_FALSE(policy.AllowRetry(3, 0));           // attempts exhausted
  EXPECT_FALSE(policy.AllowRetry(1, 10'000'000));  // deadline spent

  config.deadline_ns = 0;  // disabled: only the attempt cap applies
  RetryPolicy unbounded(config);
  EXPECT_TRUE(unbounded.AllowRetry(1, int64_t{1} << 60));
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config, &clock);

  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // resets the consecutive count
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);

  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1);

  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.stats().rejected, 2);
}

TEST(CircuitBreakerTest, OpenToHalfOpenToClosedOnCooldownAndProbes) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ns = 1'000'000;
  config.success_threshold = 2;
  CircuitBreaker breaker(config, &clock);

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  clock.Charge(999'999);  // one nano short of the cooldown
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Charge(1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);  // needs 2 successes
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().probes, 2);
  EXPECT_EQ(breaker.stats().closes, 1);
  EXPECT_EQ(breaker.stats().rejected, 0);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ns = 1'000'000;
  CircuitBreaker breaker(config, &clock);

  breaker.RecordFailure();
  clock.Charge(config.cooldown_ns);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().reopens, 1);
  EXPECT_FALSE(breaker.AllowRequest());

  // The reopen restarts the cooldown from the failure time.
  clock.Charge(config.cooldown_ns);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

// ---------------------------------------------------------------------------
// FaultInjectingBackend
// ---------------------------------------------------------------------------

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 8'000;
  config.strategy = StrategyKind::kVcmc;
  config.policy = PolicyKind::kTwoLevel;
  return config;
}

std::vector<ChunkId> AllChunks(const Experiment& exp, GroupById gb) {
  std::vector<ChunkId> chunks(
      static_cast<size_t>(exp.grid().NumChunks(gb)));
  std::iota(chunks.begin(), chunks.end(), ChunkId{0});
  return chunks;
}

TEST(FaultInjector, SameSeedYieldsSameFaultSchedule) {
  Experiment exp(SmallConfig());
  FaultConfig fc;
  fc.transient_error_rate = 0.3;
  fc.timeout_rate = 0.2;
  fc.partial_result_rate = 0.2;
  fc.latency_spike_rate = 0.1;
  fc.seed = 11;
  FaultInjectingBackend a(&exp.backend(), fc, nullptr);
  FaultInjectingBackend b(&exp.backend(), fc, nullptr);
  fc.seed = 12;
  FaultInjectingBackend other(&exp.backend(), fc, nullptr);

  const GroupById base = exp.lattice().base_id();
  const std::vector<ChunkId> chunks = AllChunks(exp, base);
  std::vector<BackendStatus> trace_a, trace_b, trace_other;
  for (int i = 0; i < 200; ++i) {
    trace_a.push_back(a.ExecuteChunkQuery(base, chunks).status);
    trace_b.push_back(b.ExecuteChunkQuery(base, chunks).status);
    trace_other.push_back(other.ExecuteChunkQuery(base, chunks).status);
  }
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_NE(trace_a, trace_other);
  EXPECT_EQ(a.stats().transient_errors, b.stats().transient_errors);
  EXPECT_EQ(a.stats().timeouts, b.stats().timeouts);
  EXPECT_EQ(a.stats().partials, b.stats().partials);
  EXPECT_EQ(a.stats().latency_spikes, b.stats().latency_spikes);
  EXPECT_EQ(a.stats().calls, 200);
  // With these rates every class should have fired at least once.
  EXPECT_GT(a.stats().transient_errors, 0);
  EXPECT_GT(a.stats().timeouts, 0);
  EXPECT_GT(a.stats().partials, 0);
  EXPECT_GT(a.stats().latency_spikes, 0);
  EXPECT_GT(a.stats().clean, 0);
}

TEST(FaultInjector, PartialResultsAreExactSubsetsOfTheRequest) {
  Experiment exp(SmallConfig());
  FaultConfig fc;
  fc.partial_result_rate = 1.0;
  fc.partial_keep_fraction = 0.5;
  fc.seed = 5;
  FaultInjectingBackend faulty(&exp.backend(), fc, nullptr);

  const GroupById base = exp.lattice().base_id();
  const std::vector<ChunkId> requested = AllChunks(exp, base);
  std::vector<ChunkData> want =
      exp.backend().ExecuteChunkQuery(base, requested).chunks;
  int partials = 0;
  for (int i = 0; i < 20; ++i) {
    BackendResult result = faulty.ExecuteChunkQuery(base, requested);
    if (result.status == BackendStatus::kTransientError) {
      EXPECT_TRUE(result.chunks.empty());  // empty keep-set degenerates
      continue;
    }
    ASSERT_TRUE(result.ok());
    if (result.status == BackendStatus::kPartial) {
      ++partials;
      EXPECT_LT(result.chunks.size(), requested.size());
    }
    for (ChunkData& got : result.chunks) {
      auto it = std::find_if(want.begin(), want.end(), [&](const ChunkData& w) {
        return w.chunk == got.chunk;
      });
      ASSERT_NE(it, want.end());
      EXPECT_TRUE(ChunkDataEquals(exp.schema().num_dims(), &got, &*it));
    }
  }
  EXPECT_GT(partials, 0);
}

TEST(FaultInjector, ChargesInjectedLatencyIntoTheSimClock) {
  Experiment exp(SmallConfig());
  BackendServer quiet(&exp.table(), BackendCostModel(), nullptr);
  const GroupById top = exp.lattice().top_id();

  SimClock clock;
  FaultConfig fc;
  fc.transient_error_rate = 1.0;
  fc.error_latency_ns = 7'000;
  FaultInjectingBackend errors(&quiet, fc, &clock);
  EXPECT_TRUE(errors.ExecuteChunkQuery(top, {0}).failed());
  EXPECT_EQ(clock.TotalNanos(), 7'000);

  SimClock clock2;
  fc = FaultConfig();
  fc.timeout_rate = 1.0;
  fc.timeout_ns = 9'000;
  FaultInjectingBackend timeouts(&quiet, fc, &clock2);
  EXPECT_EQ(timeouts.ExecuteChunkQuery(top, {0}).status,
            BackendStatus::kTimeout);
  EXPECT_EQ(clock2.TotalNanos(), 9'000);
}

// ---------------------------------------------------------------------------
// Engine-level degradation
// ---------------------------------------------------------------------------

TEST(FaultPath, RetryExhaustionDegradesInsteadOfAborting) {
  ExperimentConfig config = SmallConfig();
  config.faults.transient_error_rate = 1.0;  // the backend is down
  config.engine.retry.max_attempts = 3;
  Experiment exp(config);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &stats);

  EXPECT_EQ(result.status, ResultStatus::kDegradedPartial);
  EXPECT_FALSE(result.complete());
  EXPECT_TRUE(result.chunks.empty());  // cold cache, nothing computable
  EXPECT_EQ(static_cast<int64_t>(result.unavailable.size()),
            stats.chunks_requested);
  EXPECT_EQ(stats.backend_attempts, 3);
  EXPECT_EQ(stats.backend_retries, 2);
  // Typed reason: the attempt cap stopped the loop — not the breaker, not
  // a deadline.
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kAttemptsExhausted);
  EXPECT_EQ(stats.chunks_unavailable, stats.chunks_requested);
}

TEST(FaultPath, BreakerTripsMidQueryThenRejectsThenProbes) {
  ExperimentConfig config = SmallConfig();
  config.faults.transient_error_rate = 1.0;
  config.engine.circuit_breaker = true;
  config.engine.breaker.failure_threshold = 2;
  config.engine.retry.max_attempts = 5;
  Experiment exp(config);
  QueryEngine& engine = exp.engine();
  ASSERT_NE(engine.circuit_breaker(), nullptr);

  const Query q = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().top_id()));

  // First query: the second consecutive failure trips the breaker, which
  // cuts the retry loop short of max_attempts.
  QueryStats stats;
  QueryResult first = engine.ExecuteQuery(q, &stats);
  EXPECT_EQ(first.status, ResultStatus::kDegradedPartial);
  EXPECT_EQ(stats.backend_attempts, 2);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kBreakerTripped);
  EXPECT_EQ(engine.circuit_breaker()->state(), BreakerState::kOpen);
  EXPECT_EQ(engine.circuit_breaker()->stats().trips, 1);

  // While open, queries never reach the backend at all.
  QueryResult second = engine.ExecuteQuery(q, &stats);
  EXPECT_EQ(second.status, ResultStatus::kDegradedPartial);
  EXPECT_EQ(stats.backend_attempts, 0);
  EXPECT_EQ(stats.fetch_abort, FetchAbortReason::kBreakerOpen);
  EXPECT_GE(engine.circuit_breaker()->stats().rejected, 1);

  // After the cooldown a half-open probe is let through; with the backend
  // still down it fails and reopens the breaker.
  exp.sim_clock().Charge(config.engine.breaker.cooldown_ns);
  EXPECT_EQ(engine.circuit_breaker()->state(), BreakerState::kHalfOpen);
  QueryResult third = engine.ExecuteQuery(q, &stats);
  EXPECT_EQ(third.status, ResultStatus::kDegradedPartial);
  EXPECT_EQ(stats.backend_attempts, 1);  // the probe
  EXPECT_EQ(engine.circuit_breaker()->stats().reopens, 1);
  EXPECT_EQ(engine.circuit_breaker()->state(), BreakerState::kOpen);
}

// Fetches every base-level chunk from the (healthy) ground-truth server and
// inserts it, making the whole cube cache-computable.
void WarmBaseLevel(Experiment& exp) {
  const GroupById base = exp.lattice().base_id();
  for (ChunkData& data :
       exp.backend().ExecuteChunkQuery(base, AllChunks(exp, base)).chunks) {
    ASSERT_TRUE(exp.cache().Insert(
        data, exp.benefit().BackendChunkBenefit(base, data.chunk),
        ChunkSource::kBackend));
  }
}

TEST(FaultPath, OpenBreakerServesCacheComputableChunksDegradedComplete) {
  ExperimentConfig config = SmallConfig();
  config.cache_fraction = 1.5;  // room for the whole base level
  config.engine.circuit_breaker = true;
  Experiment exp(config);
  WarmBaseLevel(exp);

  // Trip the breaker directly: the backend is now presumed unreachable.
  for (int i = 0; i < config.engine.breaker.failure_threshold; ++i) {
    exp.engine().circuit_breaker()->RecordFailure();
  }
  ASSERT_EQ(exp.engine().circuit_breaker()->state(), BreakerState::kOpen);

  BackendServer ground_truth(&exp.table(), BackendCostModel(), nullptr);
  const GroupById top = exp.lattice().top_id();
  const Query q =
      Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(top));
  QueryStats stats;
  QueryResult result = exp.engine().ExecuteQuery(q, &stats);

  // Fully answered by in-cache aggregation, flagged as degraded, correct.
  EXPECT_EQ(result.status, ResultStatus::kDegradedComplete);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.backend_attempts, 0);
  std::vector<ChunkData> want =
      ground_truth.ExecuteChunkQuery(top, AllChunks(exp, top)).chunks;
  ASSERT_EQ(result.chunks.size(), want.size());
  for (ChunkData& got : result.chunks) {
    auto it = std::find_if(want.begin(), want.end(), [&](const ChunkData& w) {
      return w.chunk == got.chunk;
    });
    ASSERT_NE(it, want.end());
    EXPECT_TRUE(ChunkDataEquals(exp.schema().num_dims(), &got, &*it));
  }
}

TEST(FaultPath, BypassIsSuspendedWhileTheBreakerIsOpen) {
  ExperimentConfig config = SmallConfig();
  config.cache_fraction = 1.5;
  config.engine.circuit_breaker = true;
  config.engine.cost_based_bypass = true;
  // Make in-cache aggregation look absurdly slow so the optimizer would
  // bypass every computable chunk to the backend when it is trusted.
  config.engine.cache_aggregation_ns_per_tuple = 1e9;
  Experiment exp(config);
  WarmBaseLevel(exp);

  const GroupById top = exp.lattice().top_id();
  const Query q = Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(top));

  QueryStats stats;
  QueryResult trusted = exp.engine().ExecuteQuery(q, &stats);
  EXPECT_EQ(trusted.status, ResultStatus::kOk);
  EXPECT_GT(stats.chunks_bypassed, 0);
  EXPECT_GT(stats.backend_attempts, 0);
  // Drop the chunks the first query admitted, so the second finds the
  // cache as the first did.
  for (const ChunkData& c : trusted.chunks) {
    exp.cache().Remove(CacheKey{top, c.chunk});
  }

  for (int i = 0; i < config.engine.breaker.failure_threshold; ++i) {
    exp.engine().circuit_breaker()->RecordFailure();
  }
  ASSERT_EQ(exp.engine().circuit_breaker()->state(), BreakerState::kOpen);

  QueryResult degraded = exp.engine().ExecuteQuery(q, &stats);
  EXPECT_EQ(degraded.status, ResultStatus::kDegradedComplete);
  EXPECT_TRUE(degraded.complete());
  EXPECT_EQ(stats.chunks_bypassed, 0);  // no backend to bypass to
  EXPECT_EQ(stats.backend_attempts, 0);
  EXPECT_GT(stats.chunks_aggregated, 0);
  ASSERT_EQ(degraded.chunks.size(), trusted.chunks.size());
  for (ChunkData& got : degraded.chunks) {
    auto it = std::find_if(
        trusted.chunks.begin(), trusted.chunks.end(),
        [&](const ChunkData& w) { return w.chunk == got.chunk; });
    ASSERT_NE(it, trusted.chunks.end());
    EXPECT_TRUE(ChunkDataEquals(exp.schema().num_dims(), &got, &*it));
  }
}

TEST(FaultPath, HealthyBackendAlwaysReportsOk) {
  ExperimentConfig config = SmallConfig();
  config.engine.circuit_breaker = true;  // armed but never needed
  Experiment exp(config);
  QueryStreamGenerator gen(&exp.schema(), QueryStreamConfig());
  std::vector<QueryStats> per_query;
  WorkloadTotals totals =
      RunWorkload(exp.engine(), gen.Generate(30), &per_query);
  EXPECT_EQ(totals.queries, 30);
  EXPECT_EQ(totals.degraded_complete, 0);
  EXPECT_EQ(totals.degraded_partial, 0);
  EXPECT_EQ(totals.chunks_unavailable, 0);
  EXPECT_EQ(totals.backend_retries, 0);
  EXPECT_EQ(totals.breaker_rejected, 0);
  for (const QueryStats& s : per_query) {
    EXPECT_EQ(s.status, ResultStatus::kOk);
  }
  EXPECT_EQ(exp.engine().circuit_breaker()->state(), BreakerState::kClosed);
  EXPECT_EQ(exp.engine().circuit_breaker()->stats().trips, 0);
}

// ---------------------------------------------------------------------------
// Correctness and determinism under a lossy backend
// ---------------------------------------------------------------------------

// Answers under injected faults must never be wrong — only missing. Every
// chunk the engine does return must equal the healthy backend's value, and
// returned + unavailable must exactly cover the request.
TEST(FaultPath, ReturnedChunksMatchGroundTruthUnderFaults) {
  ExperimentConfig config = SmallConfig();
  config.faults.transient_error_rate = 0.45;
  config.faults.timeout_rate = 0.15;
  config.faults.partial_result_rate = 0.2;
  config.faults.seed = 23;
  config.engine.retry.max_attempts = 2;  // little headroom: some queries fail
  config.engine.circuit_breaker = true;
  config.engine.breaker.failure_threshold = 3;
  config.engine.breaker.cooldown_ns = 100'000'000;
  Experiment exp(config);
  BackendServer ground_truth(&exp.table(), BackendCostModel(), nullptr);

  QueryStreamConfig stream_config;
  stream_config.seed = 29;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  int degraded = 0;
  for (const QueryStreamEntry& entry : gen.Generate(40)) {
    QueryResult result = exp.engine().ExecuteQuery(entry.query, nullptr);
    degraded += (result.status != ResultStatus::kOk);

    const GroupById gb = exp.lattice().IdOf(entry.query.level);
    const std::vector<ChunkId> requested =
        ChunksForQuery(exp.grid(), entry.query);
    std::vector<ChunkData> want =
        ground_truth.ExecuteChunkQuery(gb, requested).chunks;

    // returned ∪ unavailable == requested, with no overlap.
    std::vector<ChunkId> covered = result.unavailable;
    for (const ChunkData& data : result.chunks) covered.push_back(data.chunk);
    std::vector<ChunkId> expected = requested;
    std::sort(covered.begin(), covered.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(covered, expected) << entry.query.ToString(exp.schema());

    for (ChunkData& got : result.chunks) {
      auto it =
          std::find_if(want.begin(), want.end(), [&](const ChunkData& w) {
            return w.chunk == got.chunk;
          });
      ASSERT_NE(it, want.end());
      ASSERT_TRUE(ChunkDataEquals(exp.schema().num_dims(), &got, &*it))
          << "chunk " << got.chunk << " of "
          << entry.query.ToString(exp.schema());
    }
  }
  // The fault rates are high enough that degradation must have occurred —
  // otherwise this test exercised nothing.
  EXPECT_GT(degraded, 0);
}

// One query's observable fault-path outcome, for trace comparisons.
using TraceRow = std::tuple<int64_t, int64_t, int, int, int64_t,
                            int64_t, int64_t>;

TraceRow Row(const QueryStats& s) {
  return TraceRow(s.backend_attempts, s.backend_retries,
                  static_cast<int>(s.fetch_abort), static_cast<int>(s.status),
                  s.chunks_unavailable, s.chunks_backend, s.chunks_requested);
}

// The acceptance bar for reproducibility: identical seeds must yield
// bit-identical retry and breaker traces across two fresh runs.
TEST(FaultPath, SameSeedYieldsIdenticalRetryAndBreakerTraces) {
  ExperimentConfig config = SmallConfig();
  config.faults.transient_error_rate = 0.35;
  config.faults.timeout_rate = 0.1;
  config.faults.partial_result_rate = 0.15;
  config.faults.seed = 7;
  config.engine.circuit_breaker = true;
  config.engine.breaker.failure_threshold = 2;
  config.engine.breaker.cooldown_ns = 200'000'000;

  auto run = [&config]() {
    Experiment exp(config);
    QueryStreamConfig stream_config;
    stream_config.seed = 31;
    QueryStreamGenerator gen(&exp.schema(), stream_config);
    std::vector<QueryStats> per_query;
    RunWorkload(exp.engine(), gen.Generate(50), &per_query);
    std::vector<TraceRow> trace;
    for (const QueryStats& s : per_query) trace.push_back(Row(s));
    const BreakerStats& b = exp.engine().circuit_breaker()->stats();
    const FaultStats& f = exp.fault_injector()->stats();
    return std::make_tuple(
        trace, b.trips, b.reopens, b.closes, b.probes, b.rejected, f.calls,
        f.transient_errors, f.timeouts, f.partials, f.clean,
        exp.sim_clock().TotalNanos());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // And the trace is non-trivial: the breaker actually tripped.
  EXPECT_GT(std::get<1>(first), 0);
  EXPECT_GT(std::get<5>(first), 0);  // some calls were rejected while open
}

// The headline robustness claim: a Zipf APB-1 session against a backend
// that fails 30% of its calls completes with no aborts, every answered
// chunk bit-identical to ground truth, and a warm complete-hit rate at
// least as good as the fault-free run (retries refill the cache, and
// degraded cache-only answers still count their hits).
TEST(FaultPath, ThirtyPercentFaultWorkloadStaysCorrectAndWarm) {
  ExperimentConfig config;
  config.data.num_tuples = 15'000;
  config.strategy = StrategyKind::kVcmc;
  config.policy = PolicyKind::kTwoLevel;
  config.preload = true;
  config.engine.boost_groups = true;
  config.engine.retry.max_attempts = 6;  // ~0.1% residual failure at 30%
  config.engine.circuit_breaker = true;

  ExperimentConfig faulty_config = config;
  faulty_config.faults.transient_error_rate = 0.3;
  faulty_config.faults.seed = 13;

  Experiment clean(config);
  Experiment faulty(faulty_config);
  BackendServer ground_truth(&faulty.table(), BackendCostModel(), nullptr);

  QueryStreamConfig stream_config;
  stream_config.seed = 17;
  QueryStreamGenerator clean_gen(&clean.schema(), stream_config);
  QueryStreamGenerator faulty_gen(&faulty.schema(), stream_config);
  const std::vector<QueryStreamEntry> clean_stream = clean_gen.Generate(60);
  const std::vector<QueryStreamEntry> faulty_stream = faulty_gen.Generate(60);

  int clean_warm_hits = 0, faulty_warm_hits = 0;
  for (size_t i = 0; i < clean_stream.size(); ++i) {
    QueryStats clean_stats, faulty_stats;
    clean.engine().ExecuteQuery(clean_stream[i].query, &clean_stats);
    QueryResult got =
        faulty.engine().ExecuteQuery(faulty_stream[i].query, &faulty_stats);
    if (i >= clean_stream.size() / 2) {
      clean_warm_hits += clean_stats.complete_hit;
      faulty_warm_hits += faulty_stats.complete_hit;
    }

    // Everything the degraded engine answers is exactly right.
    const Query& q = faulty_stream[i].query;
    const GroupById gb = faulty.lattice().IdOf(q.level);
    std::vector<ChunkData> want =
        ground_truth.ExecuteChunkQuery(gb, ChunksForQuery(faulty.grid(), q))
            .chunks;
    for (ChunkData& data : got.chunks) {
      auto it =
          std::find_if(want.begin(), want.end(), [&](const ChunkData& w) {
            return w.chunk == data.chunk;
          });
      ASSERT_NE(it, want.end());
      ASSERT_TRUE(ChunkDataEquals(faulty.schema().num_dims(), &data, &*it))
          << "query " << i << ": " << q.ToString(faulty.schema());
    }
  }
  // Retries absorbed the 30% fault rate: the warm-cache hit rate did not
  // regress relative to the fault-free session.
  EXPECT_GE(faulty_warm_hits, clean_warm_hits);
  EXPECT_GT(faulty_warm_hits, 0);
  // The injector really was injecting at ~30%.
  const FaultStats& f = faulty.fault_injector()->stats();
  EXPECT_GT(f.transient_errors, 0);
  EXPECT_GT(f.calls, f.transient_errors);
}

}  // namespace
}  // namespace aac
