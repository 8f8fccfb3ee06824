#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/warm_tier.h"
#include "core/circuit_breaker.h"
#include "core/concurrent_engine.h"
#include "storage/chunk_data.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "workload/experiment.h"

namespace aac {
namespace {

// The satellite-3 storm: many threads, mixed deadlines and classes, a
// flapping breaker (fault injection keeps tripping and recovering it) and an
// admission gate at tight capacity — the full overload surface at once. The
// contract under test:
//   * every query resolves with a typed status — nothing hangs, nothing
//     crashes, no untyped failure mode;
//   * aborted folds and detached single-flight waits tear nothing: once the
//     storm drains, the cache's structural invariants hold and not a single
//     pinned chunk is leaked;
//   * the admission ledger and the per-query statuses tell the same story.
// Run under TSan via the "concurrency" ctest label.
TEST(OverloadStorm, MixedDeadlineStormResolvesEverythingAndLeaksNothing) {
  ExperimentConfig config;
  config.data.num_tuples = 30'000;
  config.data.seed = 41;
  config.cache_fraction = 0.4;  // small cache: constant eviction pressure
  config.cache_shards = 16;
  config.faults.transient_error_rate = 0.25;  // the backend flaps
  config.engine.retry.max_attempts = 2;
  config.engine.retry.initial_backoff_ns = 100'000;
  config.engine.retry.deadline_ns = 5'000'000;
  // The faults flip the engine's breaker open and closed throughout the
  // storm; admission sheds batch work while it is open.
  config.engine.circuit_breaker = true;
  config.engine.breaker = BreakerConfig{.failure_threshold = 3,
                                        .cooldown_ns = 3'000'000,
                                        .success_threshold = 1};
  // Tiered: constant eviction pressure demotes into a compressed warm
  // tier, and deadline-laden probes race promotions throughout the storm.
  config.warm_fraction = 0.5;
  Experiment exp(config);
  ASSERT_NE(exp.warm_tier(), nullptr);

  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 4;  // 8 threads against 4 slots: always queued
  admission.max_concurrent_batch = 1;
  admission.max_queued_interactive = 3;
  admission.max_queued_batch = 1;
  pool.ConfigureAdmission(admission);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 50;
  std::atomic<int64_t> ok{0}, degraded{0}, deadline_exceeded{0}, shedded{0};
  std::atomic<bool> contract_violated{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(1000 + t));
      const Lattice& lattice = exp.lattice();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb =
            static_cast<GroupById>(rng.Uniform(
                static_cast<uint64_t>(lattice.num_groupbys())));
        const Query q = Query::WholeLevel(exp.schema(), lattice.LevelOf(gb));

        ExecContext ctx;
        if (t % 4 == 0) ctx.query_class = QueryClass::kBatch;
        // Mixed budgets: hopeless (most expire mid-flight), tight (some
        // make it), generous (almost all make it), unlimited.
        switch (rng.Uniform(4)) {
          case 0:
            ctx.deadline = Deadline::AfterNanos(50'000);
            break;
          case 1:
            ctx.deadline = Deadline::AfterNanos(2'000'000);
            break;
          case 2:
            ctx.deadline = Deadline::AfterNanos(200'000'000);
            break;
          default:
            break;  // no deadline
        }

        QueryStats stats;
        QueryResult result = pool.ExecuteQuery(q, &ctx, &stats);
        switch (result.status) {
          case ResultStatus::kOk:
            ++ok;
            if (!result.unavailable.empty()) contract_violated = true;
            break;
          case ResultStatus::kDegradedComplete:
          case ResultStatus::kDegradedPartial:
            ++degraded;
            break;
          case ResultStatus::kDeadlineExceeded:
            ++deadline_exceeded;
            break;
          case ResultStatus::kShedded:
            ++shedded;
            if (!result.chunks.empty() || !result.unavailable.empty()) {
              contract_violated = true;
            }
            break;
        }
        if (stats.status != result.status) contract_violated = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(contract_violated.load());

  // Every query resolved into exactly one bucket.
  const int64_t total = ok + degraded + deadline_exceeded + shedded;
  EXPECT_EQ(total, static_cast<int64_t>(kThreads) * kQueriesPerThread);

  // No torn cache state: structural invariants hold and no pinned-chunk
  // leaks survive the storm (an aborted fold that forgot an Unpin would
  // show up here).
  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_EQ(exp.cache().TotalPinCount(), 0);

  // The demotion ledger survived the storm: bytes that left the hot budget
  // were handed to the warm tier atomically — every demotion became
  // exactly one offer, both tiers are structurally sound, and the hot tier
  // never exceeded its budget.
  const CacheStats hot = exp.cache().stats();
  const WarmTierStats warm = exp.warm_tier()->stats();
  EXPECT_GT(hot.demotions, 0);
  EXPECT_EQ(hot.demotions, warm.offers);
  EXPECT_LE(exp.cache().bytes_used(), exp.cache_bytes());
  EXPECT_LE(exp.warm_tier()->bytes_used(),
            exp.warm_tier()->capacity_bytes());
  EXPECT_TRUE(exp.warm_tier()->ValidateInvariants());

  // The admission ledger is drained and consistent with what the threads
  // observed: every query either passed the gate or was typed out at it.
  const AdmissionStats gate = pool.admission()->stats();
  EXPECT_EQ(gate.running, 0);
  EXPECT_EQ(gate.queued, 0);
  EXPECT_EQ(gate.admitted + gate.shed_queue_full + gate.shed_breaker_open +
                gate.expired_in_queue,
            total);
  EXPECT_EQ(gate.shed_queue_full + gate.shed_breaker_open, shedded.load());
  // Only admitted queries ever borrowed an engine.
  EXPECT_EQ(pool.queries_executed(), gate.admitted);

  // The storm actually exercised the overload paths it claims to cover.
  EXPECT_GT(deadline_exceeded.load(), 0);
  EXPECT_GT(gate.admitted, 0);
}

// Same shape, healthy backend, no faults: a pure capacity storm. With every
// query unlimited-deadline nothing may be lost to timeouts — the gate may
// shed, but everything admitted must complete and answers stay available.
TEST(OverloadStorm, CapacityOnlyStormShedsButNeverTimesOut) {
  ExperimentConfig config;
  config.data.num_tuples = 30'000;
  config.data.seed = 43;
  config.cache_fraction = 0.6;
  config.cache_shards = 16;
  Experiment exp(config);

  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 2;
  admission.max_queued_interactive = 2;
  pool.ConfigureAdmission(admission);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 30;
  std::atomic<int64_t> completed{0}, shedded{0}, other{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(2000 + t));
      const Lattice& lattice = exp.lattice();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb =
            static_cast<GroupById>(rng.Uniform(
                static_cast<uint64_t>(lattice.num_groupbys())));
        const Query q = Query::WholeLevel(exp.schema(), lattice.LevelOf(gb));
        ExecContext ctx;  // unlimited: queue waits, never expires
        QueryStats stats;
        QueryResult result = pool.ExecuteQuery(q, &ctx, &stats);
        if (result.status == ResultStatus::kOk) {
          ++completed;
        } else if (result.status == ResultStatus::kShedded) {
          ++shedded;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(other.load(), 0);  // healthy backend + no deadline: ok or shed
  EXPECT_EQ(completed + shedded,
            static_cast<int64_t>(kThreads) * kQueriesPerThread);
  EXPECT_GT(completed.load(), 0);
  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_EQ(exp.cache().TotalPinCount(), 0);
  EXPECT_EQ(pool.admission()->stats().running, 0);
}

// The large-fold storm: whole-level queries fold many chunks, tight
// deadlines keep firing inside those folds, and batch and interactive
// classes compete for admission. The contract: a cancelled fold tears
// nothing — no torn chunk reaches the cache, no thread's arena keeps a dead
// fold's state — so after the storm the engine still answers the biggest
// query bit-identically to a freshly built, never-stormed stack.
TEST(OverloadStorm, LargeFoldStormCancelsCleanlyAndStaysBitIdentical) {
  ExperimentConfig config;
  config.data.num_tuples = 30'000;
  config.data.seed = 47;
  config.cache_fraction = 0.5;
  config.cache_shards = 16;
  Experiment exp(config);

  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  AdmissionConfig admission;
  admission.max_concurrent = 4;
  admission.max_queued_interactive = 4;
  admission.max_queued_batch = 2;
  pool.ConfigureAdmission(admission);

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 30;
  std::atomic<int64_t> resolved{0};
  std::atomic<bool> contract_violated{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(3000 + t));
      const Lattice& lattice = exp.lattice();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb =
            static_cast<GroupById>(rng.Uniform(
                static_cast<uint64_t>(lattice.num_groupbys())));
        const Query q = Query::WholeLevel(exp.schema(), lattice.LevelOf(gb));
        ExecContext ctx;
        if (t % 3 == 0) ctx.query_class = QueryClass::kBatch;
        // Hopeless, tight and unlimited budgets: the tight ones expire
        // inside folds, the unlimited ones verify the machinery still
        // works between cancellations.
        switch (rng.Uniform(3)) {
          case 0:
            ctx.deadline = Deadline::AfterNanos(50'000);
            break;
          case 1:
            ctx.deadline = Deadline::AfterNanos(5'000'000);
            break;
          default:
            break;
        }
        QueryStats stats;
        QueryResult result = pool.ExecuteQuery(q, &ctx, &stats);
        if (stats.status != result.status) contract_violated = true;
        ++resolved;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(contract_violated.load());
  EXPECT_EQ(resolved.load(), static_cast<int64_t>(kThreads) * kQueriesPerThread);

  // No torn state: structural invariants hold, nothing stays pinned.
  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_EQ(exp.cache().TotalPinCount(), 0);
  EXPECT_EQ(pool.admission()->stats().running, 0);

  // Bit-identity against a never-stormed stack: the same config (and data
  // seed) built fresh must answer the most detailed whole-level query with
  // exactly the same chunks — any torn chunk an aborted fold leaked into
  // the shared cache would surface here.
  const Query verify =
      Query::WholeLevel(exp.schema(),
                        exp.lattice().LevelOf(exp.lattice().base_id()));
  QueryStats pool_stats;
  QueryResult got = pool.ExecuteQuery(verify, nullptr, &pool_stats);
  ASSERT_EQ(got.status, ResultStatus::kOk);
  ASSERT_TRUE(got.complete());

  Experiment fresh(config);
  std::unique_ptr<QueryEngine> fresh_engine = fresh.NewEngine();
  QueryStats fresh_stats;
  QueryResult want = fresh_engine->ExecuteQuery(verify, &fresh_stats);
  ASSERT_EQ(want.status, ResultStatus::kOk);

  auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
    return a.gb != b.gb ? a.gb < b.gb : a.chunk < b.chunk;
  };
  std::sort(got.chunks.begin(), got.chunks.end(), by_chunk);
  std::sort(want.chunks.begin(), want.chunks.end(), by_chunk);
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  const int nd = exp.schema().num_dims();
  for (size_t i = 0; i < got.chunks.size(); ++i) {
    EXPECT_TRUE(ChunkDataEquals(nd, &got.chunks[i], &want.chunks[i], 0.0))
        << "chunk " << i << " differs after the storm";
  }
}

}  // namespace
}  // namespace aac
