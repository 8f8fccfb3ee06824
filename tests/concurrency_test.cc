// Concurrency suite (ctest label "concurrency"; tools/check.sh runs it
// under ThreadSanitizer): sharded-cache stress, single-flight coalescing,
// parallel-runner determinism, and backend-latency attribution.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "backend/fault_injector.h"
#include "cache/chunk_cache.h"
#include "cache/replacement.h"
#include "cache/single_flight.h"
#include "core/concurrent_engine.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "workload/parallel_runner.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

ChunkData MakeChunk(GroupById gb, ChunkId chunk, int tuples) {
  ChunkData d;
  d.gb = gb;
  d.chunk = chunk;
  for (int i = 0; i < tuples; ++i) {
    Cell c;
    c.values[0] = i;
    InitCellAggregates(c, 1.0);
    d.cells.push_back(c);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Sharded-cache stress: mixed inserts, reads, boosts, removes and pinned
// reads from several threads, then a full structural audit.
// ---------------------------------------------------------------------------

TEST(CacheConcurrencyTest, MixedOpsStressPreservesInvariants) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr GroupById kSharedGbs = 4;  // all threads hit these
  BenefitPolicy policy;
  ChunkCache cache(4000, 10, &policy, /*num_shards=*/8);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      // Pin and Remove only touch this thread's private group-by: a pinned
      // entry must never be Removed, and that contract is the caller's.
      const GroupById own_gb = kSharedGbs + static_cast<GroupById>(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const double op = rng.UniformDouble();
        const GroupById gb = static_cast<GroupById>(rng.Uniform(kSharedGbs));
        const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(24));
        if (op < 0.4) {
          const int tuples = 1 + static_cast<int>(rng.Uniform(8));
          cache.Insert(MakeChunk(gb, chunk, tuples),
                       static_cast<double>(rng.Uniform(100)),
                       rng.Bernoulli(0.5) ? ChunkSource::kBackend
                                          : ChunkSource::kCacheComputed);
        } else if (op < 0.6) {
          ChunkData copy;
          if (cache.GetCopy({gb, chunk}, &copy)) {
            // The copy must be internally consistent even if the entry is
            // concurrently replaced or evicted.
            ASSERT_EQ(copy.gb, gb);
            ASSERT_EQ(copy.chunk, chunk);
          }
        } else if (op < 0.7) {
          cache.Boost({gb, chunk}, rng.UniformDouble() * 100.0);
        } else if (op < 0.8) {
          cache.Contains({gb, chunk});
        } else if (op < 0.9) {
          cache.Insert(MakeChunk(own_gb, chunk, 2),
                       static_cast<double>(rng.Uniform(100)),
                       ChunkSource::kBackend);
          const ChunkData* pinned = cache.GetPinned({own_gb, chunk});
          if (pinned != nullptr) {
            ASSERT_EQ(pinned->gb, own_gb);
            cache.Unpin({own_gb, chunk});
          }
        } else {
          cache.Remove({own_gb, chunk});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(cache.ValidateInvariants());
  // Accounting adds up after the storm.
  int64_t bytes = 0;
  size_t entries = 0;
  cache.ForEach([&](const CacheEntryInfo& info) {
    bytes += info.bytes;
    ++entries;
  });
  EXPECT_EQ(bytes, cache.bytes_used());
  EXPECT_EQ(entries, cache.num_entries());
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts - stats.evictions,
            static_cast<int64_t>(cache.num_entries()));
}

TEST(CacheConcurrencyTest, ConcurrentReplaceInPlaceKeepsOneEntry) {
  // Hammer one key with re-inserts of different sizes from all threads
  // while readers copy it: exactly one entry must remain, with coherent
  // data and accounting.
  BenefitPolicy policy;
  ChunkCache cache(1000, 10, &policy, /*num_shards=*/4);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 101);
      for (int i = 0; i < 2000; ++i) {
        const int tuples = 1 + static_cast<int>(rng.Uniform(9));
        cache.Insert(MakeChunk(7, 3, tuples), 1.0, ChunkSource::kBackend);
        ChunkData copy;
        if (cache.GetCopy({7, 3}, &copy)) {
          ASSERT_EQ(copy.LogicalBytes(10),
                    static_cast<int64_t>(copy.cells.size()) * 10);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_TRUE(cache.ValidateInvariants());
  const ChunkData* data = cache.Peek({7, 3});
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(cache.bytes_used(), data->LogicalBytes(10));
}

// ---------------------------------------------------------------------------
// Single-flight coalescing.
// ---------------------------------------------------------------------------

TEST(SingleFlightTest, ExactlyOneLeaderAndFollowersGetPublishedData) {
  constexpr int kThreads = 6;
  SingleFlight<ChunkData> sf;
  std::atomic<int> leaders{0};
  std::atomic<int> followers_ok{0};
  std::atomic<int> arrived{0};
  const CacheKey key{2, 5};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::shared_ptr<SingleFlight<ChunkData>::Slot> slot = sf.JoinOrLead(key);
      // Barrier: everyone joins the flight before the leader publishes,
      // otherwise a late thread would simply start (and lead) a new one.
      ++arrived;
      while (arrived.load() < kThreads) std::this_thread::yield();
      if (slot == nullptr) {
        ++leaders;
        sf.Publish(key, MakeChunk(2, 5, 4));
      } else {
        ChunkData data;
        if (sf.Await(*slot, &data) && data.tuple_count() == 4) ++followers_ok;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(followers_ok.load(), kThreads - 1);
  EXPECT_EQ(sf.coalesced(), kThreads - 1);
  // The flight is over: the next caller leads again.
  EXPECT_EQ(sf.JoinOrLead(key), nullptr);
  sf.Fail(key);
}

TEST(SingleFlightTest, FailedFlightWakesFollowersEmptyHanded) {
  SingleFlight<ChunkData> sf;
  const CacheKey key{1, 1};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);  // this test leads
  std::shared_ptr<SingleFlight<ChunkData>::Slot> slot = sf.JoinOrLead(key);
  ASSERT_NE(slot, nullptr);
  std::thread follower([&] {
    ChunkData data;
    EXPECT_FALSE(sf.Await(*slot, &data));
  });
  sf.Fail(key);
  follower.join();
  EXPECT_EQ(sf.coalesced(), 0);
}

TEST(SingleFlightTest, DistinctKeysAreIndependentFlights) {
  SingleFlight<ChunkData> sf;
  EXPECT_EQ(sf.JoinOrLead({1, 1}), nullptr);
  EXPECT_EQ(sf.JoinOrLead({1, 2}), nullptr);  // different chunk: own flight
  EXPECT_NE(sf.JoinOrLead({1, 1}), nullptr);
  sf.Publish({1, 1}, MakeChunk(1, 1, 1));
  sf.Fail({1, 2});
}

// A published value that counts its copies, to see what Publish stores.
struct CopyCounted {
  int payload = 0;
  std::atomic<int>* copies = nullptr;

  CopyCounted() = default;
  CopyCounted(int p, std::atomic<int>* c) : payload(p), copies(c) {}
  CopyCounted(const CopyCounted& other)
      : payload(other.payload), copies(other.copies) {
    if (copies != nullptr) ++*copies;
  }
  CopyCounted& operator=(const CopyCounted& other) {
    payload = other.payload;
    copies = other.copies;
    if (copies != nullptr) ++*copies;
    return *this;
  }
};

TEST(SingleFlightTest, PublishWithNoFollowerCopiesNothing) {
  SingleFlight<CopyCounted> sf;
  std::atomic<int> copies{0};
  const CacheKey key{3, 7};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);
  sf.Publish(key, CopyCounted(9, &copies));
  EXPECT_EQ(copies.load(), 0);
  EXPECT_EQ(sf.in_flight(), 0u);
}

TEST(SingleFlightTest, FollowerJoinedBeforePublishReceivesTheValue) {
  SingleFlight<CopyCounted> sf;
  std::atomic<int> copies{0};
  const CacheKey key{3, 8};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);  // this test leads
  std::shared_ptr<SingleFlight<CopyCounted>::Slot> slot = sf.JoinOrLead(key);
  ASSERT_NE(slot, nullptr);
  CopyCounted got;
  std::thread follower([&] { EXPECT_TRUE(sf.Await(*slot, &got)); });
  sf.Publish(key, CopyCounted(9, &copies));
  follower.join();
  EXPECT_EQ(got.payload, 9);
  EXPECT_EQ(copies.load(), 2);  // into the slot, then out to the follower
  EXPECT_EQ(sf.coalesced(), 1);
}

// ---------------------------------------------------------------------------
// Engine-level tests over a shared sharded cache.
// ---------------------------------------------------------------------------

constexpr int64_t kBigCache = 1'000'000;

struct EngineRig {
  TestEnv env;
  std::unique_ptr<VcmcStrategy> strategy;
  std::unique_ptr<ConcurrentQueryEngine> concurrent;
};

EngineRig MakeRig(int num_shards) {
  EngineRig rig;
  rig.env = MakeTestEnv(MakeSmallCube(), 0.7, 83, kBigCache,
                        /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                        num_shards);
  rig.strategy = std::make_unique<VcmcStrategy>(rig.env.cube.grid.get(),
                                                rig.env.cache.get(),
                                                rig.env.size_model.get());
  rig.env.cache->AddListener(rig.strategy->listener());
  TestEnv* env = &rig.env;
  VcmcStrategy* strategy = rig.strategy.get();
  rig.concurrent = std::make_unique<ConcurrentQueryEngine>([env, strategy] {
    return std::make_unique<QueryEngine>(
        env->cube.grid.get(), env->cache.get(), strategy, env->backend.get(),
        env->benefit.get(), env->clock.get(), QueryEngine::Config());
  });
  return rig;
}

std::vector<QueryStreamEntry> MakeStream(const TestEnv& env, int n,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
    stream.push_back(QueryStreamEntry{
        Query::WholeLevel(env.schema(), env.lattice().LevelOf(gb)),
        QueryKind::kRandom});
  }
  return stream;
}

TEST(ParallelRunnerTest, ParallelTotalsMatchSerialOnWarmCache) {
  EngineRig rig = MakeRig(/*num_shards=*/16);
  const std::vector<QueryStreamEntry> stream = MakeStream(rig.env, 60, 17);

  // Two warm passes bring the (ample) cache to a fixed point: pass one
  // caches every backend fetch, pass two caches every aggregated result.
  // After that, query outcomes are order-independent.
  ParallelWorkloadRunner serial(rig.concurrent.get(), /*num_threads=*/1);
  serial.Run(stream);
  serial.Run(stream);

  const WorkloadTotals want = serial.Run(stream);
  EXPECT_EQ(want.chunks_backend, 0);  // warm: nothing reaches the backend

  ParallelWorkloadRunner parallel(rig.concurrent.get(), /*num_threads=*/4);
  std::vector<QueryStats> per_query;
  const WorkloadTotals got = parallel.Run(stream, &per_query);

  EXPECT_EQ(per_query.size(), stream.size());
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.complete_hits, want.complete_hits);
  EXPECT_EQ(got.chunks_requested, want.chunks_requested);
  EXPECT_EQ(got.chunks_direct, want.chunks_direct);
  EXPECT_EQ(got.chunks_aggregated, want.chunks_aggregated);
  EXPECT_EQ(got.chunks_backend, want.chunks_backend);
  EXPECT_EQ(got.chunks_coalesced, want.chunks_coalesced);
  EXPECT_EQ(got.chunks_unavailable, want.chunks_unavailable);
  EXPECT_EQ(got.degraded_complete, want.degraded_complete);
  EXPECT_EQ(got.degraded_partial, want.degraded_partial);
  EXPECT_EQ(got.backend_attempts, want.backend_attempts);
}

TEST(ParallelRunnerTest, ColdParallelRunAnswersEveryChunk) {
  EngineRig rig = MakeRig(/*num_shards=*/16);
  const std::vector<QueryStreamEntry> stream = MakeStream(rig.env, 80, 29);
  ParallelWorkloadRunner runner(rig.concurrent.get(), /*num_threads=*/4);
  const WorkloadTotals totals = runner.Run(stream);
  EXPECT_EQ(totals.queries, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(totals.chunks_unavailable, 0);
  EXPECT_EQ(totals.chunks_direct + totals.chunks_aggregated +
                totals.chunks_backend,
            totals.chunks_requested);
  // Coalesced fetches are a subset of backend-answered chunks.
  EXPECT_LE(totals.chunks_coalesced, totals.chunks_backend);
}

// VCMC's batched upkeep under four threads: queries over a small cache
// evict constantly, so listeners append from every shard while reads and
// end-of-update flushes drain. At quiescence, after a Flush, costs and best
// parents equal the from-scratch walk.
TEST(VcmcBatchConcurrencyTest, FourThreadsOverASmallCacheEndAtScratch) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, 61, /*capacity=*/1200,
                            /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                            /*num_shards=*/4);
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  ConcurrentQueryEngine pool([&env, &strategy] {
    return std::make_unique<QueryEngine>(
        env.cube.grid.get(), env.cache.get(), &strategy, env.backend.get(),
        env.benefit.get(), env.clock.get(), QueryEngine::Config());
  });
  const std::vector<QueryStreamEntry> stream = MakeStream(env, 600, 43);
  ParallelWorkloadRunner runner(&pool, /*num_threads=*/4);
  const WorkloadTotals totals = runner.Run(stream);
  EXPECT_EQ(totals.chunks_unavailable, 0);
  EXPECT_GT(env.cache->stats().evictions, 0);

  strategy.Flush();
  EXPECT_EQ(strategy.PendingEvents(), 0u);
  const auto [costs, parents] = strategy.ComputeCostsFromScratch();
  for (GroupById gb = 0; gb < env.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy.CostOf(gb, c), costs[OracleIndex(env, gb, c)]);
      ASSERT_EQ(strategy.BestParentOf(gb, c), parents[OracleIndex(env, gb, c)]);
    }
  }
}

// Holds its first ExecuteChunkQuery call until Release(), and counts the
// calls.
class LatchedBackend : public Backend {
 public:
  explicit LatchedBackend(Backend* wrapped) : wrapped_(wrapped) {}

  const BackendCostModel& cost_model() const override {
    return wrapped_->cost_model();
  }
  BackendResult ExecuteChunkQuery(
      GroupById gb, const std::vector<ChunkId>& chunks) override {
    if (calls_.fetch_add(1) == 0) {
      entered_.set_value();
      released_.wait();
    }
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

  /// Blocks until the first call is being held.
  void AwaitFirstCall() { entered_future_.wait(); }
  void Release() { release_.set_value(); }
  int calls() const { return calls_.load(); }

 private:
  Backend* wrapped_;
  std::atomic<int> calls_{0};
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// A batch-class query fetches outside the single-flight group: while a
// batch query's backend call for a chunk is held, an interactive query for
// the same chunk leads its own fetch instead of waiting on the scan, and
// it caches the chunk (a follower would cache nothing it coalesced, and a
// batch leader caches nothing). The interactive query's deadline only
// bounds the test should it wait on the held fetch.
TEST(EngineSingleFlightTest, InteractiveQueryLeadsItsOwnFetchBesideABatchFetch) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 53, kBigCache,
                            /*two_level_policy=*/true);
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  LatchedBackend backend(env.backend.get());
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &strategy,
                     &backend, env.benefit.get(), env.clock.get(),
                     QueryEngine::Config());
  const GroupById top = env.lattice().top_id();
  const Query q = Query::WholeLevel(env.schema(), env.lattice().LevelOf(top));

  QueryStats batch_stats;
  QueryResult batch_result;
  std::thread scan([&] {
    ExecContext ctx;
    ctx.query_class = QueryClass::kBatch;
    batch_result = engine.ExecuteQuery(q, &ctx, &batch_stats);
  });
  backend.AwaitFirstCall();

  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(5'000'000'000);
  QueryStats stats;
  const QueryResult result = engine.ExecuteQuery(q, &ctx, &stats);
  backend.Release();
  scan.join();

  EXPECT_EQ(result.status, ResultStatus::kOk);
  EXPECT_EQ(stats.chunks_backend, 1);
  EXPECT_EQ(stats.chunks_coalesced, 0);
  EXPECT_EQ(batch_result.status, ResultStatus::kOk);
  EXPECT_EQ(batch_stats.chunks_backend, 1);
  EXPECT_EQ(backend.calls(), 2);
  EXPECT_TRUE(env.cache->Contains(CacheKey{top, 0}));
  EXPECT_TRUE(env.cache->ValidateInvariants());
}

// ---------------------------------------------------------------------------
// backend_ms attribution: across an entire faulty workload, every simulated
// nanosecond the backend path charged appears in exactly one query's
// backend_ms — the per-query sums reconstruct the SimClock total exactly.
// ---------------------------------------------------------------------------

TEST(BackendMsAttributionTest, PerQueryBackendMsSumsToSimClockTotal) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 47, /*capacity=*/4000,
                            /*two_level_policy=*/true);
  FaultConfig faults;
  faults.transient_error_rate = 0.15;
  faults.timeout_rate = 0.05;
  faults.partial_result_rate = 0.10;
  faults.latency_spike_rate = 0.10;
  faults.seed = 7;
  FaultInjectingBackend faulty(env.backend.get(), faults, env.clock.get());
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  QueryEngine::Config config;
  config.retry.max_attempts = 4;
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &strategy, &faulty,
                     env.benefit.get(), env.clock.get(), config);

  const int64_t clock_before = env.clock->TotalNanos();
  Rng rng(99);
  double total_backend_ms = 0.0;
  for (int i = 0; i < 120; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
    Query q = Query::WholeLevel(env.schema(), env.lattice().LevelOf(gb));
    QueryStats stats;
    engine.ExecuteQuery(q, &stats);
    total_backend_ms += stats.backend_ms;
  }
  const double clock_ms =
      static_cast<double>(env.clock->TotalNanos() - clock_before) / 1e6;
  // Exact up to double rounding in the per-query ns -> ms conversions.
  EXPECT_NEAR(total_backend_ms, clock_ms, 1e-6 * (clock_ms + 1.0));
  EXPECT_GT(clock_ms, 0.0);
}

}  // namespace
}  // namespace aac
