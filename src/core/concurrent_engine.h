#ifndef AAC_CORE_CONCURRENT_ENGINE_H_
#define AAC_CORE_CONCURRENT_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/single_flight.h"
#include "core/admission.h"
#include "core/query_engine.h"
#include "storage/morsel_pool.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Thread-safe query execution over a shared cache.
///
/// A QueryEngine is cheap but not thread-safe: it owns per-query scratch
/// state (aggregator, plan executor, retry counters, breaker). The shared
/// structures it points at — the sharded ChunkCache, the lookup strategy,
/// the backend and the SimClock — ARE thread-safe. So instead of one engine
/// behind one lock, this class keeps a pool of engines built by a caller
/// supplied factory: each ExecuteQuery borrows an idle engine (creating one
/// if none is free), runs the query with full concurrency against the
/// shared cache, and returns the engine to the pool. The pool mutex is held
/// only for the borrow/return pointer swaps, never across a query.
///
/// All pooled engines share one SingleFlight group, so concurrent fetches
/// of the same (group-by, chunk) collapse into a single backend call, and
/// one RollupPlanCache, so ancestor-offset tables for the rollup kernel are
/// built once per (from, to, chunk) instead of once per engine. Borrow
/// attaches these and any layers set below to each engine it creates, in
/// one QueryEngine::Attach call. A pool is configured before its first
/// query: the layer setters abort once the pool has created an engine, so
/// no engine can miss a layer.
class ConcurrentQueryEngine {
 public:
  /// Builds one engine wired to the shared cache/strategy/backend. Must be
  /// callable from any thread; in practice it is only invoked under the
  /// pool mutex, so plain captures of shared wiring are fine.
  using EngineFactory = std::function<std::unique_ptr<QueryEngine>()>;

  explicit ConcurrentQueryEngine(EngineFactory factory);

  ConcurrentQueryEngine(const ConcurrentQueryEngine&) = delete;
  ConcurrentQueryEngine& operator=(const ConcurrentQueryEngine&) = delete;

  /// Thread-safe ExecuteQuery; per-call stats and degradation status are
  /// returned as with the underlying engine.
  QueryResult ExecuteQuery(const Query& query, QueryStats* stats);

  /// Deadline/class-aware ExecuteQuery. When admission control is
  /// configured and `ctx` is non-null, the call first passes the admission
  /// gate: it may be shed (typed kShedded result, no engine borrowed, no
  /// work done) or expire while queued (kDeadlineExceeded); once admitted
  /// it holds one of the pool's slots for the duration of the query. The
  /// queue wait is reported in QueryStats::queue_wait_ms. Null `ctx` (or no
  /// admission controller) behaves like the 2-arg overload.
  QueryResult ExecuteQuery(const Query& query, ExecContext* ctx,
                           QueryStats* stats);

  /// Enables admission control with `config`. Call before concurrent use;
  /// replaces any previous controller (which must be idle).
  void ConfigureAdmission(const AdmissionConfig& config);

  /// The admission controller, or nullptr when not configured.
  AdmissionController* admission() { return admission_.get(); }

  /// Shares one circuit breaker across every pooled engine (and the
  /// admission controller's breaker-open shedding), so all threads see the
  /// same backend-health signal instead of each engine tripping its own.
  /// Call before the first query; the breaker must outlive the pool.
  void set_shared_breaker(CircuitBreaker* breaker);

  /// Shares one semantic result cache across every pooled engine, so any
  /// thread's finished fold can answer any other thread's equivalent query.
  /// Call before the first query; the cache must outlive the pool. The
  /// caller also registers it as a chunk-cache listener for the
  /// replace-in-place staleness hook.
  void set_result_cache(ResultCache* result_cache);

  /// Shares one warm (compressed) tier across every pooled engine: any
  /// thread's hot-cache miss can promote a chunk some other thread's
  /// eviction demoted. Call before the first query; the tier must outlive
  /// the pool. The caller installs the same tier as the hot cache's
  /// demotion sink.
  void set_warm_tier(WarmTier* warm_tier);

  /// Creates a MorselPool of `num_helpers` helper threads and attaches it
  /// to every pooled engine: large dense folds go morsel-parallel across
  /// idle helpers (opportunistic borrow, batch-class cap — see
  /// Aggregator::set_morsel_pool). Call before the first query; 0 disables.
  void ConfigureMorsels(int num_helpers);

  /// The shared morsel pool, or nullptr when not configured.
  MorselPool* morsel_pool() { return morsel_pool_.get(); }

  /// Fold-arena trims performed on engines returned to the pool.
  int64_t fold_arena_trims() const {
    return fold_arena_trims_.load(std::memory_order_relaxed);
  }

  /// Idle-engine fold arenas above this retained-bytes limit are trimmed
  /// on Return (the satellite "trim when an engine goes idle" policy).
  static constexpr int64_t kEngineArenaTrimBytes = int64_t{16} << 20;

  /// Queries executed so far (thread-safe).
  int64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }

  /// Engines created so far — bounded by the peak number of concurrent
  /// ExecuteQuery calls (thread-safe).
  int64_t engines_created() const;

  /// The shared fetch-coalescing group (e.g. for coalesced() reporting).
  SingleFlight<ChunkData>& single_flight() { return single_flight_; }

  /// The shared rollup-plan cache (hit/miss stats, manual Clear()).
  RollupPlanCache& rollup_plan_cache() { return rollup_plans_; }

 private:
  std::unique_ptr<QueryEngine> Borrow() AAC_EXCLUDES(pool_mutex_);
  void Return(std::unique_ptr<QueryEngine> engine) AAC_EXCLUDES(pool_mutex_);

  EngineFactory factory_;
  SingleFlight<ChunkData> single_flight_;
  RollupPlanCache rollup_plans_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<MorselPool> morsel_pool_;
  // Attached to every engine Borrow creates. The setters write it only
  // while no engine exists (checked), so Borrow reads it unlocked.
  EngineLayers layers_;
  std::atomic<int64_t> fold_arena_trims_{0};
  mutable Mutex pool_mutex_{LockRank::kEnginePool, "engine_pool"};
  std::vector<std::unique_ptr<QueryEngine>> idle_ AAC_GUARDED_BY(pool_mutex_);
  int64_t engines_created_ AAC_GUARDED_BY(pool_mutex_) = 0;
  std::atomic<int64_t> queries_executed_{0};
};

}  // namespace aac

#endif  // AAC_CORE_CONCURRENT_ENGINE_H_
