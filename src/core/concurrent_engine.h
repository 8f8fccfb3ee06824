#ifndef AAC_CORE_CONCURRENT_ENGINE_H_
#define AAC_CORE_CONCURRENT_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/admission.h"
#include "core/query_engine.h"
#include "util/deadline.h"

namespace aac {

/// Stub of the deleted morsel helper pool. Folds run on the calling thread;
/// nothing here holds a thread or any state. bench/e2e still calls
/// ConfigureMorsels and reads morsel_pool()'s stats, so the three names
/// stay until the next benchmark change drops those calls (ROADMAP item
/// 2); the change after it deletes the stub.
struct MorselPool {
  struct Stats {
    int64_t parallel_runs = 0;
    int64_t serial_runs = 0;
  };
  Stats stats() const { return {}; }
};

/// Admission control in front of one QueryEngine that every thread shares.
///
/// A QueryEngine is thread-safe once its layers are attached: each query
/// builds its own fold, plan-execution and retry state, and the structures
/// queries share — the sharded ChunkCache, the lookup strategy, the
/// backend, the SimClock and the engine's single-flight group and
/// rollup-plan cache — are thread-safe. So concurrent ExecuteQuery calls
/// run side by side on the one engine, with no lock around a query.
///
/// The engine is configured before the first query: each layer setter
/// attaches its layer to the engine at once, and every setter aborts after
/// the first query has begun, so no query can run against a half-wired
/// engine.
class ConcurrentQueryEngine {
 public:
  /// Builds the engine, wired to the shared cache/strategy/backend.
  using EngineFactory = std::function<std::unique_ptr<QueryEngine>()>;

  /// Calls `factory` once, for the engine every thread shares.
  explicit ConcurrentQueryEngine(EngineFactory factory);

  ConcurrentQueryEngine(const ConcurrentQueryEngine&) = delete;
  ConcurrentQueryEngine& operator=(const ConcurrentQueryEngine&) = delete;

  /// Thread-safe ExecuteQuery; per-call stats and degradation status are
  /// returned as with the underlying engine.
  QueryResult ExecuteQuery(const Query& query, QueryStats* stats);

  /// Deadline/class-aware ExecuteQuery. When admission control is
  /// configured and `ctx` is non-null, the call first passes the admission
  /// gate: it may be shed (typed kShedded result, no work done) or expire
  /// while queued (kDeadlineExceeded); once admitted it holds one of the
  /// gate's slots for the duration of the query. The queue wait is
  /// reported in QueryStats::queue_wait_ms. Null `ctx` (or no admission
  /// controller) behaves like the 2-arg overload.
  QueryResult ExecuteQuery(const Query& query, ExecContext* ctx,
                           QueryStats* stats);

  /// Enables admission control with `config`, replacing any previous
  /// controller. Call before the first query.
  void ConfigureAdmission(const AdmissionConfig& config);

  /// The admission controller, or nullptr when not configured.
  AdmissionController* admission() { return admission_.get(); }

  /// Attaches one circuit breaker to the engine and to the admission
  /// controller's breaker-open shedding, so every thread sees the same
  /// backend-health signal. Call before the first query; the breaker must
  /// outlive this object.
  void set_shared_breaker(CircuitBreaker* breaker);

  /// Attaches a semantic result cache, so any thread's finished fold can
  /// answer any other thread's equivalent query. Call before the first
  /// query; the cache must outlive this object. The caller also registers
  /// it as a chunk-cache listener for the replace-in-place staleness hook.
  void set_result_cache(ResultCache* result_cache);

  /// Attaches a warm (compressed) tier: any thread's hot-cache miss can
  /// promote a chunk some other thread's eviction demoted. Call before the
  /// first query; the tier must outlive this object. The caller installs
  /// the same tier as the hot cache's demotion sink.
  void set_warm_tier(WarmTier* warm_tier);

  /// Part of the MorselPool stub: creates nothing, and like every setter
  /// aborts after the first query.
  void ConfigureMorsels(int num_helpers);

  /// Part of the MorselPool stub: always nullptr.
  MorselPool* morsel_pool() { return nullptr; }

  /// Queries admitted so far (thread-safe).
  int64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<AdmissionController> admission_;
  // Handed to every admission controller for breaker-open shedding.
  CircuitBreaker* shared_breaker_ = nullptr;
  std::atomic<int64_t> queries_executed_{0};
};

}  // namespace aac

#endif  // AAC_CORE_CONCURRENT_ENGINE_H_
