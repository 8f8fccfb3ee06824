#ifndef AAC_CORE_QUERY_ENGINE_H_
#define AAC_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/backend.h"
#include "cache/benefit.h"
#include "cache/chunk_cache.h"
#include "cache/result_cache.h"
#include "cache/single_flight.h"
#include "cache/warm_tier.h"
#include "core/circuit_breaker.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/retry_policy.h"
#include "core/strategy.h"
#include "util/deadline.h"
#include "util/sim_clock.h"

namespace aac {

/// How completely a query was answered.
enum class ResultStatus {
  /// Every requested chunk answered with a healthy backend path.
  kOk,
  /// Every requested chunk answered, but the backend was unreachable
  /// (breaker open or retries exhausted) — the cache carried the query.
  kDegradedComplete,
  /// Some chunks could not be answered; see QueryResult::unavailable.
  kDegradedPartial,
  /// The query's end-to-end deadline or cancel token fired mid-execution:
  /// whatever finished is returned (and, for an interactive query, was
  /// admitted to the cache — salvage), the rest is listed in
  /// QueryResult::unavailable.
  kDeadlineExceeded,
  /// Admission control refused the query outright (run queue full, or a
  /// batch query while the breaker is open): no work was done and no
  /// chunks are returned. Produced by ConcurrentQueryEngine, never by a
  /// bare QueryEngine.
  kShedded,
};

/// Why the backend phase of a query stopped before answering every pending
/// chunk (kNone: it didn't stop early). The first cause to fire wins.
enum class FetchAbortReason {
  kNone,
  kBreakerOpen,           // breaker refused up front; backend never contacted
  kBreakerTripped,        // breaker opened mid-loop after this query's failures
  kAttemptsExhausted,     // RetryConfig::max_attempts reached, chunks pending
  kRetryBudgetExhausted,  // RetryConfig::deadline_ns time budget spent
  kDeadlineExceeded,      // the query's end-to-end Deadline fired
  kCancelled,             // the query's CancelToken fired
};

/// Why a query whose context says abort stopped: kCancelled if its cancel
/// token fired, else kDeadlineExceeded. The engine and the admission gate
/// both report through this.
FetchAbortReason AbortReasonFor(const ExecContext& ctx);

/// The per-query counters that sum across queries: QueryStats carries one
/// query's values and WorkloadTotals their sums over a workload, so each
/// counter is declared here once and summed by one operator+=.
struct QueryCounters {
  int64_t chunks_requested = 0;
  int64_t chunks_direct = 0;      // present in the cache as-is
  int64_t chunks_aggregated = 0;  // computed by in-cache aggregation
  int64_t chunks_backend = 0;     // fetched from the backend
  int64_t chunks_coalesced = 0;   // of those, answered by another thread's
                                  // in-flight fetch (single-flight)
  int64_t chunks_bypassed = 0;    // computable, but backend was cheaper
  int64_t chunks_unavailable = 0; // backend down and not cache-computable
  int64_t chunks_warm = 0;        // promoted from the compressed warm tier
  int64_t chunks_disk = 0;        // promoted from the disk spill tier
  double decode_ms = 0.0;         // warm/disk blob decode time (this
                                  // query's share; 0 for coalesced waits)

  int64_t tuples_aggregated = 0;  // in-cache aggregation work
  int64_t fold_ns = 0;            // time inside the rollup kernel (plan
                                  // lookup + fold + emit), a subset of
                                  // aggregation_ms

  // Fault-path accounting.
  int64_t backend_attempts = 0;  // backend calls issued
  int64_t backend_retries = 0;   // attempts beyond the first

  // Overload-path accounting.
  int64_t cancel_checks = 0;    // cancellation checkpoints evaluated
  int64_t salvaged_chunks = 0;  // chunks admitted to the cache by a query
                                // that was cancelled / timed out ("don't
                                // trash your intermediate results")
  int64_t sf_detached = 0;      // single-flight waits abandoned because the
                                // query's deadline fired before the leader
  double queue_wait_ms = 0.0;   // admission-queue wait (pool engines only)

  double lookup_ms = 0.0;       // strategy probe + plan construction
  double aggregation_ms = 0.0;  // plan execution (incl. direct reads)
  // Simulated backend latency the query itself was charged: the sum of
  // per-call BackendResult::charged_nanos plus its own retry backoff.
  // Each simulated nanosecond appears in exactly one query's backend_ms,
  // even when concurrent queries interleave charges on the shared SimClock
  // (a clock *delta* would absorb other threads' charges and double-count).
  double backend_ms = 0.0;
  double update_ms = 0.0;       // cache inserts (incl. count/cost upkeep)

  QueryCounters& operator+=(const QueryCounters& other);

  double TotalMs() const {
    return lookup_ms + aggregation_ms + backend_ms + update_ms;
  }
};

/// Per-query timing and outcome breakdown (the paper's Figure 10 splits
/// complete-hit query time into lookup, aggregation and update): the
/// summable counters plus this query's outcome.
struct QueryStats : QueryCounters {
  /// Why the backend phase stopped early, if it did.
  FetchAbortReason fetch_abort = FetchAbortReason::kNone;
  ResultStatus status = ResultStatus::kOk;

  /// Completely answered from the cache (directly or by aggregation) —
  /// the paper's "complete hit". Chunks routed to the backend by the
  /// cost-based bypass count as backend fetches, so a bypassed query is
  /// not a complete hit even though it was answerable from the cache.
  /// A result-cache hit is a complete hit (no chunk work at all).
  bool complete_hit = false;

  // Semantic result-cache accounting (all false when no ResultCache is
  // attached; see EngineLayers::result_cache).
  bool result_cache_probed = false;   // engine consulted the result cache
  bool result_cache_hit = false;      // answered wholesale from it
  bool result_cache_admitted = false; // this query's finished answer was
                                      // admitted
};

/// Status-carrying answer to one query: the answered chunks (chunk-aligned
/// superset of the query ranges) plus the ids of requested chunks the
/// engine could not answer because the backend was unreachable and the
/// cache could not compute them. A healthy backend path never leaves
/// chunks unavailable.
struct QueryResult {
  ResultStatus status = ResultStatus::kOk;
  std::vector<ChunkData> chunks;
  std::vector<ChunkId> unavailable;

  /// Not meaningful for kShedded: a shed query carries no chunks at all
  /// (both lists empty), so check `status` before trusting complete().
  bool complete() const { return unavailable.empty(); }
};

/// The optional layers an engine can share with other engines over the
/// same cache. A null pointer means "no such layer"; each layer must
/// outlive every engine it is attached to.
struct EngineLayers {
  /// Semantic result cache: probed by canonical query key before any chunk
  /// work; a clean complete answer is offered to it for admission.
  /// Callers that want replace-in-place staleness hooks also register it
  /// as a chunk-cache listener.
  ResultCache* result_cache = nullptr;
  /// Compressed warm tier (and its disk tier): hot-cache misses probe it
  /// before aggregation or the backend, and hits are promoted back into
  /// the hot cache. Typically also the hot cache's demotion sink. It is
  /// probed even while the breaker is open, so a dark backend degrades to
  /// warm-tier-carried service instead of unavailability.
  WarmTier* warm_tier = nullptr;
};

/// The middle tier: answers chunked multi-dimensional queries from an
/// aggregate-aware cache, falling back to the backend for missing chunks.
///
/// Per query (paper Section 2): split the query into chunks; probe the
/// lookup strategy for each chunk; answer what is cached or computable by
/// aggregation; fetch all missing chunks with a single backend query; then
/// insert the newly obtained chunks into the cache under the configured
/// policy rules.
///
/// The backend is treated as fallible: failed calls are retried under
/// `Config::retry`, repeated failures trip the optional circuit breaker,
/// and when the backend is unreachable the engine degrades gracefully —
/// cache-computable chunks are still answered (the bypass optimizer is
/// suspended, since there is no backend to bypass to) and the rest are
/// reported per-chunk in QueryResult::unavailable instead of aborting.
///
/// Thread-safe once its layers are attached: each query builds its own
/// aggregator, plan executor and retry schedule and folds into its thread's
/// FoldArena, so the only state queries share is what the paper's middle
/// tier shares — the cache, the strategy's summaries, the backend — plus
/// the engine's single-flight group and breaker, all of which are
/// thread-safe. One engine serves every thread.
class QueryEngine {
 public:
  struct Config {
    /// Boost the clock value of every chunk in a group used to compute an
    /// aggregate by the computed chunk's (normalized) benefit — rule 2 of
    /// the two-level policy.
    bool boost_groups = false;

    /// The cost-based optimizer of paper Section 5.2: even when a chunk is
    /// computable from the cache, compare the plan's estimated aggregation
    /// time against the backend's marginal cost and take the cheaper route.
    /// Most effective with VCMC, whose least cost is available instantly.
    bool cost_based_bypass = false;

    /// Middle-tier aggregation throughput assumed by the bypass decision
    /// (converts plan costs in tuples to nanoseconds).
    double cache_aggregation_ns_per_tuple = 50.0;

    /// Retry/backoff schedule for failed backend calls. The default
    /// retries transient faults a few times; max_attempts = 1 disables
    /// retries entirely. Irrelevant while the backend never fails.
    RetryConfig retry;

    /// Trip a circuit breaker on consecutive backend failures and serve
    /// cache-only answers while it is open.
    bool circuit_breaker = false;
    BreakerConfig breaker;
  };

  /// All pointers must outlive the engine. `sim_clock` must be the clock the
  /// backend charges into (used to attribute simulated backend latency and
  /// to time retry backoff and the breaker cooldown).
  QueryEngine(const ChunkGrid* grid, ChunkCache* cache,
              LookupStrategy* strategy, Backend* backend,
              const BenefitModel* benefit, SimClock* sim_clock, Config config);

  /// Answers `query`. Never aborts on backend failure: the result's status
  /// and `unavailable` list describe any degradation. `stats` may be null.
  QueryResult ExecuteQuery(const Query& query, QueryStats* stats);

  /// Same, under an execution context carrying the query's end-to-end
  /// deadline, cancel token and class. The deadline/token are honored
  /// cooperatively at checkpoints (before each plan, every few thousand
  /// cells inside fold kernels, before each backend attempt, and inside
  /// retry backoff and single-flight waits); when one fires the query
  /// resolves promptly with status kDeadlineExceeded, unanswered chunks
  /// listed unavailable — and everything an interactive query already
  /// computed or fetched is still admitted to the cache (salvage), so an
  /// aborted query still warms the cache for its successors. A batch-class
  /// query (QueryClass::kBatch) reads through every layer but inserts,
  /// promotes, boosts and admits nothing, so it salvages nothing, and it
  /// fetches its misses outside the single-flight group. `ctx` may be null
  /// (no deadline, interactive); `*ctx` is charged with this query's
  /// simulated backend nanos.
  QueryResult ExecuteQuery(const Query& query, ExecContext* ctx,
                           QueryStats* stats);

  /// EXPLAIN: describes how `query` *would* be answered right now, as an
  /// interactive query — per chunk, the route (direct hit / aggregation /
  /// backend / bypass / warm promotion) and the aggregation plan — without
  /// executing anything or touching cache state beyond the strategy probes.
  std::string ExplainQuery(const Query& query);

  LookupStrategy* strategy() { return strategy_; }
  const Config& config() const { return config_; }

  /// Attaches every non-null layer in `layers`, replacing any layer of the
  /// same kind attached before; null members leave the engine unchanged.
  /// Call before the first query. Without layers an engine has no result
  /// cache or warm tier.
  void Attach(const EngineLayers& layers);

  /// The engine's breaker, consulted by the fetch path (nullptr when
  /// Config::circuit_breaker is off).
  CircuitBreaker* circuit_breaker() { return breaker_.get(); }

 private:
  /// One chunk's route: the strategy's plan for it (null when the cache
  /// cannot answer it) and whether the cost-based bypass sends it to the
  /// backend anyway.
  struct ChunkRoute {
    ChunkId chunk;
    std::unique_ptr<PlanNode> plan;
    bool bypassed = false;
  };

  /// Probes the strategy for every chunk of `chunks` and applies the
  /// cost-based bypass to the computable ones, in chunk order: ExecuteQuery
  /// runs the routes, ExplainQuery prints them.
  std::vector<ChunkRoute> RouteChunks(GroupById gb,
                                      const std::vector<ChunkId>& chunks,
                                      bool backend_trusted) const;

  /// Fetches `missing` chunks with retry/backoff under the breaker and the
  /// query's deadline (backoff sleeps are clamped to the remaining budget
  /// and the loop aborts, typed, once the deadline fires). `retry` is the
  /// query's own schedule. Successfully fetched chunks are appended to
  /// `fetched`; chunk ids that could not be fetched remain in the returned
  /// vector.
  std::vector<ChunkId> FetchWithRetry(GroupById gb,
                                      std::vector<ChunkId> missing,
                                      std::vector<ChunkData>* fetched,
                                      RetryPolicy& retry, ExecContext* ctx,
                                      QueryStats* s);

  /// The cost-based bypass of paper Section 5.2: true when fetching
  /// `plan`'s chunk is estimated cheaper than aggregating it. The chunk
  /// pays the backend's fixed per-query overhead unless
  /// `backend_query_pending` (another chunk of the query goes to the
  /// backend anyway). Never for a direct hit, with the bypass off, or while
  /// the backend is not trusted.
  bool Bypasses(GroupById gb, const PlanNode& plan, bool backend_trusted,
                bool backend_query_pending) const;

  const ChunkGrid* grid_;
  ChunkCache* cache_;
  LookupStrategy* strategy_;
  Backend* backend_;
  const BenefitModel* benefit_;
  SimClock* sim_clock_;
  Config config_;
  std::unique_ptr<CircuitBreaker> breaker_;
  // Coalesces concurrent queries' fetches of the same (gb, chunk) into one
  // backend call.
  SingleFlight<ChunkData> single_flight_;
  // Queries begun so far. A query's retry jitter is seeded with
  // Config::retry.seed plus its number, so a single-threaded run replays
  // exactly.
  std::atomic<uint64_t> queries_begun_{0};
  EngineLayers layers_;
};

}  // namespace aac

#endif  // AAC_CORE_QUERY_ENGINE_H_
