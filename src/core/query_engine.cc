#include "core/query_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cache/replacement.h"
#include "core/executor.h"
#include "core/query_canon.h"
#include "storage/aggregator.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

const char* ResultStatusName(ResultStatus status) {
  switch (status) {
    case ResultStatus::kOk:
      return "ok";
    case ResultStatus::kDegradedComplete:
      return "degraded-complete";
    case ResultStatus::kDegradedPartial:
      return "degraded-partial";
    case ResultStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ResultStatus::kShedded:
      return "shedded";
  }
  return "?";
}

const char* FetchAbortReasonName(FetchAbortReason reason) {
  switch (reason) {
    case FetchAbortReason::kNone:
      return "none";
    case FetchAbortReason::kBreakerOpen:
      return "breaker-open";
    case FetchAbortReason::kBreakerTripped:
      return "breaker-tripped";
    case FetchAbortReason::kAttemptsExhausted:
      return "attempts-exhausted";
    case FetchAbortReason::kRetryBudgetExhausted:
      return "retry-budget-exhausted";
    case FetchAbortReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case FetchAbortReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

QueryCounters& QueryCounters::operator+=(const QueryCounters& other) {
  chunks_requested += other.chunks_requested;
  chunks_direct += other.chunks_direct;
  chunks_aggregated += other.chunks_aggregated;
  chunks_backend += other.chunks_backend;
  chunks_coalesced += other.chunks_coalesced;
  chunks_bypassed += other.chunks_bypassed;
  chunks_unavailable += other.chunks_unavailable;
  chunks_warm += other.chunks_warm;
  chunks_disk += other.chunks_disk;
  decode_ms += other.decode_ms;
  tuples_aggregated += other.tuples_aggregated;
  fold_ns += other.fold_ns;
  backend_attempts += other.backend_attempts;
  backend_retries += other.backend_retries;
  cancel_checks += other.cancel_checks;
  salvaged_chunks += other.salvaged_chunks;
  sf_detached += other.sf_detached;
  queue_wait_ms += other.queue_wait_ms;
  lookup_ms += other.lookup_ms;
  aggregation_ms += other.aggregation_ms;
  backend_ms += other.backend_ms;
  update_ms += other.update_ms;
  return *this;
}

namespace {

// First cause wins: a query that detached from a single-flight wait on
// deadline and then found the breaker open reports the deadline, not the
// breaker.
void NoteAbort(QueryStats& s, FetchAbortReason reason) {
  if (s.fetch_abort == FetchAbortReason::kNone) s.fetch_abort = reason;
}

FetchAbortReason AbortReasonFor(const ExecContext& ctx) {
  return ctx.cancel != nullptr && ctx.cancel->cancelled()
             ? FetchAbortReason::kCancelled
             : FetchAbortReason::kDeadlineExceeded;
}

}  // namespace

QueryEngine::QueryEngine(const ChunkGrid* grid, ChunkCache* cache,
                         LookupStrategy* strategy, Backend* backend,
                         const BenefitModel* benefit, SimClock* sim_clock,
                         Config config)
    : grid_(grid),
      cache_(cache),
      strategy_(strategy),
      backend_(backend),
      benefit_(benefit),
      sim_clock_(sim_clock),
      config_(config) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  AAC_CHECK(strategy != nullptr);
  AAC_CHECK(backend != nullptr);
  AAC_CHECK(benefit != nullptr);
  AAC_CHECK(sim_clock != nullptr);
  if (config.circuit_breaker) {
    breaker_ = std::make_unique<CircuitBreaker>(config.breaker, sim_clock);
  }
}

void QueryEngine::Attach(const EngineLayers& layers) {
  const auto attach = [](auto*& slot, auto* layer) {
    if (layer != nullptr) slot = layer;
  };
  attach(layers_.breaker, layers.breaker);
  attach(layers_.result_cache, layers.result_cache);
  attach(layers_.warm_tier, layers.warm_tier);
}

std::vector<QueryEngine::ChunkRoute> QueryEngine::RouteChunks(
    GroupById gb, const std::vector<ChunkId>& chunks,
    bool backend_trusted) const {
  std::vector<ChunkRoute> routes;
  routes.reserve(chunks.size());
  bool backend_query_pending = false;
  for (ChunkId chunk : chunks) {
    routes.push_back(ChunkRoute{chunk, strategy_->FindPlan(gb, chunk)});
    backend_query_pending |= routes.back().plan == nullptr;
  }
  // A bypassed chunk pays the backend's fixed overhead only when no chunk
  // goes to the backend anyway, so probe every chunk first.
  for (ChunkRoute& route : routes) {
    if (route.plan != nullptr && Bypasses(gb, *route.plan, backend_trusted,
                                          backend_query_pending)) {
      route.bypassed = true;
      backend_query_pending = true;
    }
  }
  return routes;
}

std::string QueryEngine::ExplainQuery(const Query& query) {
  const GroupById gb = grid_->lattice().IdOf(query.level);
  const std::vector<ChunkId> chunks = ChunksForQuery(*grid_, query);
  CircuitBreaker* breaker = circuit_breaker();
  const bool backend_trusted =
      breaker == nullptr || breaker->state() == BreakerState::kClosed;
  std::string out = "query ";
  out += query.ToString(grid_->schema());
  out += " -> ";
  out += std::to_string(chunks.size());
  out += " chunk(s) at ";
  out += query.level.ToString();
  out += " [strategy: ";
  out += strategy_->name();
  out += "]";
  if (!backend_trusted) {
    out += " [breaker: ";
    out += BreakerStateName(breaker->state());
    out += " — cache-only]";
  }
  out += "\n";
  for (const ChunkRoute& route : RouteChunks(gb, chunks, backend_trusted)) {
    const PlanNode* plan = route.plan.get();
    out += "  chunk ";
    out += std::to_string(route.chunk);
    out += ": ";
    if (plan == nullptr) {
      if (layers_.warm_tier != nullptr &&
          layers_.warm_tier->Contains(CacheKey{gb, route.chunk})) {
        out += "MISS -> warm tier (promote)\n";
      } else {
        out += backend_trusted ? "MISS -> backend\n" : "MISS -> UNAVAILABLE\n";
      }
      continue;
    }
    if (plan->cached) {
      out += "direct cache hit\n";
      continue;
    }
    if (route.bypassed) {
      out += "computable (est ";
      out += std::to_string(static_cast<int64_t>(plan->estimated_cost));
      out += " tuples) but BYPASSED -> backend\n";
      continue;
    }
    out += "aggregate ";
    out += std::to_string(plan->LeafCount());
    out += " cached chunk(s), est ";
    out += std::to_string(static_cast<int64_t>(plan->estimated_cost));
    out += " tuples:\n";
    out += plan->ToString(grid_->lattice(), /*indent=*/2);
  }
  return out;
}

bool QueryEngine::Bypasses(GroupById gb, const PlanNode& plan,
                           bool backend_trusted,
                           bool backend_query_pending) const {
  if (!config_.cost_based_bypass || !backend_trusted || plan.cached) {
    return false;
  }
  const double cache_ns =
      plan.estimated_cost * config_.cache_aggregation_ns_per_tuple;
  double backend_ns = static_cast<double>(
      backend_->EstimateMarginalChunkCostNanos(gb, plan.key.chunk));
  if (!backend_query_pending) {
    backend_ns +=
        static_cast<double>(backend_->cost_model().fixed_query_overhead_ns);
  }
  return backend_ns < cache_ns;
}

std::vector<ChunkId> QueryEngine::FetchWithRetry(GroupById gb,
                                                 std::vector<ChunkId> pending,
                                                 std::vector<ChunkData>* fetched,
                                                 RetryPolicy& retry,
                                                 ExecContext* ctx,
                                                 QueryStats* stats) {
  QueryStats& s = *stats;
  if (pending.empty()) return pending;
  CircuitBreaker* breaker = circuit_breaker();
  if (breaker != nullptr && !breaker->AllowRequest()) {
    NoteAbort(s, FetchAbortReason::kBreakerOpen);
    return pending;
  }
  // Simulated nanoseconds THIS query's calls and backoffs charged. The
  // shared SimClock interleaves charges from every concurrent query, so
  // deadline checks and the backend_ms attribution use this local tally —
  // a clock delta would absorb other threads' charges and double-count.
  int64_t spent = 0;
  int attempts = 0;
  while (!pending.empty()) {
    // Deadline checkpoint before paying for another attempt: a query whose
    // budget is gone resolves now instead of issuing a doomed fetch.
    ++s.cancel_checks;
    if (ctx->ShouldAbort()) {
      NoteAbort(s, AbortReasonFor(*ctx));
      break;
    }
    ++attempts;
    ++s.backend_attempts;
    BackendResult result = backend_->ExecuteChunkQuery(gb, pending);
    spent += result.charged_nanos;
    ctx->deadline.ChargeSimulated(result.charged_nanos);
    if (result.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      for (ChunkData& data : result.chunks) {
        auto it = std::find(pending.begin(), pending.end(), data.chunk);
        AAC_CHECK(it != pending.end());
        pending.erase(it);
        fetched->push_back(std::move(data));
      }
      if (pending.empty()) break;
      // Partial result: the backend responded, so re-ask for the remainder
      // immediately — no backoff, but still under the attempt/deadline caps.
      if (!retry.AllowRetry(attempts, spent)) {
        NoteAbort(s, attempts >= retry.config().max_attempts
                         ? FetchAbortReason::kAttemptsExhausted
                         : FetchAbortReason::kRetryBudgetExhausted);
        break;
      }
      continue;
    }
    if (breaker != nullptr) {
      breaker->RecordFailure();
      if (breaker->state() == BreakerState::kOpen) {
        // Tripped (or a half-open probe failed): stop hammering the
        // backend; the query degrades now, later queries serve cache-only
        // until the cooldown elapses.
        NoteAbort(s, FetchAbortReason::kBreakerTripped);
        break;
      }
    }
    if (!retry.AllowRetry(attempts, spent)) {
      NoteAbort(s, attempts >= retry.config().max_attempts
                       ? FetchAbortReason::kAttemptsExhausted
                       : FetchAbortReason::kRetryBudgetExhausted);
      break;
    }
    // Backoff, clamped to whichever budget runs out first: the retry
    // policy's own time budget or the query's end-to-end deadline. A sleep
    // that would consume the entire remaining budget leaves no room for the
    // retry it precedes, so resolve immediately instead of napping up to
    // the deadline — the jitter draw is consumed either way, keeping the
    // seeded schedule deterministic.
    const int64_t retry_remaining =
        retry.config().deadline_ns > 0
            ? retry.config().deadline_ns - spent
            : std::numeric_limits<int64_t>::max();
    const int64_t query_remaining = ctx->deadline.remaining_ns();
    const int64_t remaining = std::min(retry_remaining, query_remaining);
    const int64_t backoff = retry.ClampedBackoffNanos(attempts, remaining);
    if (backoff <= 0 || backoff >= remaining) {
      NoteAbort(s, query_remaining < retry_remaining
                       ? AbortReasonFor(*ctx)
                       : FetchAbortReason::kRetryBudgetExhausted);
      break;
    }
    sim_clock_->Charge(backoff);
    ctx->deadline.ChargeSimulated(backoff);
    spent += backoff;
  }
  s.backend_retries += attempts > 0 ? attempts - 1 : 0;
  s.backend_ms += static_cast<double>(spent) / 1e6;
  return pending;
}

QueryResult QueryEngine::ExecuteQuery(const Query& query, QueryStats* stats) {
  return ExecuteQuery(query, /*ctx=*/nullptr, stats);
}

QueryResult QueryEngine::ExecuteQuery(const Query& query, ExecContext* ctx,
                                      QueryStats* stats) {
  // Every return leaves this thread at most FoldArena::kTrimBytes of fold
  // scratch, so one huge fold does not pin its high-water memory for good.
  struct TrimFoldArenaOnReturn {
    ~TrimFoldArenaOnReturn() {
      ThreadFoldArena().TrimIfAbove(FoldArena::kTrimBytes);
    }
  } trim_fold_arena_on_return;
  ExecContext unlimited;  // no deadline, no cancel token
  if (ctx == nullptr) ctx = &unlimited;
  QueryStats local;
  QueryStats& s = stats != nullptr ? *stats : local;
  s = QueryStats();
  QueryResult result;
  const uint64_t query_number =
      queries_begun_.fetch_add(1, std::memory_order_relaxed);

  const GroupById gb = grid_->lattice().IdOf(query.level);
  const std::vector<ChunkId> chunks = ChunksForQuery(*grid_, query);
  s.chunks_requested = static_cast<int64_t>(chunks.size());

  // Dead on arrival — the deadline was burned waiting in an admission
  // queue, or the client is already gone: resolve immediately, typed,
  // without touching cache state.
  ++s.cancel_checks;
  if (ctx->ShouldAbort()) {
    result.unavailable = chunks;
    s.chunks_unavailable = static_cast<int64_t>(chunks.size());
    NoteAbort(s, AbortReasonFor(*ctx));
    s.status = ResultStatus::kDeadlineExceeded;
    result.status = s.status;
    return result;
  }

  // --- Result-cache probe: a canonical-key hit answers the whole query
  // from one stored fold, before any chunk-level work. The stored answer is
  // the same chunk-aligned representation a cold execution produces, so
  // RefineResult rows are bit-identical. ---
  ResultCacheKey result_key;
  if (layers_.result_cache != nullptr) {
    Stopwatch probe_timer;
    result_key = CanonicalResultKey(grid_->schema(), query);
    s.result_cache_probed = true;
    std::vector<ChunkData> cached_answer;
    if (layers_.result_cache->Probe(result_key, &cached_answer)) {
      s.result_cache_hit = true;
      s.complete_hit = true;
      s.lookup_ms = probe_timer.ElapsedMillis();
      s.status = ResultStatus::kOk;
      result.status = s.status;
      result.chunks = std::move(cached_answer);
      return result;
    }
    s.lookup_ms += probe_timer.ElapsedMillis();
  }

  // Degraded mode: with the breaker not closed, the backend is presumed
  // unreachable — every cache-computable chunk must be answered from the
  // cache, so the cost-based bypass (moot without a backend) is suspended.
  CircuitBreaker* breaker = circuit_breaker();
  const bool backend_trusted =
      breaker == nullptr || breaker->state() == BreakerState::kClosed;

  // --- Lookup phase: probe the strategy for every chunk; the misses and
  // then the bypassed chunks go to the backend. ---
  Stopwatch lookup_timer;
  const std::vector<ChunkRoute> routes =
      RouteChunks(gb, chunks, backend_trusted);
  std::vector<ChunkId> missing;
  for (const ChunkRoute& route : routes) {
    if (route.plan == nullptr) missing.push_back(route.chunk);
  }
  for (const ChunkRoute& route : routes) {
    if (route.bypassed) {
      missing.push_back(route.chunk);
      ++s.chunks_bypassed;
    }
  }
  s.lookup_ms += lookup_timer.ElapsedMillis();

  // --- Aggregation phase: answer cached/computable chunks. ---
  Stopwatch agg_timer;
  std::vector<ChunkData>& results = result.chunks;
  results.reserve(chunks.size());
  // (benefit, cached-group) per aggregated chunk, consumed by the update
  // phase and the group-boost rule.
  struct ComputedInfo {
    size_t result_index;
    int64_t tuples;
    std::vector<CacheKey> group;
  };
  std::vector<ComputedInfo> computed;
  // The query's own fold state: its aggregator folds into this thread's
  // arena and reads the engine's plan cache. Cooperative cancellation is
  // armed for the fold kernels: checkpoints fire every few thousand cells,
  // and an aborted fold emits nothing (pins released by the executor,
  // arena wiped by the aggregator) — the chunks that WERE emitted before
  // the abort are bit-identical to an uncancelled run's.
  Aggregator aggregator(grid_);
  aggregator.set_plan_cache(&plan_cache_);
  aggregator.set_exec_context(ctx);
  PlanExecutor executor(grid_, cache_, &aggregator);
  bool aborted = false;
  for (const ChunkRoute& route : routes) {
    if (route.plan == nullptr || route.bypassed) continue;
    const PlanNode& plan = *route.plan;
    if (!aborted) {
      ++s.cancel_checks;
      aborted = ctx->ShouldAbort();
    }
    if (aborted) {
      // Teardown: remaining chunks are neither computed nor fetched.
      result.unavailable.push_back(plan.key.chunk);
      continue;
    }
    if (plan.cached) {
      ChunkData copy;
      if (cache_->GetCopy(plan.key, &copy)) {
        results.push_back(std::move(copy));
        ++s.chunks_direct;
      } else {
        // Plans are advisory under concurrency: the chunk was evicted
        // between the strategy probe and this read. Fall back to the
        // backend instead of aborting.
        missing.push_back(plan.key.chunk);
      }
      continue;
    }
    ExecutionResult exec = executor.Execute(plan);
    if (exec.cancelled) {
      // Mid-fold abort. Do NOT reroute the chunk to the backend — the
      // query is being torn down, not rerouted.
      aborted = true;
      result.unavailable.push_back(plan.key.chunk);
      continue;
    }
    if (!exec.ok) {
      // A planned input vanished mid-plan (concurrent eviction); the
      // executor released its pins and produced nothing for this chunk.
      missing.push_back(plan.key.chunk);
      continue;
    }
    s.tuples_aggregated += exec.tuples_aggregated;
    s.fold_ns += exec.fold_ns;
    computed.push_back(ComputedInfo{results.size(), exec.tuples_aggregated,
                                    std::move(exec.cached_inputs)});
    results.push_back(std::move(exec.data));
    ++s.chunks_aggregated;
  }
  s.cancel_checks += aggregator.cancel_checks();
  s.aggregation_ms = agg_timer.ElapsedMillis();

  // --- Warm-tier probe: chunks neither cached nor computable may still
  // live compressed in the warm tier or its disk spill. Hits are decoded
  // (single-flighted, off the hot shard locks) and promoted back into the
  // hot cache. This phase deliberately runs even when the breaker is open:
  // a dark backend degrades to warm-tier-carried service, not
  // unavailability. ---
  if (layers_.warm_tier != nullptr && !missing.empty() && !aborted) {
    Stopwatch promote_timer;
    std::vector<ChunkId> still_missing;
    still_missing.reserve(missing.size());
    for (ChunkId chunk : missing) {
      ++s.cancel_checks;
      if (aborted || ctx->ShouldAbort()) {
        // Teardown mid-phase: the rest stays missing and is reported
        // unavailable by the aborted branch below.
        aborted = true;
        still_missing.push_back(chunk);
        continue;
      }
      WarmProbeResult probe;
      if (!layers_.warm_tier->Probe(CacheKey{gb, chunk}, ctx, &probe)) {
        still_missing.push_back(chunk);
        continue;
      }
      s.decode_ms += static_cast<double>(probe.decode_ns) / 1e6;
      if (probe.from_disk) {
        ++s.chunks_disk;
      } else {
        ++s.chunks_warm;
      }
      // Promote: the hot insert's demotion hooks purge the warm/disk copy,
      // so the chunk is resident in exactly one tier again.
      cache_->Insert(probe.data, probe.info.benefit, probe.info.source);
      results.push_back(std::move(probe.data));
    }
    missing = std::move(still_missing);
    s.aggregation_ms += promote_timer.ElapsedMillis();
  }

  // --- Backend phase: one SQL query for all missing chunks, retried with
  // backoff on failure; what cannot be fetched degrades instead of
  // aborting. ---
  std::vector<ChunkData> backend_results;   // fetched by this query
  std::vector<ChunkData> coalesced_results; // from another query's fetch
  s.complete_hit = missing.empty() && !aborted;
  if (aborted) {
    // Torn down before the backend phase: missing chunks are unanswerable.
    for (ChunkId chunk : missing) result.unavailable.push_back(chunk);
    missing.clear();
  }
  if (!missing.empty()) {
    // The query's own jitter stream: seeded by its number, so concurrent
    // queries never share an RNG and a single-threaded run replays exactly.
    RetryConfig retry_config = config_.retry;
    retry_config.seed += query_number;
    RetryPolicy retry(retry_config);
    // Single-flight: for each missing chunk either lead (this query will
    // fetch it and publish the result) or follow (another query's fetch
    // for the same chunk is in flight — wait for its result instead of
    // issuing a duplicate backend call).
    using Flight = SingleFlight<ChunkData>;
    std::vector<ChunkId> lead;
    std::vector<std::pair<ChunkId, std::shared_ptr<Flight::Slot>>> follow;
    for (ChunkId chunk : missing) {
      std::shared_ptr<Flight::Slot> slot =
          single_flight_.JoinOrLead(CacheKey{gb, chunk});
      if (slot == nullptr) {
        lead.push_back(chunk);
      } else {
        follow.emplace_back(chunk, std::move(slot));
      }
    }
    // Fetch led chunks FIRST, then wait on followed ones: every led key is
    // published (or failed) before this thread blocks, so two queries
    // leading/following each other's chunks cannot deadlock.
    std::vector<ChunkId> failed =
        FetchWithRetry(gb, lead, &backend_results, retry, ctx, &s);
    for (const ChunkData& data : backend_results) {
      single_flight_.Publish(CacheKey{gb, data.chunk}, data);
    }
    for (ChunkId chunk : failed) single_flight_.Fail(CacheKey{gb, chunk});
    std::vector<ChunkId> retry_self;
    for (auto& [chunk, slot] : follow) {
      ChunkData data;
      switch (single_flight_.AwaitWithDeadline(*slot, *ctx, &data)) {
        case Flight::AwaitStatus::kOk:
          ++s.chunks_coalesced;
          coalesced_results.push_back(std::move(data));
          break;
        case Flight::AwaitStatus::kLeaderFailed:
          // The leader failed; its failure may have been breaker- or
          // deadline-local, so try once ourselves before giving up.
          retry_self.push_back(chunk);
          break;
        case Flight::AwaitStatus::kDeadline:
          // This follower's own deadline fired before the leader's fetch
          // landed: detach and give the chunk up. The leader keeps
          // fetching, so the cache still warms for later queries.
          ++s.sf_detached;
          NoteAbort(s, AbortReasonFor(*ctx));
          failed.push_back(chunk);
          break;
      }
    }
    std::vector<ChunkId> still_failed = FetchWithRetry(
        gb, std::move(retry_self), &backend_results, retry, ctx, &s);
    failed.insert(failed.end(), still_failed.begin(), still_failed.end());
    result.unavailable.insert(result.unavailable.end(), failed.begin(),
                              failed.end());
    s.chunks_backend =
        static_cast<int64_t>(backend_results.size() + coalesced_results.size());
  }
  s.chunks_unavailable = static_cast<int64_t>(result.unavailable.size());

  // --- Update phase: admit new chunks to the cache. This runs even for a
  // deadline-killed query — everything below was fully computed or fetched
  // before the abort, and trashing it would waste the work the query
  // already paid for (salvage: the aborted query still warms the cache for
  // its successors). ---
  Stopwatch update_timer;
  int64_t admitted = 0;
  if (config_.cache_computed_results || config_.boost_groups) {
    for (const ComputedInfo& info : computed) {
      const double benefit = benefit_->CacheComputedChunkBenefit(
          static_cast<double>(info.tuples));
      if (config_.cache_computed_results) {
        cache_->Insert(results[info.result_index], benefit,
                       ChunkSource::kCacheComputed);
        ++admitted;
      }
      if (config_.boost_groups) {
        const double boost = ReplacementPolicy::NormalizedWeight(benefit);
        for (const CacheKey& key : info.group) cache_->Boost(key, boost);
      }
    }
  }
  if (config_.cache_backend_results) {
    // Only chunks this query fetched itself are inserted: for coalesced
    // chunks the leading query already inserted them, and re-inserting
    // would just churn the replacement state.
    for (ChunkData& data : backend_results) {
      const double benefit = benefit_->BackendChunkBenefit(gb, data.chunk);
      cache_->Insert(data, benefit, ChunkSource::kBackend);
      ++admitted;
    }
  }
  s.update_ms = update_timer.ElapsedMillis();

  // Scan-tuple equivalents of this query's backend work, part of the
  // recompute cost a future result-cache hit would save; tallied before
  // the fetched chunks are moved into the answer.
  double backend_cost_tuples = 0.0;
  if (layers_.result_cache != nullptr) {
    for (const ChunkData& data : backend_results) {
      backend_cost_tuples += benefit_->BackendRecomputeTuples(gb, data.chunk);
    }
    for (const ChunkData& data : coalesced_results) {
      backend_cost_tuples += benefit_->BackendRecomputeTuples(gb, data.chunk);
    }
  }

  for (ChunkData& data : backend_results) results.push_back(std::move(data));
  for (ChunkData& data : coalesced_results) results.push_back(std::move(data));

  // A query that finished all its work but past its deadline still reports
  // kDeadlineExceeded — the caller's goodput accounting needs the truth
  // even when every chunk is attached.
  ++s.cancel_checks;
  const bool deadline_hit =
      aborted || ctx->ShouldAbort() ||
      s.fetch_abort == FetchAbortReason::kDeadlineExceeded ||
      s.fetch_abort == FetchAbortReason::kCancelled;
  if (deadline_hit) {
    s.salvaged_chunks = admitted;
    s.complete_hit = false;
    s.status = ResultStatus::kDeadlineExceeded;
  } else if (!result.unavailable.empty()) {
    s.status = ResultStatus::kDegradedPartial;
  } else if (s.fetch_abort != FetchAbortReason::kNone || !backend_trusted) {
    s.status = ResultStatus::kDegradedComplete;
  } else {
    s.status = ResultStatus::kOk;
  }
  result.status = s.status;

  // --- Result-cache admission: only a clean, complete, healthy answer may
  // become a cached result (a degraded or salvaged answer could be partial
  // or built over a breaker-open view). The admission itself is cost-based
  // inside MaybeAdmit: the recompute cost is the fold work plus the
  // backend scan work a future hit avoids. ---
  if (layers_.result_cache != nullptr && s.status == ResultStatus::kOk &&
      result.unavailable.empty()) {
    Stopwatch admit_timer;
    const double recompute_cost =
        static_cast<double>(s.tuples_aggregated) + backend_cost_tuples;
    s.result_cache_admitted = layers_.result_cache->MaybeAdmit(
        result_key, gb, result.chunks, recompute_cost);
    s.update_ms += admit_timer.ElapsedMillis();
  }
  return result;
}

}  // namespace aac
