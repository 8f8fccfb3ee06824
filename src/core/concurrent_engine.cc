#include "core/concurrent_engine.h"

#include <utility>

#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

ConcurrentQueryEngine::ConcurrentQueryEngine(EngineFactory factory)
    : factory_(std::move(factory)) {
  AAC_CHECK(factory_ != nullptr);
  layers_.single_flight = &single_flight_;
  layers_.plan_cache = &rollup_plans_;
}

std::unique_ptr<QueryEngine> ConcurrentQueryEngine::Borrow() {
  {
    MutexLock lock(pool_mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<QueryEngine> engine = std::move(idle_.back());
      idle_.pop_back();
      return engine;
    }
    ++engines_created_;
  }
  // Build outside the lock: the factory may do nontrivial setup.
  std::unique_ptr<QueryEngine> engine = factory_();
  AAC_CHECK(engine != nullptr);
  engine->Attach(layers_);
  return engine;
}

void ConcurrentQueryEngine::ConfigureMorsels(int num_helpers) {
  AAC_CHECK_EQ(engines_created(), 0);  // configure before the first query
  morsel_pool_ =
      num_helpers > 0 ? std::make_unique<MorselPool>(num_helpers) : nullptr;
  layers_.morsel_pool = morsel_pool_.get();
}

void ConcurrentQueryEngine::ConfigureAdmission(const AdmissionConfig& config) {
  admission_ = std::make_unique<AdmissionController>(config);
  admission_->set_circuit_breaker(layers_.breaker);
}

void ConcurrentQueryEngine::set_shared_breaker(CircuitBreaker* breaker) {
  AAC_CHECK_EQ(engines_created(), 0);  // configure before the first query
  layers_.breaker = breaker;
  if (admission_ != nullptr) admission_->set_circuit_breaker(breaker);
}

void ConcurrentQueryEngine::set_result_cache(ResultCache* result_cache) {
  AAC_CHECK_EQ(engines_created(), 0);  // configure before the first query
  layers_.result_cache = result_cache;
}

void ConcurrentQueryEngine::set_warm_tier(WarmTier* warm_tier) {
  AAC_CHECK_EQ(engines_created(), 0);  // configure before the first query
  layers_.warm_tier = warm_tier;
}

void ConcurrentQueryEngine::Return(std::unique_ptr<QueryEngine> engine) {
  // Idle-engine hygiene: a query that folded a huge chunk leaves its
  // engine's arena at that high-water mark; give the scratch back before
  // the engine idles (outside the pool lock — the engine is still
  // exclusively ours here). Helper arenas have the analogous post-job trim
  // inside MorselPool.
  if (engine->TrimFoldArenaIfAbove(kEngineArenaTrimBytes)) {
    fold_arena_trims_.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(pool_mutex_);
  idle_.push_back(std::move(engine));
}

QueryResult ConcurrentQueryEngine::ExecuteQuery(const Query& query,
                                                QueryStats* stats) {
  return ExecuteQuery(query, /*ctx=*/nullptr, stats);
}

QueryResult ConcurrentQueryEngine::ExecuteQuery(const Query& query,
                                                ExecContext* ctx,
                                                QueryStats* stats) {
  QueryStats local;
  QueryStats& s = stats != nullptr ? *stats : local;
  double queue_wait_ms = 0.0;
  const bool gated = admission_ != nullptr && ctx != nullptr;
  if (gated) {
    Stopwatch queue_timer;
    const AdmissionOutcome outcome = admission_->Admit(*ctx);
    queue_wait_ms = queue_timer.ElapsedMillis();
    if (outcome != AdmissionOutcome::kAdmitted) {
      // Resolved at the gate: typed result, no engine borrowed, no work
      // done, no cache state touched.
      s = QueryStats();
      s.queue_wait_ms = queue_wait_ms;
      QueryResult result;
      if (outcome == AdmissionOutcome::kDeadlineExpiredInQueue) {
        s.fetch_abort = ctx->cancel != nullptr && ctx->cancel->cancelled()
                            ? FetchAbortReason::kCancelled
                            : FetchAbortReason::kDeadlineExceeded;
        s.status = ResultStatus::kDeadlineExceeded;
      } else {
        s.status = ResultStatus::kShedded;
      }
      result.status = s.status;
      return result;
    }
  }
  std::unique_ptr<QueryEngine> engine = Borrow();
  QueryResult result = engine->ExecuteQuery(query, ctx, &s);
  s.queue_wait_ms = queue_wait_ms;  // the engine resets stats; set after
  Return(std::move(engine));
  if (gated) admission_->Release(ctx->query_class);
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

int64_t ConcurrentQueryEngine::engines_created() const {
  MutexLock lock(pool_mutex_);
  return engines_created_;
}

}  // namespace aac
