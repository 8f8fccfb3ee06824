#include "core/concurrent_engine.h"

#include <utility>

#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

ConcurrentQueryEngine::ConcurrentQueryEngine(EngineFactory factory) {
  AAC_CHECK(factory != nullptr);
  engine_ = factory();
  AAC_CHECK(engine_ != nullptr);
}

void ConcurrentQueryEngine::ConfigureMorsels(int /*num_helpers*/) {
  AAC_CHECK_EQ(queries_executed(), 0);  // configure before the first query
}

void ConcurrentQueryEngine::ConfigureAdmission(const AdmissionConfig& config) {
  // A query holding a slot would release it into the new controller, and a
  // queued one would wait on the old controller's destroyed CondVar.
  AAC_CHECK_EQ(queries_executed(), 0);  // configure before the first query
  admission_ = std::make_unique<AdmissionController>(config);
  admission_->set_circuit_breaker(engine_->circuit_breaker());
}

void ConcurrentQueryEngine::set_result_cache(ResultCache* result_cache) {
  AAC_CHECK_EQ(queries_executed(), 0);  // configure before the first query
  engine_->Attach({.result_cache = result_cache});
}

void ConcurrentQueryEngine::set_warm_tier(WarmTier* warm_tier) {
  AAC_CHECK_EQ(queries_executed(), 0);  // configure before the first query
  engine_->Attach({.warm_tier = warm_tier});
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
      // Resolved at the gate: typed result, no work done, no cache state
      // touched.
      s = QueryStats();
      s.queue_wait_ms = queue_wait_ms;
      QueryResult result;
      if (outcome == AdmissionOutcome::kDeadlineExpiredInQueue) {
        s.fetch_abort = AbortReasonFor(*ctx);
        s.status = ResultStatus::kDeadlineExceeded;
      } else {
        s.status = ResultStatus::kShedded;
      }
      result.status = s.status;
      return result;
    }
  }
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  QueryResult result = engine_->ExecuteQuery(query, ctx, &s);
  s.queue_wait_ms = queue_wait_ms;  // the engine resets stats; set after
  if (gated) admission_->Release(ctx->query_class);
  return result;
}

}  // namespace aac
