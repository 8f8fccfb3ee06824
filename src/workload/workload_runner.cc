#include "workload/workload_runner.h"

namespace aac {

void AccumulateStats(const QueryStats& stats, WorkloadTotals* totals) {
  *totals += stats;
  ++totals->queries;
  totals->complete_hits += stats.complete_hit ? 1 : 0;
  totals->degraded_complete +=
      stats.status == ResultStatus::kDegradedComplete ? 1 : 0;
  totals->degraded_partial +=
      stats.status == ResultStatus::kDegradedPartial ? 1 : 0;
  totals->breaker_rejected +=
      stats.fetch_abort == FetchAbortReason::kBreakerOpen ? 1 : 0;
  if (stats.result_cache_probed) {
    totals->result_hits += stats.result_cache_hit ? 1 : 0;
    totals->result_misses += stats.result_cache_hit ? 0 : 1;
  }
  totals->result_admitted += stats.result_cache_admitted ? 1 : 0;
  totals->shedded += stats.status == ResultStatus::kShedded ? 1 : 0;
  totals->deadline_exceeded +=
      stats.status == ResultStatus::kDeadlineExceeded ? 1 : 0;
  if (stats.complete_hit) {
    ++totals->hit_queries;
    totals->hit_lookup_ms += stats.lookup_ms;
    totals->hit_aggregation_ms += stats.aggregation_ms;
    totals->hit_update_ms += stats.update_ms;
  }
}

WorkloadTotals RunWorkload(QueryEngine& engine,
                           const std::vector<QueryStreamEntry>& stream,
                           std::vector<QueryStats>* per_query) {
  WorkloadTotals totals;
  for (const QueryStreamEntry& entry : stream) {
    QueryStats stats;
    engine.ExecuteQuery(entry.query, &stats);
    AccumulateStats(stats, &totals);
    if (per_query != nullptr) per_query->push_back(stats);
  }
  return totals;
}

}  // namespace aac
