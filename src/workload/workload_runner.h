#ifndef AAC_WORKLOAD_WORKLOAD_RUNNER_H_
#define AAC_WORKLOAD_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/query_engine.h"
#include "workload/query_stream.h"

namespace aac {

/// Aggregate outcome of running a query stream through an engine — the
/// numbers the paper's Figures 7–10 and Table 4 are built from: the sums of
/// every per-query counter, plus per-outcome query counts.
struct WorkloadTotals : QueryCounters {
  int64_t queries = 0;
  int64_t complete_hits = 0;

  // Fault-path outcomes (all zero against a healthy backend).
  int64_t degraded_complete = 0;  // fully answered while backend was down
  int64_t degraded_partial = 0;   // some chunks unavailable
  int64_t breaker_rejected = 0;   // queries that never reached the backend

  // Semantic result-cache outcomes (all zero without a ResultCache).
  int64_t result_hits = 0;      // queries answered wholesale by the layer
  int64_t result_misses = 0;    // probed, not found
  int64_t result_admitted = 0;  // finished answers admitted

  // Overload-path outcomes (all zero without deadlines/admission control).
  int64_t shedded = 0;            // refused by admission control
  int64_t deadline_exceeded = 0;  // deadline or cancel fired mid-query

  // The same sums restricted to complete-hit queries (Figure 10's bars).
  int64_t hit_queries = 0;
  double hit_lookup_ms = 0.0;
  double hit_aggregation_ms = 0.0;
  double hit_update_ms = 0.0;

  double AvgQueryMs() const {
    return queries == 0 ? 0.0 : TotalMs() / static_cast<double>(queries);
  }
  double CompleteHitPercent() const {
    return queries == 0 ? 0.0
                        : 100.0 * static_cast<double>(complete_hits) /
                              static_cast<double>(queries);
  }
  /// Fraction of queries answered in degraded mode (complete or partial).
  double DegradedPercent() const {
    return queries == 0 ? 0.0
                        : 100.0 *
                              static_cast<double>(degraded_complete +
                                                  degraded_partial) /
                              static_cast<double>(queries);
  }
  double AvgHitMs() const {
    return hit_queries == 0 ? 0.0
                            : (hit_lookup_ms + hit_aggregation_ms +
                               hit_update_ms) /
                                  static_cast<double>(hit_queries);
  }
};

/// Folds one query's stats into `totals`. Shared by the serial and
/// parallel runners so both produce identically-defined totals.
void AccumulateStats(const QueryStats& stats, WorkloadTotals* totals);

/// Runs `stream` through `engine`, accumulating totals; per-query stats are
/// appended to `per_query` when non-null.
WorkloadTotals RunWorkload(QueryEngine& engine,
                           const std::vector<QueryStreamEntry>& stream,
                           std::vector<QueryStats>* per_query = nullptr);

}  // namespace aac

#endif  // AAC_WORKLOAD_WORKLOAD_RUNNER_H_
