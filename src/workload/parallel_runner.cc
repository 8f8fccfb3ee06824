#include "workload/parallel_runner.h"

#include <cstddef>
#include <utility>

#include "util/check.h"
#include "util/parallel_for.h"

namespace aac {

ParallelWorkloadRunner::ParallelWorkloadRunner(ConcurrentQueryEngine* engine,
                                               int num_threads)
    : engine_(engine), num_threads_(num_threads) {
  AAC_CHECK(engine != nullptr);
  AAC_CHECK_GE(num_threads, 1);
}

WorkloadTotals ParallelWorkloadRunner::Run(
    const std::vector<QueryStreamEntry>& stream,
    std::vector<QueryStats>* per_query) {
  std::vector<QueryStats> slots(stream.size());
  ParallelFor(static_cast<size_t>(num_threads_), stream.size(),
              [&](size_t /*worker*/, size_t i) {
                engine_->ExecuteQuery(stream[i].query, &slots[i]);
              });

  // Fold in stream order AFTER the join: the count fields of the totals do
  // not depend on which thread ran which query.
  WorkloadTotals totals;
  for (const QueryStats& stats : slots) AccumulateStats(stats, &totals);
  if (per_query != nullptr) {
    for (QueryStats& stats : slots) per_query->push_back(std::move(stats));
  }
  return totals;
}

}  // namespace aac
