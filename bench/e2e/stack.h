#ifndef AAC_BENCH_E2E_STACK_H_
#define AAC_BENCH_E2E_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "backend/backend.h"
#include "cache/chunk_cache.h"
#include "cache/result_cache.h"
#include "core/concurrent_engine.h"
#include "core/strategy.h"
#include "core/vcmc.h"
#include "trace.h"
#include "workload/experiment.h"

namespace aac::e2e {

/// Shares of the RAM budget B: hot chunk cache, warm tier (encoded bytes)
/// and result cache.
inline constexpr double kHotShare = 0.50;
inline constexpr double kWarmShare = 0.35;
inline constexpr double kResultShare = 0.15;

/// What differs between the stacks of two workloads: the data and the
/// budgets. Everything else is fixed in BuildStack.
struct StackConfig {
  int64_t tuples = 120'000;  // fact tuples generated, before merging
  uint64_t seed = 1;
  /// B as a fraction of the base table's logical bytes.
  double budget_fraction = 0.68;
  /// Disk spill budget D in bytes; 0 means no disk tier.
  int64_t disk_bytes = 0;
  std::string spill_path;
};

/// The assembled middle tier. Members are destroyed bottom-up, so the
/// engine pool goes before the components its engines point at.
struct Stack {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<VcmcStrategy> vcmc;
  std::unique_ptr<ResultCache> results;
  // Traced decorators over the seams; null in an untraced stack.
  std::unique_ptr<Backend> traced_backend;
  std::unique_ptr<LookupStrategy> traced_strategy;
  std::unique_ptr<CacheListener> traced_maintain;
  std::unique_ptr<DemotionSink> traced_demote;
  std::unique_ptr<ConcurrentQueryEngine> pool;

  int64_t budget_bytes = 0;  // B
  /// FindPlan calls through the traced strategy (traced stacks only).
  std::atomic<int64_t> find_plan_calls{0};
};

/// Builds the stack from public APIs only: an Experiment for the data,
/// cache, tiers and backend (built with the no-aggregation strategy, so its
/// own strategy registers no listener), a bench-owned VCMC strategy, a
/// result cache, and an engine pool with admission control and morsel
/// helpers. With a non-null `tracer` the backend, the strategy, VCMC's
/// listener and the warm tier's demotion sink are wrapped in decorators
/// that record spans.
std::unique_ptr<Stack> BuildStack(const StackConfig& config, Tracer* tracer);

}  // namespace aac::e2e

#endif  // AAC_BENCH_E2E_STACK_H_
