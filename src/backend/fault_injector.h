#ifndef AAC_BACKEND_FAULT_INJECTOR_H_
#define AAC_BACKEND_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "backend/backend.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/thread_annotations.h"

namespace aac {

/// Fault schedule for a FaultInjectingBackend. Rates are per-call
/// probabilities and are mutually exclusive (drawn from one uniform variate
/// in the order error, timeout, partial, spike); their sum must be <= 1.
struct FaultConfig {
  /// Call fails fast with kTransientError (connection reset, deadlock
  /// victim, failover blip). Charges `error_latency_ns`.
  double transient_error_rate = 0.0;

  /// Call fails with kTimeout after the full `timeout_ns` was paid.
  double timeout_rate = 0.0;

  /// Call returns kPartial with a deterministic subset of the requested
  /// chunks (each kept with probability `partial_keep_fraction`); the
  /// inner backend executes — and charges latency for — the subset only.
  double partial_result_rate = 0.0;
  double partial_keep_fraction = 0.5;

  /// Call succeeds but 25 ms extra is charged (lock contention, checkpoint
  /// stall on the shared RDBMS).
  double latency_spike_rate = 0.0;

  int64_t error_latency_ns = 2'000'000;     // fast failure round trip
  int64_t timeout_ns = 50'000'000;          // client-side timeout budget

  uint64_t seed = 1;

  /// True if any fault can ever fire.
  bool any() const {
    return transient_error_rate > 0.0 || timeout_rate > 0.0 ||
           partial_result_rate > 0.0 || latency_spike_rate > 0.0;
  }
};

/// Running totals of injected faults.
struct FaultStats {
  int64_t calls = 0;
  int64_t clean = 0;
  int64_t transient_errors = 0;
  int64_t timeouts = 0;
  int64_t partials = 0;
  int64_t latency_spikes = 0;
};

/// Deterministic fault-injecting decorator over any Backend.
///
/// Each ExecuteChunkQuery draws one uniform variate from a seeded Rng to
/// pick the fault (if any), so a given seed yields the same fault schedule
/// across runs — experiments with injected failures stay reproducible.
/// Injected delays (timeouts, fast-failure round trips, latency spikes) are
/// charged into the SimClock like real backend latency, so degraded-mode
/// latency figures are honest. Estimates pass through unmodified: the cost
/// model describes the healthy backend, and the optimizer should not be
/// clairvoyant about upcoming faults.
///
/// Thread-safe: calls serialize internally (the fault schedule draws from
/// one seeded Rng, and stats are shared); the serialized schedule is what
/// keeps concurrent runs reproducible in aggregate.
class FaultInjectingBackend : public Backend {
 public:
  /// `inner` must outlive the decorator. `clock` may be null (no injected
  /// latency accounting, faults still fire).
  FaultInjectingBackend(Backend* inner, const FaultConfig& config,
                        SimClock* clock);

  const BackendCostModel& cost_model() const override {
    return inner_->cost_model();
  }

  BackendResult ExecuteChunkQuery(GroupById gb,
                                  const std::vector<ChunkId>& chunks) override;

  int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const override {
    return inner_->EstimateQueryCostNanos(gb, chunks);
  }

  int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                         ChunkId chunk) const override {
    return inner_->EstimateMarginalChunkCostNanos(gb, chunk);
  }

  const FaultConfig& config() const { return config_; }

  /// Snapshot of the fault counters (by value: a reference would race with
  /// concurrent ExecuteChunkQuery calls updating them).
  FaultStats stats() const {
    MutexLock lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(mutex_);
    stats_ = FaultStats();
  }

 private:
  Backend* inner_;
  FaultConfig config_;
  SimClock* clock_;
  mutable Mutex mutex_{LockRank::kFaultInjector, "fault_injector"};
  Rng rng_ AAC_GUARDED_BY(mutex_);
  FaultStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_BACKEND_FAULT_INJECTOR_H_
