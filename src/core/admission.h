#ifndef AAC_CORE_ADMISSION_H_
#define AAC_CORE_ADMISSION_H_

#include <cstdint>

#include "core/circuit_breaker.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Knobs for ConcurrentQueryEngine's admission controller.
struct AdmissionConfig {
  /// Queries allowed to run concurrently (the engine's execution slots).
  int max_concurrent = 8;

  /// Of those, at most this many batch-class queries — interactive work
  /// keeps headroom even when batch load is unbounded.
  int max_concurrent_batch = 2;

  /// Bounded run queues, per class. A query arriving to a full queue is
  /// shed immediately (typed kShedded result) instead of joining an
  /// unbounded convoy it would time out inside anyway.
  int max_queued_interactive = 32;
  int max_queued_batch = 8;
};

/// How one admission request resolved.
enum class AdmissionOutcome {
  kAdmitted,
  kShedQueueFull,          // the class's bounded queue was full
  kShedBreakerOpen,        // batch query while the breaker was open
  kDeadlineExpiredInQueue, // deadline/cancel fired while queued
};

/// Counter snapshot (see AdmissionController::stats).
struct AdmissionStats {
  int64_t admitted = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_breaker_open = 0;
  int64_t expired_in_queue = 0;
  int64_t running = 0;      // currently executing (snapshot)
  int64_t queued = 0;       // currently waiting (snapshot)
  int64_t peak_queued = 0;  // high-water mark of the wait queue
};

/// Bounded-concurrency admission control in front of ConcurrentQueryEngine.
///
/// Without it every caller is admitted instantly and the OS scheduler
/// arbitrates: under an open-loop storm arriving faster than the engine can
/// drain, latency grows without bound and every query eventually misses its
/// deadline — goodput collapses to zero while the machine stays busy. This
/// controller keeps the engine at a fixed multiprogramming level and converts
/// overload into *typed, immediate* rejections (load shedding) instead of
/// unbounded queueing delay, the classic admission-control trade: serve
/// fewer queries entirely rather than all queries too late.
///
/// Two classes: interactive queries get the full slot budget; batch queries
/// are capped at a lower concurrent limit and shed first (including
/// whenever the breaker reports the backend down). Waits in the queue are
/// deadline-bounded — a query whose budget expires while queued resolves
/// immediately as kDeadlineExpiredInQueue rather than occupying a slot it
/// can no longer use.
///
/// Thread-safe. Lock ordering: the admission mutex may be held while
/// consulting the CircuitBreaker (admission → breaker); the breaker never
/// calls back into admission.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Attaches the engine's breaker: while it is not closed, batch queries
  /// are shed outright, since with the backend unreachable the engine's
  /// capacity is better spent on interactive queries the cache can still
  /// answer. Null disables the check. Set before concurrent use; the
  /// breaker must outlive the controller.
  void set_circuit_breaker(CircuitBreaker* breaker) { breaker_ = breaker; }

  /// Blocks until a slot is free, the queue rejects the query, or the
  /// query's own deadline/cancel fires. Exactly when kAdmitted is returned,
  /// the caller owns one slot and must call Release(ctx.query_class) when
  /// the query finishes.
  AdmissionOutcome Admit(const ExecContext& ctx) AAC_EXCLUDES(mutex_);

  /// Returns the slot taken by a successful Admit.
  void Release(QueryClass query_class) AAC_EXCLUDES(mutex_);

  AdmissionStats stats() const AAC_EXCLUDES(mutex_);

  const AdmissionConfig& config() const { return config_; }

 private:
  /// A free slot exists for this class right now.
  bool HasCapacityLocked(QueryClass query_class) const AAC_REQUIRES(mutex_);

  const AdmissionConfig config_;
  CircuitBreaker* breaker_ = nullptr;  // set before threads start

  mutable Mutex mutex_{LockRank::kAdmission, "admission"};
  CondVar slot_freed_;
  int running_ AAC_GUARDED_BY(mutex_) = 0;
  int running_batch_ AAC_GUARDED_BY(mutex_) = 0;
  int queued_interactive_ AAC_GUARDED_BY(mutex_) = 0;
  int queued_batch_ AAC_GUARDED_BY(mutex_) = 0;
  int64_t admitted_ AAC_GUARDED_BY(mutex_) = 0;
  int64_t shed_queue_full_ AAC_GUARDED_BY(mutex_) = 0;
  int64_t shed_breaker_open_ AAC_GUARDED_BY(mutex_) = 0;
  int64_t expired_in_queue_ AAC_GUARDED_BY(mutex_) = 0;
  int64_t peak_queued_ AAC_GUARDED_BY(mutex_) = 0;
};

}  // namespace aac

#endif  // AAC_CORE_ADMISSION_H_
