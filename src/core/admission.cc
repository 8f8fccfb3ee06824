#include "core/admission.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  AAC_CHECK(config.max_concurrent > 0);
  AAC_CHECK(config.max_concurrent_batch > 0);
  AAC_CHECK(config.max_queued_interactive >= 0);
  AAC_CHECK(config.max_queued_batch >= 0);
}

bool AdmissionController::HasCapacityLocked(QueryClass query_class) const {
  if (running_ >= config_.max_concurrent) return false;
  if (query_class == QueryClass::kBatch &&
      running_batch_ >= config_.max_concurrent_batch) {
    return false;
  }
  return true;
}

AdmissionOutcome AdmissionController::Admit(const ExecContext& ctx) {
  const QueryClass qc = ctx.query_class;
  MutexLock lock(mutex_);
  // Lock order admission → breaker (the breaker never calls back here).
  if (qc == QueryClass::kBatch && breaker_ != nullptr &&
      breaker_->state() != BreakerState::kClosed) {
    ++shed_breaker_open_;
    return AdmissionOutcome::kShedBreakerOpen;
  }
  if (!HasCapacityLocked(qc)) {
    int& queued = qc == QueryClass::kBatch ? queued_batch_ : queued_interactive_;
    const int limit = qc == QueryClass::kBatch ? config_.max_queued_batch
                                               : config_.max_queued_interactive;
    if (queued >= limit) {
      ++shed_queue_full_;
      return AdmissionOutcome::kShedQueueFull;
    }
    ++queued;
    peak_queued_ = std::max<int64_t>(peak_queued_,
                                     queued_interactive_ + queued_batch_);
    // The predicate runs with mutex_ held (WaitUntil's contract); the
    // analysis sees the lambda as a separate function.
    const bool admitted = slot_freed_.WaitUntil(
        mutex_, ctx,
        [&]() AAC_NO_THREAD_SAFETY_ANALYSIS { return HasCapacityLocked(qc); });
    --queued;
    if (!admitted) {
      ++expired_in_queue_;
      return AdmissionOutcome::kDeadlineExpiredInQueue;
    }
  }
  ++running_;
  if (qc == QueryClass::kBatch) ++running_batch_;
  ++admitted_;
  return AdmissionOutcome::kAdmitted;
}

void AdmissionController::Release(QueryClass query_class) {
  {
    MutexLock lock(mutex_);
    AAC_CHECK(running_ > 0);
    --running_;
    if (query_class == QueryClass::kBatch) {
      AAC_CHECK(running_batch_ > 0);
      --running_batch_;
    }
  }
  // NotifyAll, not NotifyOne: the woken waiter might be a batch query that
  // still lacks class capacity while an interactive waiter could run.
  slot_freed_.NotifyAll();
}

AdmissionStats AdmissionController::stats() const {
  MutexLock lock(mutex_);
  AdmissionStats s;
  s.admitted = admitted_;
  s.shed_queue_full = shed_queue_full_;
  s.shed_breaker_open = shed_breaker_open_;
  s.expired_in_queue = expired_in_queue_;
  s.running = running_;
  s.queued = queued_interactive_ + queued_batch_;
  s.peak_queued = peak_queued_;
  return s;
}

}  // namespace aac
