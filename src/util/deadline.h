#ifndef AAC_UTIL_DEADLINE_H_
#define AAC_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace aac {

/// Cooperative cancellation flag, shared between the thread running a query
/// and whoever may abandon it (a disconnecting client, a supervisor, a
/// test). Thread-safe; one token may cover many queries of a session.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// End-to-end budget for one query.
///
/// The repo runs on two clocks (DESIGN.md "Substitutions"): middle-tier
/// work elapses in real time, backend latency is charged as *simulated*
/// nanoseconds into the shared SimClock. A per-query deadline must count
/// both, and it must not read the shared SimClock (a delta there would
/// absorb every other thread's charges) — so the deadline tracks real time
/// from its own start point plus the simulated nanoseconds this query was
/// explicitly charged via ChargeSimulated.
///
/// Copyable value type. ChargeSimulated is not thread-safe: a deadline
/// belongs to the one thread executing its query (creation may happen
/// earlier on another thread, e.g. at arrival in an open-loop driver, with
/// the hand-off providing the synchronization).
class Deadline {
 public:
  /// No deadline: never expires, remaining_ns() is effectively infinite.
  Deadline() = default;

  /// Expires `budget_ns` from now (<= 0 means already expired).
  static Deadline AfterNanos(int64_t budget_ns) {
    Deadline d;
    d.has_deadline_ = true;
    d.budget_ns_ = budget_ns;
    d.start_ = std::chrono::steady_clock::now();
    return d;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Real + charged simulated nanoseconds consumed since creation.
  int64_t elapsed_ns() const {
    const int64_t real =
        has_deadline_
            ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()
            : 0;
    return real + sim_spent_ns_;
  }

  /// Budget left; may be negative once expired. Effectively infinite when
  /// no deadline was set.
  int64_t remaining_ns() const {
    if (!has_deadline_) return std::numeric_limits<int64_t>::max();
    return budget_ns_ - elapsed_ns();
  }

  bool expired() const { return has_deadline_ && remaining_ns() <= 0; }

  /// Counts `nanos` of simulated backend latency this query was charged
  /// against the budget (real time advances on its own).
  void ChargeSimulated(int64_t nanos) {
    if (nanos > 0) sim_spent_ns_ += nanos;
  }

  int64_t budget_ns() const { return budget_ns_; }

 private:
  bool has_deadline_ = false;
  int64_t budget_ns_ = 0;
  int64_t sim_spent_ns_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// Scheduling class of a query. Admission control admits interactive
/// traffic (a user waiting on a dashboard) ahead of batch traffic (report
/// generation, one-off scans), and sheds batch first under overload or
/// while the backend breaker is open. For cache residency, batch means
/// read-only: a batch query is answered from every cache layer but
/// inserts, promotes and admits nothing (QueryEngine::ExecuteQuery), so a
/// one-off scan cannot evict the entries interactive queries reuse. Warm
/// a cache with interactive queries or the preloader, not with batch ones.
enum class QueryClass { kInteractive, kBatch };

/// Per-query execution context threaded from the caller through admission,
/// the engine, the fold loops and the backend fetch path. Default
/// construction means: no deadline, no cancel token, interactive class —
/// exactly the pre-deadline behavior.
struct ExecContext {
  Deadline deadline;
  /// Optional external cancellation; may outlive and span many queries.
  CancelToken* cancel = nullptr;
  QueryClass query_class = QueryClass::kInteractive;

  /// The cooperative-cancellation predicate every checkpoint evaluates.
  bool ShouldAbort() const {
    return (cancel != nullptr && cancel->cancelled()) || deadline.expired();
  }
};

}  // namespace aac

#endif  // AAC_UTIL_DEADLINE_H_
