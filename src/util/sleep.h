#ifndef AAC_UTIL_SLEEP_H_
#define AAC_UTIL_SLEEP_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace aac {

// The one real-time sleep. This header holds the repo's ONLY
// std::this_thread::sleep_for call (tools/lint_invariants.py bans it
// everywhere else): a wait on behalf of a query must be a deadline-bounded
// CondVar::WaitUntil, and any other wait an explicit, reviewed
// SleepForNanos — a raw sleep deep in a call chain is how an "overloaded"
// middle tier ends up stalling past every client deadline.

/// Sleeps for `nanos` of real time (<= 0 is a no-op). Use only for waits
/// that are not on behalf of a deadline-bearing query (bench arrival
/// pacing, test scaffolding).
inline void SleepForNanos(int64_t nanos) {
  if (nanos <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

}  // namespace aac

#endif  // AAC_UTIL_SLEEP_H_
