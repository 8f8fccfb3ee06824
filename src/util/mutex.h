#ifndef AAC_UTIL_MUTEX_H_
#define AAC_UTIL_MUTEX_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#if defined(AAC_LOCKDEP)
#include <source_location>
#endif

#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/thread_annotations.h"

// Annotated, rank-carrying lock types for the concurrent core.
//
// Thin wrappers over std::mutex / std::shared_mutex / std::condition_variable
// that carry the Clang Thread Safety Analysis capability attributes
// (util/thread_annotations.h). The std types cannot be annotated, so every
// mutex in src/ uses these wrappers instead; tools/lint_invariants.py
// enforces that no raw std lock type (and no naked .lock()/.unlock() call)
// appears outside this header.
//
// Every mutex is constructed with a declared LockRank and a lock-class name
// (util/lockdep.h — the pinned global lock order; lint rule R8 requires the
// rank at every member declaration). In regular builds rank and name are
// discarded and the wrappers compile to the identical code — all methods
// are inline forwards. In AAC_LOCKDEP builds every acquisition validates
// rank order against a thread-local held-lock stack (same-rank acquisitions
// must be in increasing address order; TryLock is exempt since it cannot
// block), aborts with both acquisition sites on a violation, and feeds the
// global lock-order graph that tools/lockdep_report.py checks for
// cross-run cycles.
//
// Idiom:
//
//   class Registry {
//    public:
//     int64_t size() const {
//       MutexLock lock(mutex_);
//       return entries_;        // OK: lock held
//     }
//    private:
//     void GrowLocked() AAC_REQUIRES(mutex_);  // helper needs the lock
//     mutable Mutex mutex_{LockRank::kBackend, "registry"};
//     int64_t entries_ AAC_GUARDED_BY(mutex_) = 0;
//   };

namespace aac {

#if defined(AAC_LOCKDEP)
// Call-site capture for lockdep's violation reports: the guards and lock
// methods default this to their caller's location, so a report names the
// MutexLock line, not mutex.h internals.
using LockSite = std::source_location;
#endif

/// Exclusive mutex (capability). Prefer the scoped MutexLock guard; direct
/// Lock()/Unlock() pairs are for adopt/release patterns only.
class AAC_CAPABILITY("mutex") Mutex {
 public:
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(AAC_LOCKDEP)
  explicit Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  void Lock(const LockSite& site = LockSite::current()) AAC_ACQUIRE() {
    lockdep::OnAcquire(this, rank_, name_, /*try_acquired=*/false,
                       site.file_name(), static_cast<int>(site.line()));
    mu_.lock();
  }
  void Unlock() AAC_RELEASE() {
    lockdep::OnRelease(this);
    mu_.unlock();
  }
  bool TryLock(const LockSite& site = LockSite::current())
      AAC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdep::OnAcquire(this, rank_, name_, /*try_acquired=*/true,
                       site.file_name(), static_cast<int>(site.line()));
    return true;
  }
#else
  explicit Mutex(LockRank /*rank*/, const char* /*name*/) {}

  void Lock() AAC_ACQUIRE() { mu_.lock(); }
  void Unlock() AAC_RELEASE() { mu_.unlock(); }
  bool TryLock() AAC_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

 private:
  friend class CondVar;
  std::mutex mu_;
#if defined(AAC_LOCKDEP)
  const LockRank rank_;
  const char* const name_;
#endif
};

/// Reader/writer mutex (capability): exclusive for writers, shared for
/// readers. Prefer the scoped WriterMutexLock / ReaderMutexLock guards.
/// Shared acquisitions participate in lock ordering exactly like exclusive
/// ones — reader/writer inversions deadlock just the same.
class AAC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

#if defined(AAC_LOCKDEP)
  explicit SharedMutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  void Lock(const LockSite& site = LockSite::current()) AAC_ACQUIRE() {
    lockdep::OnAcquire(this, rank_, name_, /*try_acquired=*/false,
                       site.file_name(), static_cast<int>(site.line()));
    mu_.lock();
  }
  void Unlock() AAC_RELEASE() {
    lockdep::OnRelease(this);
    mu_.unlock();
  }
  void LockShared(const LockSite& site = LockSite::current())
      AAC_ACQUIRE_SHARED() {
    lockdep::OnAcquire(this, rank_, name_, /*try_acquired=*/false,
                       site.file_name(), static_cast<int>(site.line()));
    mu_.lock_shared();
  }
  void UnlockShared() AAC_RELEASE_SHARED() {
    lockdep::OnRelease(this);
    mu_.unlock_shared();
  }
#else
  explicit SharedMutex(LockRank /*rank*/, const char* /*name*/) {}

  void Lock() AAC_ACQUIRE() { mu_.lock(); }
  void Unlock() AAC_RELEASE() { mu_.unlock(); }
  void LockShared() AAC_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() AAC_RELEASE_SHARED() { mu_.unlock_shared(); }
#endif

 private:
  std::shared_mutex mu_;
#if defined(AAC_LOCKDEP)
  const LockRank rank_;
  const char* const name_;
#endif
};

/// Scoped exclusive lock on a Mutex.
class AAC_SCOPED_CAPABILITY MutexLock {
 public:
#if defined(AAC_LOCKDEP)
  explicit MutexLock(Mutex& mu, const LockSite& site = LockSite::current())
      AAC_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(site);
  }
#else
  explicit MutexLock(Mutex& mu) AAC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
#endif
  ~MutexLock() AAC_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class AAC_SCOPED_CAPABILITY WriterMutexLock {
 public:
#if defined(AAC_LOCKDEP)
  explicit WriterMutexLock(SharedMutex& mu,
                           const LockSite& site = LockSite::current())
      AAC_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(site);
  }
#else
  explicit WriterMutexLock(SharedMutex& mu) AAC_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
#endif
  ~WriterMutexLock() AAC_RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class AAC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
#if defined(AAC_LOCKDEP)
  explicit ReaderMutexLock(SharedMutex& mu,
                           const LockSite& site = LockSite::current())
      AAC_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared(site);
  }
#else
  explicit ReaderMutexLock(SharedMutex& mu) AAC_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
#endif
  ~ReaderMutexLock() AAC_RELEASE_SHARED() { mu_.UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to aac::Mutex.
///
/// Wait() requires the mutex held and holds it again on return (the wait
/// itself releases and reacquires, as condition variables do — the analysis
/// treats the capability as held across the call, matching the caller's
/// view). Lockdep treats it the same way: the wait manipulates the raw
/// std::mutex below the wrappers, so the held-lock stack is intentionally
/// untouched across the wait and the reacquire triggers no revalidation —
/// but the waited-on mutex must be the thread's *innermost* held lock
/// (OnCondVarWait), because reacquiring it under anything acquired later
/// would be an order inversion. Spurious wakeups are possible; callers
/// loop on their predicate:
///
///   MutexLock lock(mutex_);
///   while (!done_) cv_.Wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires `mu` before returning.
  void Wait(Mutex& mu) AAC_REQUIRES(mu) {
#if defined(AAC_LOCKDEP)
    lockdep::OnCondVarWait(&mu);
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's scope
  }

  /// Like Wait, but gives up after `nanos` of real time. Returns true when
  /// notified, false on timeout (<= 0 nanos times out immediately without
  /// releasing the mutex). Spurious wakeups are possible either way;
  /// callers loop on their predicate and their remaining budget. The one
  /// such loop in src/ is WaitUntil below (lint rule R9).
  bool WaitForNanos(Mutex& mu, int64_t nanos) AAC_REQUIRES(mu) {
    if (nanos <= 0) return false;
#if defined(AAC_LOCKDEP)
    lockdep::OnCondVarWait(&mu);
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::nanoseconds(nanos));
    lock.release();  // ownership returns to the caller's scope
    return status == std::cv_status::no_timeout;
  }

  /// The deadline-bounded wait behind every waiter that serves a query
  /// (admission queues, single-flight followers): waits until `ready()`
  /// holds or `ctx` aborts, whichever comes first, and returns whether
  /// `ready()` holds. `ready` is evaluated with `mu` held, before
  /// `ctx.ShouldAbort()` on every pass, so a resolved wait never reports an
  /// abort. With neither a deadline nor a cancel token the wait blocks
  /// until notified. Otherwise it wakes at the deadline and at least once a
  /// second (remaining_ns() is effectively infinite without a deadline, and
  /// wait_for on a huge duration overflows the clock), and every 2 ms while
  /// a cancel token is set: a token has no wakeup channel of its own, and
  /// can fire at any moment, whereas a deadline cannot move closer than its
  /// remaining budget.
  template <typename Ready>
  bool WaitUntil(Mutex& mu, const ExecContext& ctx, Ready ready)
      AAC_REQUIRES(mu) {
    constexpr int64_t kMaxSliceNanos = 1'000'000'000;
    constexpr int64_t kCancelPollNanos = 2'000'000;
    while (!ready()) {
      if (ctx.ShouldAbort()) return false;
      if (!ctx.deadline.has_deadline() && ctx.cancel == nullptr) {
        Wait(mu);
        continue;
      }
      int64_t nanos = std::min(ctx.deadline.remaining_ns(), kMaxSliceNanos);
      if (ctx.cancel != nullptr) nanos = std::min(nanos, kCancelPollNanos);
      WaitForNanos(mu, nanos);
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aac

#endif  // AAC_UTIL_MUTEX_H_
