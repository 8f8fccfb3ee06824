#ifndef AAC_UTIL_THREAD_ANNOTATIONS_H_
#define AAC_UTIL_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis annotations.
//
// These macros expose Clang's `-Wthread-safety` capability analysis to the
// concurrent core: mutexes are declared as *capabilities*, data members name
// the capability that guards them (`AAC_GUARDED_BY`), and functions declare
// the capabilities they acquire, release or require. A Clang build with
// `-Wthread-safety -Werror=thread-safety-analysis` (tools/lint.sh) then
// proves the lock discipline at compile time: an unguarded read of a guarded
// field, a missing `AAC_REQUIRES` on a lock-requiring helper, or a
// double-acquire all become build errors instead of schedules TSan may or
// may not explore.
//
// Under compilers without the attribute family (GCC builds of this repo)
// every macro expands to nothing, so the annotations are free.
//
// Use the `aac::Mutex` / `aac::SharedMutex` wrappers from util/mutex.h
// rather than annotating raw std types: the std mutexes cannot carry the
// capability attribute, and tools/lint_invariants.py rejects raw std lock
// types outside the wrapper header.

#if defined(__clang__) && (!defined(SWIG))
#define AAC_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define AAC_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Declares a class to be a capability (lockable type).
#define AAC_CAPABILITY(x) AAC_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class whose lifetime acquires/releases a capability.
#define AAC_SCOPED_CAPABILITY AAC_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Data member is protected by the given capability.
#define AAC_GUARDED_BY(x) AAC_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define AAC_PT_GUARDED_BY(x) AAC_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Function acquires the capability (exclusively) and does not release it.
#define AAC_ACQUIRE(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared and does not release it.
#define AAC_ACQUIRE_SHARED(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability.
#define AAC_RELEASE(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// Function releases a shared hold of the capability.
#define AAC_RELEASE_SHARED(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// Caller must hold the capability exclusively for the call's duration.
#define AAC_REQUIRES(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// Caller must hold the capability at least shared.
#define AAC_REQUIRES_SHARED(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention).
#define AAC_EXCLUDES(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Function tries to acquire the capability; first argument is the return
/// value meaning success.
#define AAC_TRY_ACQUIRE(...) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define AAC_RETURN_CAPABILITY(x) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Function asserts (at runtime) that the capability is held.
#define AAC_ASSERT_CAPABILITY(x) \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// Escape hatch: the function's body is not analyzed. Used only for
/// documented quiesced-only accessors (construction-time seeding, test
/// oracles on an idle structure) where the discipline is ownership-based
/// rather than lock-based, and for the callbacks a store hands to
/// ClockRing::Sweep under its lock (the analysis does not carry a held lock
/// into a lambda; see ClockRing). Every other use carries a comment saying
/// why.
#define AAC_NO_THREAD_SAFETY_ANALYSIS \
  AAC_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // AAC_UTIL_THREAD_ANNOTATIONS_H_
