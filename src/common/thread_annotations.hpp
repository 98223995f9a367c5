// Clang thread-safety-analysis attribute shim (no-ops elsewhere).
//
// The serving stack's concurrency contract — which mutex guards which
// member, which methods must (not) be called with a lock held — is
// written down with these macros so `clang++ -Wthread-safety
// -Werror=thread-safety-analysis` (the CI static-analysis leg) rejects a
// PR that touches guarded state without the right lock, instead of the
// contract living only in comments.  See rt3::Mutex in common/lockdep.hpp
// for the capability-annotated mutex these attributes attach to;
// std::mutex itself carries no attributes, so the analysis is vacuous on
// raw std::mutex (which the `raw-mutex` rule of tools/rt3_lint.py bans in
// src/ for exactly that reason).
//
// Macro set and semantics follow the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define RT3_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RT3_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex").
#define RT3_CAPABILITY(x) RT3_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define RT3_SCOPED_CAPABILITY RT3_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be touched while `x` is held.
#define RT3_GUARDED_BY(x) RT3_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose POINTEE may only be touched while `x` is held.
#define RT3_PT_GUARDED_BY(x) RT3_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (and did not hold it on entry).
#define RT3_ACQUIRE(...) RT3_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define RT3_RELEASE(...) RT3_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability; holds it iff it returned `b`.
#define RT3_TRY_ACQUIRE(b, ...) \
  RT3_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Caller must hold the capability across the call.
#define RT3_REQUIRES(...) \
  RT3_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself —
/// calling with it held would self-deadlock).
#define RT3_EXCLUDES(...) RT3_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Returns a reference to the capability guarding the returned object.
#define RT3_RETURN_CAPABILITY(x) RT3_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (document why!).
#define RT3_NO_THREAD_SAFETY_ANALYSIS \
  RT3_THREAD_ANNOTATION(no_thread_safety_analysis)
