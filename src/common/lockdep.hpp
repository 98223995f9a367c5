// Lockdep-lite: a capability-annotated mutex wrapper with an optional
// debug-build runtime lock-ORDER checker, plus the matching RAII guards
// and condition variable the serving stack uses instead of the raw
// std:: primitives (tools/rt3_lint.py bans raw std::mutex in src/).
//
// Two enforcement layers share this header:
//
//  * Compile time (any build, clang only): rt3::Mutex carries clang
//    thread-safety capability attributes (common/thread_annotations.hpp),
//    so `-Wthread-safety -Werror=thread-safety-analysis` proves every
//    RT3_GUARDED_BY member is only touched under its lock.
//
//  * Run time (RT3_LOCKDEP=1 builds only): every lock/unlock updates a
//    per-thread held-lock stack and a global acquired-before graph keyed
//    by the mutex NAME (its lock class, in kernel-lockdep terms).  The
//    first acquisition that would close a cycle — thread 1 took A then B,
//    thread 2 takes B then A — is reported immediately with both lock
//    names and both sides' held stacks, even if the interleaving never
//    actually deadlocks in this run.  Detection is deterministic at first
//    occurrence: a deterministic execution reports the same inversion at
//    the same acquisition site every run.  TSan cannot do this — it only
//    sees orders that actually raced.
//
// With RT3_LOCKDEP=0 (the default, and all release builds) the wrapper
// compiles to inline forwarding around a plain std::mutex — no atomics,
// no branches, no extra state — so the serving-path results stay
// byte-identical to an uninstrumented build (checked by the bench
// byte-identity cell).  Build the checker with
//     cmake -B build-lockdep -S . -DRT3_LOCKDEP=ON -DCMAKE_BUILD_TYPE=Debug
#pragma once

#ifndef RT3_LOCKDEP
#define RT3_LOCKDEP 0
#endif

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace rt3 {

#if RT3_LOCKDEP

namespace lockdep {

/// Interns `name` as a lock class, returning its stable id.  Mutexes
/// constructed with the same name share one node in the ordering graph
/// (instances of a class are interchangeable for ordering purposes, and
/// short-lived instances must not leak graph nodes).
int register_class(const char* name);

/// Records an acquisition of lock class `cls` on this thread: checks the
/// acquired-before graph for an inversion against every currently held
/// class, reports the first cycle found, then pushes `cls` onto the
/// held stack.
void on_lock(int cls);

/// Records a successful try_lock: pushes onto the held stack WITHOUT
/// edge recording or cycle checking — a non-blocking acquire cannot
/// participate in a deadlock cycle.
void on_try_lock(int cls);

/// Pops (the most recent occurrence of) `cls` off this thread's stack.
void on_unlock(int cls);

/// Inversion report hook.  The default handler prints the report to
/// stderr and aborts; tests install a throwing handler instead.  Pass
/// nullptr to restore the default.  The handler runs with no lockdep
/// bookkeeping lock held.
using Handler = void (*)(const char* report);
void set_handler(Handler handler);

/// Drops every recorded class, edge, and the CALLING thread's held
/// stack.  Test isolation only — never call while other threads hold
/// instrumented locks.
void reset();

/// Number of distinct acquired-before edges recorded so far (test hook).
int num_edges();

}  // namespace lockdep

#endif  // RT3_LOCKDEP

/// Capability-annotated mutex.  `name` is the lockdep lock class
/// ("ThreadPool::mu_"); unnamed instances share the "(anonymous)"
/// class, so give every long-lived mutex a distinct name.
class RT3_CAPABILITY("mutex") Mutex {
 public:
#if RT3_LOCKDEP
  Mutex() : cls_(lockdep::register_class("(anonymous)")) {}
  explicit Mutex(const char* name) : cls_(lockdep::register_class(name)) {}

  void lock() RT3_ACQUIRE() {
    lockdep::on_lock(cls_);
    mu_.lock();
  }
  bool try_lock() RT3_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) {
      lockdep::on_try_lock(cls_);
    }
    return ok;
  }
  void unlock() RT3_RELEASE() {
    mu_.unlock();
    lockdep::on_unlock(cls_);
  }
#else
  Mutex() = default;
  explicit Mutex(const char* /*name*/) {}

  void lock() RT3_ACQUIRE() { mu_.lock(); }
  bool try_lock() RT3_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RT3_RELEASE() { mu_.unlock(); }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// The wrapped std::mutex, for interop that needs the native type
  /// (CondVar's release-build fast path).  Lock/unlock through it
  /// bypasses lockdep — only adopt/release around an already-held lock.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
#if RT3_LOCKDEP
  const int cls_;
#endif
};

/// std::lock_guard equivalent over rt3::Mutex.
class RT3_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RT3_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RT3_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent over rt3::Mutex: supports early unlock()
/// (release the lock before notifying a condition variable) and is the
/// lock type rt3::CondVar waits on.
class RT3_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) RT3_ACQUIRE(mu) : mu_(&mu), owns_(true) {
    mu_->lock();
  }
  ~UniqueLock() RT3_RELEASE() {
    if (owns_) {
      mu_->unlock();
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() RT3_ACQUIRE() {
    mu_->lock();
    owns_ = true;
  }
  void unlock() RT3_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }

  bool owns_lock() const { return owns_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool owns_;
};

/// Condition variable waiting on UniqueLock<rt3::Mutex>.
///
/// Release builds forward to a plain std::condition_variable by adopting
/// the wrapped std::mutex around the wait — byte-for-byte the historical
/// primitive, no condition_variable_any indirection.  Lockdep builds use
/// condition_variable_any so the re-acquire after a wake goes back
/// through the instrumented Mutex::lock and is ORDER-CHECKED like any
/// other acquisition.
///
/// Waits deliberately take no predicate: clang's analysis cannot see
/// into a predicate lambda, so callers write the `while (!cond) wait;`
/// loop in the locked scope where guarded reads are provably protected.
class CondVar {
 public:
  /// Caller holds `lock`; on return the lock is held again.  The
  /// analysis treats the call as opaque (lock held throughout), which
  /// matches the caller-visible contract.
  void wait(UniqueLock& lock) {
#if RT3_LOCKDEP
    cv_.wait(lock);
#else
    std::unique_lock<std::mutex> raw(lock.mutex()->native_handle(),
                                     std::adopt_lock);
    cv_.wait(raw);
    raw.release();  // ownership stays with `lock`
#endif
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
#if RT3_LOCKDEP
  std::condition_variable_any cv_;
#else
  std::condition_variable cv_;
#endif
};

}  // namespace rt3
