// Clang thread-safety annotations + annotated synchronisation wrappers.
//
// The concurrent core of the library (common::ThreadPool and the
// gather-plan cache shared across a batch's lanes) keeps its invariants
// by lock discipline that TSan can only check for the schedules a test happens
// to produce.  This header makes the discipline *compile-time checked*:
// the CI static-analysis job builds the tree with clang's
// -Wthread-safety -Werror, and every mutex-protected member is declared
// with KIBAMRM_GUARDED_BY so an unlocked access is a build error, not a
// latent race.  On compilers without the attributes (gcc) everything
// expands to nothing -- the annotations carry zero runtime or ABI cost.
//
// Two layers live here:
//
//   1. The raw attribute macros (KIBAMRM_GUARDED_BY, KIBAMRM_REQUIRES,
//      KIBAMRM_ACQUIRE/RELEASE, KIBAMRM_EXCLUDES, ...), mirroring the
//      names in clang's thread-safety documentation.
//
//   2. Annotated wrappers Mutex / MutexLock / CondVar over std::mutex,
//      std::lock_guard and std::condition_variable.  The std types ship
//      without attributes in libstdc++, so locking through them is
//      invisible to the analysis; the wrappers restore visibility while
//      delegating every operation to the std primitive (same codegen,
//      same semantics -- CondVar waits on the wrapped std::mutex via
//      std::condition_variable, no condition_variable_any detour).
//
// State that is deliberately *not* lock-protected is documented with
// KIBAMRM_LOCK_FREE / KIBAMRM_EXTERNALLY_SYNCHRONIZED right at the
// declaration: the justification is part of the declaration the same
// way a guard is, and `tools/lint/kibamrm_lint.py` plus code review can
// grep for it.  An atomic or single-owner member without either a guard
// or one of these notes is a review smell.
#pragma once

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------- macros
#if defined(__clang__) && !defined(KIBAMRM_NO_THREAD_SAFETY_ATTRIBUTES)
#define KIBAMRM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define KIBAMRM_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define KIBAMRM_CAPABILITY(name) KIBAMRM_THREAD_ANNOTATION_(capability(name))

/// Declares an RAII type that acquires in its constructor and releases
/// in its destructor.
#define KIBAMRM_SCOPED_CAPABILITY KIBAMRM_THREAD_ANNOTATION_(scoped_lockable)

/// Member may only be read or written while holding `mu`.
#define KIBAMRM_GUARDED_BY(mu) KIBAMRM_THREAD_ANNOTATION_(guarded_by(mu))

/// Pointer member whose *pointee* may only be accessed while holding `mu`.
#define KIBAMRM_PT_GUARDED_BY(mu) \
  KIBAMRM_THREAD_ANNOTATION_(pt_guarded_by(mu))

/// Function requires the listed capabilities to be held on entry (and
/// still held on exit) -- the condition-variable-wait contract.
#define KIBAMRM_REQUIRES(...) \
  KIBAMRM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability (held on exit, not on entry).
#define KIBAMRM_ACQUIRE(...) \
  KIBAMRM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define KIBAMRM_RELEASE(...) \
  KIBAMRM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function returns true when the capability was acquired.
#define KIBAMRM_TRY_ACQUIRE(...) \
  KIBAMRM_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (deadlock guard on public entry points that lock internally).
#define KIBAMRM_EXCLUDES(...) \
  KIBAMRM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define KIBAMRM_RETURN_CAPABILITY(x) \
  KIBAMRM_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's locking is intentionally outside what
/// the analysis can express.  Every use must carry a comment proving
/// the synchronisation by hand; prefer restructuring (pass guarded
/// state by value across the boundary) over reaching for this.
#define KIBAMRM_NO_THREAD_SAFETY_ANALYSIS \
  KIBAMRM_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ------------------------------------------- documented-unguarded state
// Expand to nothing on every compiler; they exist so the *justification*
// for unguarded shared state lives at the declaration, greppable and
// reviewed like any annotation.

/// Shared state accessed without a lock on purpose: atomics with a
/// stated protocol (orderings + why they suffice).
#define KIBAMRM_LOCK_FREE(reason)

/// State whose thread-safety is the owner's responsibility: confined to
/// one thread, or handed between threads with external synchronisation
/// (the reason names the owner/handoff).
#define KIBAMRM_EXTERNALLY_SYNCHRONIZED(reason)

namespace kibamrm::common {

// ------------------------------------------------------------- wrappers

/// std::mutex with the capability attribute: members declared
/// KIBAMRM_GUARDED_BY(a Mutex) are compile-time checked under clang
/// -Wthread-safety.  Lock through MutexLock (scoped) or lock()/unlock().
class KIBAMRM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() KIBAMRM_ACQUIRE() { mu_.lock(); }
  void unlock() KIBAMRM_RELEASE() { mu_.unlock(); }
  bool try_lock() KIBAMRM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // waits on the wrapped std::mutex directly
  std::mutex mu_;
};

/// Scoped lock over Mutex (std::lock_guard with the scoped-capability
/// attribute, so the analysis sees the acquire/release pair).
class KIBAMRM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KIBAMRM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() KIBAMRM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex.  wait() deliberately has no
/// predicate overload: a predicate lambda is analysed as a separate
/// function that cannot see the held capability, so callers loop
///     while (!condition) cv.wait(mutex_);
/// with the condition read in the annotated scope (spurious wakeups are
/// handled by the loop exactly as with the predicate form).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu`, blocks, and re-acquires before
  /// returning.  The caller must hold `mu` (checked); the temporary
  /// release inside is the condition-variable contract and is invisible
  /// to the analysis by design (the capability is held again on exit).
  void wait(Mutex& mu) KIBAMRM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's scope
  }

 private:
  std::condition_variable cv_;
};

}  // namespace kibamrm::common
