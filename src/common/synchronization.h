// Annotated synchronization primitives: drop-in wrappers over
// std::mutex / std::shared_mutex carrying Clang thread-safety
// capability attributes, so the locking discipline of every
// mutex-coordinated subsystem is checked at *compile time* under
// `clang -Wthread-safety` (wired up as cmake -DMOSAIC_ANALYZE=ON and
// the `static` leg of scripts/check.sh).
//
// Conventions (see README "Static analysis"):
//   - Fields a mutex protects are declared `T field_ GUARDED_BY(mu_);`
//     any access outside a critical section on mu_ is a build error
//     under the analysis.
//   - Private helpers that assume the caller holds a lock are declared
//     `void FooLocked() REQUIRES(mu_);` — the contract that used to
//     live in a comment becomes machine-checked at every call site.
//   - Critical sections use the scoped guards (MutexLock, ReaderLock,
//     WriterLock), never bare Lock()/Unlock() pairs, so the analysis
//     sees every acquire/release and exceptions cannot leak a lock.
//   - Condition waits go through CondVar, whose Wait* methods take the
//     MutexLock by reference: the lock is held before and after the
//     wait, which is exactly what the (condvar-oblivious) analysis
//     assumes. Wait predicates are written as explicit while-loops at
//     the call site — a lambda body is analyzed as a separate function
//     with no capabilities held and would false-positive on guarded
//     reads.
//
// On non-Clang compilers (and Clang without the attribute support)
// every macro expands to nothing and every wrapper is a zero-overhead
// veneer over the std primitive, so GCC builds are byte-for-byte
// unaffected.
#ifndef MOSAIC_COMMON_SYNCHRONIZATION_H_
#define MOSAIC_COMMON_SYNCHRONIZATION_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// --- Clang thread-safety attribute macros ----------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MOSAIC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MOSAIC_THREAD_ANNOTATION
#define MOSAIC_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) MOSAIC_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY MOSAIC_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) MOSAIC_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) MOSAIC_THREAD_ANNOTATION(pt_guarded_by(x))
#define REQUIRES(...) \
  MOSAIC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  MOSAIC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) MOSAIC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  MOSAIC_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) MOSAIC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  MOSAIC_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  MOSAIC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  MOSAIC_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) MOSAIC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) MOSAIC_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) MOSAIC_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  MOSAIC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mosaic {

// --- Capabilities -----------------------------------------------------------

/// std::mutex with the `mutex` capability. Prefer the scoped guards;
/// Lock()/Unlock() exist for the rare staged-handoff patterns and for
/// building new guards.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Dynamic fallback for invariants the static analysis cannot see
  /// (e.g. a lock handed across threads): aborts the analysis path
  /// instead of warning.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

  /// The wrapped std::mutex, for interop with std APIs that demand it
  /// (std::condition_variable via CondVar below).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// std::shared_mutex with the `shared_mutex` capability: exclusive for
/// writers (Lock), shared for readers (LockShared).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  void AssertHeld() ASSERT_CAPABILITY(this) {}

  std::shared_mutex& native() { return mu_; }

 private:
  std::shared_mutex mu_;
};

// --- Scoped guards ----------------------------------------------------------

/// RAII exclusive lock on a Mutex (std::lock_guard replacement). The
/// manual Unlock()/Lock() pair supports the drop-the-lock-run-inline
/// pattern (ThreadPool::Submit); the destructor releases only if held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release early (destructor then does nothing).
  void Unlock() RELEASE() { lock_.unlock(); }
  /// Reacquire after Unlock().
  void Lock() ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu)
      : lock_(mu.native()) {}
  /// Deferred form: construct unlocked, acquire later with Lock().
  ReaderLock(SharedMutex& mu, std::defer_lock_t) EXCLUDES(mu)
      : lock_(mu.native(), std::defer_lock) {}
  ~ReaderLock() RELEASE() = default;

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  void Lock() ACQUIRE_SHARED() { lock_.lock(); }
  /// Non-blocking Lock() on a deferred guard: false (and nothing
  /// held) when a writer has the mutex.
  bool TryLock() TRY_ACQUIRE_SHARED(true) { return lock_.try_lock(); }
  void Unlock() RELEASE() { lock_.unlock(); }

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : lock_(mu.native()) {}
  WriterLock(SharedMutex& mu, std::defer_lock_t) EXCLUDES(mu)
      : lock_(mu.native(), std::defer_lock) {}
  ~WriterLock() RELEASE() = default;

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  void Lock() ACQUIRE() { lock_.lock(); }
  void Unlock() RELEASE() { lock_.unlock(); }

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

// --- Condition variable -----------------------------------------------------

/// std::condition_variable over Mutex/MutexLock. The analysis does not
/// model the release-wait-reacquire inside Wait; since the lock is
/// held on entry and on return, guarded accesses on either side check
/// out — but the caller must re-test its predicate in a while-loop, as
/// with any condvar.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `lock`, wait for a notification, reacquire.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Wait with a timeout; returns false on timeout. Predicate-free on
  /// purpose (see the lambda note in the file comment) — loop at the
  /// call site.
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_SYNCHRONIZATION_H_
