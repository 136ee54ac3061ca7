// Annotated synchronization primitives: Clang Thread Safety Analysis wrappers
// around std::mutex / std::condition_variable.
//
// Every mutex in the tree is a concord::Mutex and every guarded field carries a
// CONCORD_GUARDED_BY annotation, so a clang build with
// `-Wthread-safety -Werror=thread-safety` (CI job `clang-tsa`; auto-enabled by
// CMake whenever the compiler is clang) statically proves lock discipline on
// the whole concurrency surface — the serve path's shared stores, the thread
// pool, tracing, metrics, fault injection. TSan (PR 4) only catches races the
// test suite happens to execute; this catches lock-order and unguarded-access
// bugs on every build, before any test runs. On GCC (which has no thread-safety
// attributes) every macro below expands to nothing and the wrappers inline to
// exactly the raw std::mutex / std::lock_guard code they replace.
//
// Lock hierarchy (DESIGN.md §9): coarse map/registry locks are acquired before
// the per-entry locks they index — Service::datasets_mu_ before
// ResidentDataset::mu, ContractStore::mu_ before (never while holding)
// LoadedContractSet::parse_mu — and leaf locks (LruCache::mu_, Metrics::mu_,
// TraceCollector::mu_, ThreadPool::mu_) never acquire another lock while held.
// Constructors document the ordering with CONCORD_ACQUIRED_BEFORE /
// CONCORD_ACQUIRED_AFTER where both ends are nameable.
//
// Condition-variable waits: CondVar::Wait(mu) REQUIRES the mutex, which is
// accurate at both edges (held on entry, held again on return) even though the
// wait releases it in between — the analysis never observes the window. Write
// wait loops open-coded (`while (!cond) cv.Wait(mu);`) rather than with a
// predicate lambda: the condition then reads guarded fields in the scope that
// demonstrably holds the capability, keeping the analysis exact.
//
// NO_THREAD_SAFETY_ANALYSIS is the escape hatch of last resort; policy
// (enforced by tools/lint.py) is zero uses outside this header.
#ifndef SRC_UTIL_SYNC_H_
#define SRC_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// Attribute plumbing, following the scheme in the Clang Thread Safety Analysis
// documentation. GCC defines none of these attributes, so everything macro
// expands to nothing there.
#if defined(__clang__) && defined(__has_attribute)
#define CONCORD_TSA(x) __attribute__((x))
#else
#define CONCORD_TSA(x)  // no-op outside clang
#endif

#define CONCORD_CAPABILITY(name) CONCORD_TSA(capability(name))
#define CONCORD_SCOPED_CAPABILITY CONCORD_TSA(scoped_lockable)
#define CONCORD_GUARDED_BY(x) CONCORD_TSA(guarded_by(x))
#define CONCORD_PT_GUARDED_BY(x) CONCORD_TSA(pt_guarded_by(x))
#define CONCORD_ACQUIRED_BEFORE(...) CONCORD_TSA(acquired_before(__VA_ARGS__))
#define CONCORD_ACQUIRED_AFTER(...) CONCORD_TSA(acquired_after(__VA_ARGS__))
#define CONCORD_REQUIRES(...) CONCORD_TSA(requires_capability(__VA_ARGS__))
#define CONCORD_ACQUIRE(...) CONCORD_TSA(acquire_capability(__VA_ARGS__))
#define CONCORD_RELEASE(...) CONCORD_TSA(release_capability(__VA_ARGS__))
#define CONCORD_TRY_ACQUIRE(...) CONCORD_TSA(try_acquire_capability(__VA_ARGS__))
#define CONCORD_EXCLUDES(...) CONCORD_TSA(locks_excluded(__VA_ARGS__))
#define CONCORD_RETURN_CAPABILITY(x) CONCORD_TSA(lock_returned(x))
#define CONCORD_NO_THREAD_SAFETY_ANALYSIS CONCORD_TSA(no_thread_safety_analysis)

namespace concord {

// std::mutex with a capability annotation. Prefer MutexLock for scoped
// acquisition; Lock/Unlock exist for the rare site that needs manual control.
class CONCORD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CONCORD_ACQUIRE() { mu_.lock(); }
  void Unlock() CONCORD_RELEASE() { mu_.unlock(); }
  bool TryLock() CONCORD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scoped acquisition — the annotated std::lock_guard. `mutable Mutex`
// members let const accessors lock, mirroring `mutable std::mutex`.
class CONCORD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CONCORD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CONCORD_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to concord::Mutex. Waits adopt the already-held
// native mutex into a std::unique_lock for the duration of the wait and release
// ownership back afterwards, so std::condition_variable (not the heavier
// condition_variable_any) does the blocking and the capability bookkeeping
// stays with the caller's MutexLock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until notified; `mu` must be held and is held again on return.
  // Callers re-test their condition in a loop (spurious wakeups).
  void Wait(Mutex& mu) CONCORD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Timed wait; returns false on timeout. Same capability contract as Wait.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      CONCORD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace concord

#endif  // SRC_UTIL_SYNC_H_
