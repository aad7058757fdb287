#ifndef APTRACE_UTIL_SYNC_H_
#define APTRACE_UTIL_SYNC_H_

// The one place in the tree allowed to touch the standard synchronization
// primitives (tools/check_sync_discipline.py enforces this in CI). Every
// other subsystem locks through the wrappers below, which buy two things
// the raw primitives cannot:
//
//   1. Clang Thread Safety Analysis attributes. A clang build with
//      `-Wthread-safety -Werror` proves GUARDED_BY / REQUIRES contracts
//      on every path — including paths no test executes. On GCC the
//      attribute macros expand to nothing and the wrappers cost exactly
//      what a std::mutex / std::lock_guard pair costs.
//   2. A Debug-build lock-order checker. Each Mutex registers in a
//      process-wide acquisition graph; acquiring M while holding H adds
//      the held-before edge H -> M, and the first edge that closes a
//      cycle reports both lock names with their acquisition sites and
//      aborts. The documented hierarchy (docs/concurrency.md) is thereby
//      executable, not aspirational. Release builds compile the checker
//      out entirely.
//
// Convention: prefer scoped MutexLock over manual Lock/Unlock; condition
// waits are explicit `while (!predicate) cv.Wait(lock);` loops because
// the analysis does not propagate held capabilities into predicate
// lambdas. See docs/concurrency.md for the full conventions and the
// escape-hatch policy around APTRACE_NO_THREAD_SAFETY_ANALYSIS.

#include <chrono>
#include <condition_variable>  // the wrapped primitive (sync.* only)
#include <cstdint>
#include <mutex>               // the wrapped primitive (sync.* only)
#include <source_location>

// ---------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros. Clang checks them under
// -Wthread-safety; every other compiler sees empty token soup.

#if defined(__clang__)
#define APTRACE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define APTRACE_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define APTRACE_CAPABILITY(x) APTRACE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define APTRACE_SCOPED_CAPABILITY APTRACE_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be touched while `x` is held.
#define APTRACE_GUARDED_BY(x) APTRACE_THREAD_ANNOTATION(guarded_by(x))

/// Pointee may only be touched while `x` is held (the pointer itself is
/// unguarded).
#define APTRACE_PT_GUARDED_BY(x) APTRACE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (held on return, not on entry).
#define APTRACE_ACQUIRE(...) \
  APTRACE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on return).
#define APTRACE_RELEASE(...) \
  APTRACE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define APTRACE_TRY_ACQUIRE(...) \
  APTRACE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability across the call (private *Locked
/// helpers).
#define APTRACE_REQUIRES(...) \
  APTRACE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself;
/// re-entry would self-deadlock on a non-recursive mutex).
#define APTRACE_EXCLUDES(...) \
  APTRACE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Static hierarchy hints checked by the analysis where it can see both
/// locks.
#define APTRACE_ACQUIRED_BEFORE(...) \
  APTRACE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define APTRACE_ACQUIRED_AFTER(...) \
  APTRACE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Tells the analysis the capability is held without acquiring it
/// (runtime-verified entry points).
#define APTRACE_ASSERT_CAPABILITY(x) \
  APTRACE_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: function body is exempt from the analysis. Every use
/// must carry a justification comment (policy in docs/concurrency.md).
#define APTRACE_NO_THREAD_SAFETY_ANALYSIS \
  APTRACE_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------
// Lock-order checker build gate: on in Debug and sanitizer builds, off in
// Release/RelWithDebInfo (NDEBUG). Define APTRACE_LOCK_ORDER_CHECK=0/1 to
// override either way.

#ifndef APTRACE_LOCK_ORDER_CHECK
#ifdef NDEBUG
#define APTRACE_LOCK_ORDER_CHECK 0
#else
#define APTRACE_LOCK_ORDER_CHECK 1
#endif
#endif

namespace aptrace {

class CondVar;

namespace sync_internal {

/// One mutex's node in the process-wide acquisition-order graph
/// (Debug builds only; see sync.cc). Opaque here.
struct OrderNode;

OrderNode* RegisterMutex(const char* name);
void UnregisterMutex(OrderNode* node);
/// Records `node` acquired at `loc` on this thread: adds held-before
/// edges from every lock currently held, reports a violation if an edge
/// closes a cycle, then pushes `node` onto the thread's held stack.
/// `check_order` is false for try-acquires (they cannot block, hence
/// cannot deadlock) — the node is still pushed so later acquires see it.
void OnAcquire(OrderNode* node, const std::source_location& loc,
               bool check_order);
void OnRelease(OrderNode* node);

}  // namespace sync_internal

/// Cumulative counters of the lock-order checker, for tests and the
/// curious. All zero when the checker is compiled out.
struct LockOrderStats {
  uint64_t mutexes_live = 0;       ///< registered and not yet destroyed
  uint64_t edges = 0;              ///< distinct held-before edges recorded
  uint64_t acquisitions = 0;       ///< order-checked acquisitions
  uint64_t violations = 0;         ///< cycles detected
};

LockOrderStats GetLockOrderStats();

/// True when this build runs the acquisition-graph checker.
constexpr bool LockOrderCheckingEnabled() {
  return APTRACE_LOCK_ORDER_CHECK != 0;
}

/// Replaces the violation handler. The default writes the report to
/// stderr and aborts; tests install a capturing handler (which returns,
/// letting the acquisition proceed — a reported inversion is a potential
/// deadlock, not an actual one). Returns the previous handler.
using LockOrderViolationHandler = void (*)(const char* report);
LockOrderViolationHandler SetLockOrderViolationHandlerForTest(
    LockOrderViolationHandler handler);

/// A non-recursive mutual-exclusion lock: std::mutex plus a stable
/// diagnostic name, the Clang TSA capability attributes, and (Debug) the
/// lock-order checker registration. `name` must have static storage
/// duration — pass a literal like "ShardClient::mu_".
class APTRACE_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "<anonymous mutex>")
      : name_(name)
#if APTRACE_LOCK_ORDER_CHECK
        ,
        order_node_(sync_internal::RegisterMutex(name))
#endif
  {
  }

  ~Mutex() {
#if APTRACE_LOCK_ORDER_CHECK
    sync_internal::UnregisterMutex(order_node_);
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const std::source_location& loc =
                std::source_location::current()) APTRACE_ACQUIRE() {
#if APTRACE_LOCK_ORDER_CHECK
    // Order edges are recorded and checked *before* blocking: a would-be
    // deadlock is reported even when the schedule happens not to hit it.
    sync_internal::OnAcquire(order_node_, loc, /*check_order=*/true);
#else
    (void)loc;
#endif
    mu_.lock();
  }

  void Unlock() APTRACE_RELEASE() {
#if APTRACE_LOCK_ORDER_CHECK
    // Before the release: once mu_ is free, a waiter may destroy this
    // Mutex (a stack latch) and order_node_ with it.
    sync_internal::OnRelease(order_node_);
#endif
    mu_.unlock();
  }

  bool TryLock(const std::source_location& loc =
                   std::source_location::current()) APTRACE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if APTRACE_LOCK_ORDER_CHECK
    sync_internal::OnAcquire(order_node_, loc, /*check_order=*/false);
#else
    (void)loc;
#endif
    return true;
  }

  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex& native() { return mu_; }

  std::mutex mu_;
  const char* const name_;
#if APTRACE_LOCK_ORDER_CHECK
  sync_internal::OrderNode* const order_node_;
#endif
};

/// Scoped lock: acquires in the constructor, releases in the destructor.
/// The default (and preferred) way to hold a Mutex.
class APTRACE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const std::source_location& loc =
                                    std::source_location::current())
      APTRACE_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(loc);
  }

  ~MutexLock() APTRACE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* const mu_;
};

/// Condition variable bound to a MutexLock at each wait. The analysis
/// models the mutex as held across Wait (true on entry and exit; the
/// internal release/re-acquire is invisible, matching how the lock-order
/// checker treats it). No predicate overloads on purpose: guarded-field
/// predicates belong in an explicit `while (!pred) cv.Wait(lock);` loop
/// in the annotated caller, where the analysis can check them.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock, blocks until notified (or spuriously
  /// woken), and re-acquires before returning.
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mu_->native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with `lock`
  }

  /// Wait bounded by a duration; false when it timed out.
  bool WaitFor(MutexLock& lock, std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> native(lock.mu_->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(native, timeout);
    native.release();
    return st == std::cv_status::no_timeout;
  }

  /// Wait bounded by a deadline; false when the deadline passed.
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> native(lock.mu_->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_until(native, deadline);
    native.release();
    return st == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aptrace

#endif  // APTRACE_UTIL_SYNC_H_
