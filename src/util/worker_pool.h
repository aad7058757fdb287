#ifndef APTRACE_UTIL_WORKER_POOL_H_
#define APTRACE_UTIL_WORKER_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace aptrace {

/// A fixed-size pool of worker threads draining a FIFO task queue.
///
/// Built for the Executor's parallel scan pipeline (read-only EventStore
/// range scans fan out to workers; the coordinator thread applies their
/// results in deterministic order), but generic: tasks are arbitrary
/// `std::function<void()>`.
///
/// Semantics:
///   - Submit() enqueues a task; returns false once Shutdown() started
///     (the task is not queued, nothing is dropped on the floor mid-run,
///     and the call never crashes — callers own the rejected work).
///   - WaitIdle() blocks until the queue is empty and no task is running —
///     the coordinator's barrier before it mutates state workers read.
///   - Shutdown(run_pending) stops accepting work; run_pending=true drains
///     the queue first, false discards queued-but-unstarted tasks. Joins
///     all threads. Idempotent; the destructor calls Shutdown(false).
///   - A task that throws is swallowed and counted (exceptions_caught());
///     the worker thread survives. Tasks have no result channel, so an
///     escaped exception would otherwise terminate the process.
///
/// Thread-safety: every method may be called from any thread, including
/// Submit() from inside a task. WaitIdle() called from inside a task would
/// wait for itself; the pool detects that and throws std::logic_error
/// instead of self-deadlocking.
class WorkerPool {
 public:
  /// Spawns `num_threads` workers, clamped to [1, kMaxThreads].
  /// `thread_init`, when set, runs once at the start of each worker
  /// thread — e.g. to name the thread for tracing — instead of paying
  /// per-task initialization.
  explicit WorkerPool(int num_threads,
                      std::function<void()> thread_init = nullptr);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool();

  /// Hard cap on pool width; requests beyond it are clamped.
  static constexpr int kMaxThreads = 64;

  bool Submit(std::function<void()> task) APTRACE_EXCLUDES(mu_);

  /// Blocks until no task is queued or running. Throws std::logic_error
  /// when called from one of this pool's own worker threads.
  void WaitIdle() APTRACE_EXCLUDES(mu_);

  void Shutdown(bool run_pending = false) APTRACE_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Tasks queued but not yet started.
  size_t pending() const APTRACE_EXCLUDES(mu_);
  uint64_t tasks_completed() const APTRACE_EXCLUDES(mu_);
  uint64_t exceptions_caught() const APTRACE_EXCLUDES(mu_);

 private:
  void WorkerLoop() APTRACE_EXCLUDES(mu_);

  const std::function<void()> thread_init_;
  mutable Mutex mu_{"WorkerPool::mu_"};
  CondVar work_cv_;  // workers wait for tasks/shutdown
  CondVar idle_cv_;  // WaitIdle/Shutdown wait for drain
  std::deque<std::function<void()>> queue_ APTRACE_GUARDED_BY(mu_);
  // Immutable after the constructor returns: the vectors are filled
  // before any caller can observe the pool, and Shutdown only joins.
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> thread_ids_;
  int active_ APTRACE_GUARDED_BY(mu_) = 0;  // tasks currently executing
  bool accepting_ APTRACE_GUARDED_BY(mu_) = true;  // flips at Shutdown
  bool run_pending_ APTRACE_GUARDED_BY(mu_) = false;  // Shutdown drains
  bool stop_ APTRACE_GUARDED_BY(mu_) = false;
  uint64_t completed_ APTRACE_GUARDED_BY(mu_) = 0;
  uint64_t exceptions_ APTRACE_GUARDED_BY(mu_) = 0;
};

}  // namespace aptrace

#endif  // APTRACE_UTIL_WORKER_POOL_H_
