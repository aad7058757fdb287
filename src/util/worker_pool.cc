#include "util/worker_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace aptrace {

WorkerPool::WorkerPool(int num_threads, std::function<void()> thread_init)
    : thread_init_(std::move(thread_init)) {
  const int n = std::clamp(num_threads, 1, kMaxThreads);
  threads_.reserve(static_cast<size_t>(n));
  thread_ids_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      if (thread_init_) thread_init_();
      WorkerLoop();
    });
    thread_ids_.push_back(threads_.back().get_id());
  }
}

WorkerPool::~WorkerPool() { Shutdown(/*run_pending=*/false); }

bool WorkerPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    if (!accepting_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
  return true;
}

void WorkerPool::WaitIdle() {
  // A pool thread waiting for the pool to drain waits for itself: its
  // own task counts in active_, so the predicate can never become true.
  // Fail fast instead of self-deadlocking.
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id tid : thread_ids_) {
    if (tid == self) {
      throw std::logic_error(
          "WorkerPool::WaitIdle() called from inside a pool task; the "
          "calling task would wait for itself to finish");
    }
  }
  MutexLock lock(&mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.Wait(lock);
}

void WorkerPool::Shutdown(bool run_pending) {
  {
    MutexLock lock(&mu_);
    accepting_ = false;
    run_pending_ = run_pending;
    if (!run_pending) queue_.clear();
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  idle_cv_.NotifyAll();
}

size_t WorkerPool::pending() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

uint64_t WorkerPool::tasks_completed() const {
  MutexLock lock(&mu_);
  return completed_;
}

uint64_t WorkerPool::exceptions_caught() const {
  MutexLock lock(&mu_);
  return exceptions_;
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(lock);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      active_++;
    }
    bool threw = false;
    try {
      task();
    } catch (const std::exception& e) {
      threw = true;
      APTRACE_LOG(Error) << "WorkerPool task threw: " << e.what();
    } catch (...) {
      threw = true;
      APTRACE_LOG(Error) << "WorkerPool task threw a non-std exception";
    }
    {
      MutexLock lock(&mu_);
      if (threw) exceptions_++;
      active_--;
      completed_++;
      if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace aptrace
