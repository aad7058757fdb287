// Concurrency stress tests for util/worker_pool.h: bursty submission,
// drain-vs-discard shutdown, exception containment, and concurrent
// submitters. Runs in the CI TSan matrix entry (see .github/workflows).

#include "util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aptrace {
namespace {

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_completed(), 100u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(WorkerPoolTest, ClampsThreadCount) {
  WorkerPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  WorkerPool huge(100000);
  EXPECT_EQ(huge.num_threads(), WorkerPool::kMaxThreads);
}

TEST(WorkerPoolTest, BurstyRoundsDrainCompletely) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  int expected = 0;
  for (int round = 0; round < 20; ++round) {
    const int burst = 1 + (round * 7) % 17;
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    expected += burst;
    if (round % 3 == 0) {
      pool.WaitIdle();
      EXPECT_EQ(ran.load(), expected);
    }
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), expected);
}

TEST(WorkerPoolTest, ExceptionsAreCountedAndPoolSurvives) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&ran, i] {
      if (i % 2 == 0) throw std::runtime_error("task failure");
      ran.fetch_add(1);
    }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(pool.exceptions_caught(), 5u);
  EXPECT_EQ(pool.tasks_completed(), 10u);
  // The pool still accepts and runs work after task exceptions.
  ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 6);
}

TEST(WorkerPoolTest, ShutdownDrainRunsPendingTasks) {
  std::atomic<int> ran{0};
  WorkerPool pool(1);
  // A slow first task guarantees a backlog exists at Shutdown time.
  ASSERT_TRUE(pool.Submit([&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ran.fetch_add(1);
  }));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown(/*run_pending=*/true);
  EXPECT_EQ(ran.load(), 51);
}

TEST(WorkerPoolTest, ShutdownDiscardDropsBacklog) {
  std::atomic<int> ran{0};
  WorkerPool pool(1);
  ASSERT_TRUE(pool.Submit([&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ran.fetch_add(1);
  }));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown(/*run_pending=*/false);
  // The queued backlog is dropped. The slow task runs only if the worker
  // popped it before Shutdown won the lock (it may not have, on a busy
  // single-core machine), so 0 or 1 — never the 50 queued behind it.
  EXPECT_LE(ran.load(), 1);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(WorkerPoolTest, SubmitAfterShutdownReturnsFalse) {
  WorkerPool pool(2);
  pool.Shutdown(/*run_pending=*/false);
  EXPECT_FALSE(pool.Submit([] {}));
  // Idempotent: a second Shutdown (and the destructor's) is a no-op.
  pool.Shutdown(/*run_pending=*/true);
}

TEST(WorkerPoolTest, ConcurrentSubmittersAreSerializedSafely) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kSubmitters = 6;
  constexpr int kPerSubmitter = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &ran] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
      }
    });
  }
  for (auto& s : submitters) s.join();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(pool.tasks_completed(),
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
}

TEST(WorkerPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  WorkerPool pool(2);
  pool.WaitIdle();  // no tasks ever submitted
  EXPECT_EQ(pool.tasks_completed(), 0u);
}

TEST(WorkerPoolTest, WaitIdleFromInsideATaskFailsFast) {
  WorkerPool pool(2);
  // A task waiting for the pool to drain waits for itself — previously
  // documented UB (a silent self-deadlock). Now it throws immediately.
  std::atomic<bool> threw{false};
  ASSERT_TRUE(pool.Submit([&pool, &threw] {
    try {
      pool.WaitIdle();
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  }));
  pool.WaitIdle();  // from a non-pool thread: still fine
  EXPECT_TRUE(threw.load());
  // The task caught the error itself, so the pool counted no escape.
  EXPECT_EQ(pool.exceptions_caught(), 0u);
  EXPECT_EQ(pool.tasks_completed(), 1u);
}

TEST(WorkerPoolTest, WaitIdleFromTaskUncaughtIsContained) {
  WorkerPool pool(1);
  // Even when the task lets the error escape, the worker survives and
  // the escape is counted like any other task exception.
  ASSERT_TRUE(pool.Submit([&pool] { pool.WaitIdle(); }));
  pool.WaitIdle();
  EXPECT_EQ(pool.exceptions_caught(), 1u);
  ASSERT_TRUE(pool.Submit([] {}));  // worker still serving
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_completed(), 2u);
}

}  // namespace
}  // namespace aptrace
