// ThreadPool edge cases, written to be interesting under TSan (the
// SETSCHED_SANITIZE=thread CI job runs this suite instrumented): concurrent
// first use of the lazily constructed default pool, exception capture while
// the remaining workers drain a dynamic range, destruction while another
// thread's fork-join still has tasks queued, and interleaved fork-joins from
// concurrent callers sharing one queue.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace setsched {
namespace {

// Declared first in the file so it runs before any other test of this binary
// touches default_pool(): the racing threads below are the pool's very first
// users, pinning that C++ static-local initialization serializes them.
TEST(ThreadPool, ConcurrentDefaultPoolFirstUse) {
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> racers;
  racers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    racers.emplace_back([&total] {
      default_pool().parallel_for(0, 64, [&total](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& r : racers) r.join();
  EXPECT_EQ(total.load(), kThreads * 64);
}

TEST(ThreadPool, ExceptionRethrownAndRangeDrained) {
  ThreadPool pool(4);
  std::atomic<std::size_t> completed{0};
  const auto run = [&] {
    pool.parallel_for(0, 100, [&completed](std::size_t i) {
      if (i == 3) throw std::runtime_error("cell 3 failed");
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The throwing worker stops pulling indices, but the fork-join contract
  // says the remaining workers drain the range before the rethrow.
  EXPECT_EQ(completed.load(), 99u);
}

TEST(ThreadPool, OnlyFirstExceptionPropagates) {
  ThreadPool pool(4);
  // Every index throws; exactly one exception must come back (the fork-join
  // keeps the first and swallows the rest) and it must be one of ours.
  try {
    pool.parallel_for(0, 32, [](std::size_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPool, DestructionDrainsQueuedTasks) {
  // The destructor races a fork-join started by another thread: with 16
  // unit tasks on 2 workers, tasks are still QUEUED when the destructor
  // flips stopping_. Workers must drain them (the exit condition is
  // stopping_ && tasks_.empty()), so the caller's parallel_for completes
  // normally and no iteration is dropped.
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> first_task_running{false};
  std::optional<ThreadPool> pool;
  pool.emplace(2);
  std::thread caller([&] {
    pool->parallel_for(0, 16, [&](std::size_t) {
      first_task_running.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  });
  while (!first_task_running.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  pool.reset();  // destructor joins workers; queued tasks must run first
  caller.join();
  EXPECT_EQ(executed.load(), 16u);
}

TEST(ThreadPool, ConcurrentCallersShareOneQueue) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRange = 50;
  std::atomic<std::size_t> counts[kCallers];
  for (auto& c : counts) c.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &counts, t] {
      pool.parallel_for(0, kRange, [&counts, t](std::size_t) {
        counts[t].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(counts[t].load(), kRange) << "caller " << t;
  }
}

TEST(ThreadPool, RepeatedConstructDestroyStress) {
  // Pool lifetime churn: every cycle hands the workers real work, then
  // destroys the pool immediately after the join. TSan checks the
  // construct/notify/join handoffs for races.
  for (int cycle = 0; cycle < 10; ++cycle) {
    ThreadPool pool(3);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 32, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 32u * 31u / 2u);
  }
  // And destruction of a pool that never received work (workers parked on
  // the condition variable the whole time).
  for (int cycle = 0; cycle < 10; ++cycle) {
    ThreadPool idle(2);
  }
}

}  // namespace
}  // namespace setsched
