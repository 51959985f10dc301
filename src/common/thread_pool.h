#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace setsched {

/// Fixed-size worker pool with a fork-join parallel_for helper.
///
/// Design notes (per the HPC guides: explicit, structured parallelism):
///  * tasks are plain std::function<void()>; no futures on the hot path;
///  * parallel_for blocks until every index ran (structured fork-join),
///    so callers never observe concurrent mutation after it returns;
///  * exceptions thrown by tasks are captured and rethrown on join;
///  * all queue state is GUARDED_BY(mutex_) — Clang's thread-safety
///    analysis (and the TSan CI job) keep it that way.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs body(i) for i in [begin, end) across the pool, blocking until all
  /// iterations finish. Scheduling is dynamic at granularity one: workers
  /// pull the next index from a shared counter, so wildly uneven iteration
  /// costs (a 10 ms greedy cell next to a 16 s LP cell in a sweep) still
  /// balance. The first task exception (if any) is rethrown; a throwing
  /// worker stops pulling further indices but the remaining workers drain
  /// the range.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t index);

  /// Workers are spawned in the constructor and joined in the destructor;
  /// the vector itself is never mutated in between, so it needs no guard.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  CondVar cv_;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// Library-wide default pool (lazily constructed, sized to the hardware).
/// First use races are benign: C++ static-local initialization is
/// serialized by the runtime (pinned by ThreadPoolTest.ConcurrentDefaultPool
/// under TSan).
ThreadPool& default_pool();

}  // namespace setsched
