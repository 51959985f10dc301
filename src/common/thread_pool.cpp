#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "obs/trace.h"

namespace setsched {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  // Named track in --trace output; pools share the numbering scheme, the
  // trace distinguishes threads by track id.
  obs::set_thread_track_name("worker-" + std::to_string(index));
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Fork-join rendezvous of parallel_for: the caller blocks on done_cv until
/// every spawned task decremented `remaining`.
struct JoinState {
  Mutex m;
  CondVar done_cv;
  std::size_t remaining GUARDED_BY(m) = 0;
  std::exception_ptr first_error GUARDED_BY(m);

  explicit JoinState(std::size_t tasks) : remaining(tasks) {}

  /// Task epilogue: records the first error and signals the joiner when the
  /// last task finishes.
  void finish_task(std::exception_ptr error) {
    const MutexLock lock(m);
    if (error && !first_error) first_error = std::move(error);
    if (--remaining == 0) done_cv.notify_all();
  }

  /// Caller side: blocks until every task finished, then rethrows the first
  /// captured exception (if any).
  void join() {
    std::exception_ptr error;
    {
      MutexLock lock(m);
      while (remaining != 0) done_cv.wait(m);
      error = first_error;
    }
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t workers = std::min(total, thread_count());
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{begin};
  JoinState join(workers);

  for (std::size_t w = 0; w < workers; ++w) {
    enqueue([end, &next, &body, &join] {
      std::exception_ptr error;
      try {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < end; i = next.fetch_add(1, std::memory_order_relaxed)) {
          body(i);
        }
      } catch (...) {
        error = std::current_exception();
      }
      join.finish_task(std::move(error));
    });
  }

  join.join();
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace setsched
