#include "common/thread_pool.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"

namespace shp {

namespace {
thread_local bool t_inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_tasks_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_tasks_;
      if (active_tasks_ == 0 && tasks_.empty()) all_done_.notify_all();
    }
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
    ++active_tasks_;
  }
  task();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_tasks_;
    if (active_tasks_ == 0 && tasks_.empty()) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SHP_CHECK(!shutting_down_) << "Submit after shutdown";
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  // If called from inside a worker (nested parallelism in recursive
  // bisection), help drain the queue instead of deadlocking on ourselves.
  if (t_inside_pool_worker) {
    while (RunOneTask()) {
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock,
                 [this] { return tasks_.empty() && active_tasks_ == 0; });
}

void ThreadPool::ParallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(n, num_threads());
  if (workers <= 1 || t_inside_pool_worker) {
    // Inline execution: nested ParallelFor from a recursive split runs on the
    // calling worker; chunk boundaries stay identical so RNG streams keyed by
    // vertex id are unaffected.
    fn(0, n, 0);
    return;
  }
  // The completion state lives on this stack frame, so the last worker must
  // decrement and notify while holding done_mutex: otherwise the caller can
  // observe remaining == 0, return and reuse the frame while that worker is
  // still about to lock the mutex or signal the condition variable.
  std::size_t remaining = workers;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    Submit([&, begin, end, w] {
      if (begin < end) fn(begin, end, w);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

void ThreadPool::ParallelForEach(std::size_t n,
                                 const std::function<void(std::size_t)>& fn) {
  ParallelFor(n, [&fn](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = new ThreadPool(
      static_cast<std::size_t>(GetEnvInt("SHP_BENCH_THREADS", 0)));
  return *pool;
}

}  // namespace shp
