#include "common/thread_pool.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"

namespace shp {

namespace {

thread_local bool t_inside_pool = false;

constexpr std::uint64_t kField = 0xffff;
constexpr int kCountBit = 16;
constexpr int kEpochBit = 32;
// Yields the caller spends on the last helpers' chunks before it blocks.
constexpr int kTailSpins = 1024;

std::uint64_t NextChunk(std::uint64_t w) { return w & kField; }
std::uint64_t ChunkCount(std::uint64_t w) { return (w >> kCountBit) & kField; }
std::uint32_t Epoch(std::uint64_t w) { return std::uint32_t(w >> kEpochBit); }

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) : num_threads_(num_threads) {
  if (num_threads_ == 0) {
    num_threads_ =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  SHP_CHECK(num_threads_ <= kField) << "ThreadPool of " << num_threads_;
  helpers_.reserve(num_threads_ - 1);
  for (std::size_t i = 1; i < num_threads_; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    shutting_down_ = true;
  }
  park_cv_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ThreadPool::HelperLoop() {
  t_inside_pool = true;
  std::uint32_t seen = 0;  // epoch of the last job found exhausted
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      park_cv_.wait(lock, [&] {
        return shutting_down_ ||
               Epoch(claim_.load(std::memory_order_relaxed)) != seen;
      });
      if (shutting_down_) return;
    }
    seen = RunChunks();
  }
}

// Claims chunks of the published job by compare-and-swap and runs them until
// none is left; returns the epoch of the exhausted claim word. A claim that
// succeeds holds the job fields steady: the caller cannot publish the next
// job before this chunk is counted in done_.
std::uint32_t ThreadPool::RunChunks() {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  while (NextChunk(word) < ChunkCount(word)) {
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acquire)) {
      continue;
    }
    const std::size_t w = NextChunk(word);
    const std::size_t begin = w * chunk_;
    (*fn_)(begin, std::min(n_, begin + chunk_), w);
    // Past this increment the job may be gone: touch only pool members. The
    // last chunk passes through done_mutex_ before notifying, so a caller
    // that checked done_ under that mutex is already waiting.
    if (done_.fetch_add(1, std::memory_order_release) + 1 ==
        ChunkCount(word)) {
      { std::lock_guard<std::mutex> lock(done_mutex_); }
      done_cv_.notify_one();
    }
    word = claim_.load(std::memory_order_acquire);
  }
  return Epoch(word);
}

void ThreadPool::ParallelFor(std::size_t n, const RangeFn& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(n, num_threads_);
  if (workers <= 1 || t_inside_pool) {
    // Inline execution: nested ParallelFor from a recursive split runs on the
    // calling thread; chunk boundaries stay identical so RNG streams keyed by
    // vertex id are unaffected.
    fn(0, n, 0);
    return;
  }
  std::lock_guard<std::mutex> call(call_mutex_);
  fn_ = &fn;
  n_ = n;
  chunk_ = (n + workers - 1) / workers;
  const std::uint64_t chunks = (n + chunk_ - 1) / chunk_;
  done_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    ++epoch_;
    claim_.store((std::uint64_t{epoch_} << kEpochBit) |
                     (chunks << kCountBit),
                 std::memory_order_release);
  }
  park_cv_.notify_all();
  // The caller runs chunks as a pool thread; the flag was clear on entry.
  t_inside_pool = true;
  RunChunks();
  t_inside_pool = false;
  for (int spin = 0; spin < kTailSpins &&
                     done_.load(std::memory_order_acquire) != chunks;
       ++spin) {
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [&] {
    return done_.load(std::memory_order_acquire) == chunks;
  });
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
