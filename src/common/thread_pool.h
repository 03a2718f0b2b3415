// Fixed-size fork-join pool with a blocking ParallelFor.
//
// The SHP refiner is embarrassingly parallel within a superstep (per-vertex
// gain computation, per-query neighbor-data aggregation), so the only
// primitive we need is a static range split with a barrier at the end —
// matching the BSP structure of the distributed algorithm.
//
// Contract:
//  - ThreadPool(N) starts N − 1 helper threads. The thread that calls
//    ParallelFor is the N-th: it runs chunks too, so a call never waits for
//    a helper to wake up before work starts. num_threads() returns N.
//  - ParallelFor(n, fn) splits [0, n) into chunks of c = ⌈n / min(n, N)⌉
//    items. Chunk w is [w·c, min(n, (w + 1)·c)) and runs as fn(begin, end,
//    w); chunks that would start at or past n are not run. The caller and
//    the helpers claim chunks in any order, so w — not the thread — names
//    the worker.
//  - A ParallelFor made from inside a chunk (on any pool) runs inline as
//    fn(0, n, 0) on that thread; recursive bisection relies on this.
//  - Concurrent ParallelFor calls on one pool from different threads
//    serialize.
//  - Determinism rests on chunk boundaries and chunk indices only: per-worker
//    scratch, shard splits and summation orders keyed by w give the same
//    results for a fixed N, whichever thread ran which chunk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shp {

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Creates a pool of num_threads (the caller plus num_threads − 1
  /// helpers). num_threads == 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Runs fn(begin, end, w) over the chunks of [0, n) described above;
  /// blocks until all chunks finish.
  void ParallelFor(std::size_t n, const RangeFn& fn);

  /// Convenience: fn(index) for each index in [0, n).
  void ParallelForEach(std::size_t n,
                       const std::function<void(std::size_t)>& fn);

 private:
  void HelperLoop();
  std::uint32_t RunChunks();

  std::size_t num_threads_;

  // The published job. Written by the caller before it publishes claim_,
  // read by a thread only after it claimed a chunk of the current epoch;
  // the caller rewrites them only after done_ reached the chunk count.
  const RangeFn* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 0;
  std::uint32_t epoch_ = 0;

  // Claim word: epoch (bits 32–63), chunk count (16–31), next chunk (0–15).
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::uint64_t> done_{0};

  std::mutex call_mutex_;  // serializes concurrent callers
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  bool shutting_down_ = false;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::vector<std::thread> helpers_;  // last: they use every member above
};

/// Singleton pool sized from SHP_BENCH_THREADS (or hardware concurrency).
/// Library entry points take an optional ThreadPool*; nullptr means this pool.
ThreadPool& GlobalThreadPool();

}  // namespace shp
