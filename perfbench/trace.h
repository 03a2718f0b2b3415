// In-memory span recorder and a RefinerFactory decorator for the whole-job
// benchmark. Both sit outside the library: the decorator wraps whatever
// engine a driver asks its factory for, times every factory call and every
// RunIteration, and keeps each iteration's IterationStats. Spans stay in
// memory and are written once, as Chrome trace-event JSON (opens in Perfetto
// or chrome://tracing), when the job has ended.
//
// Span tree: job → load / partition (or serve) → level L<i> → refiner-build
// and iteration spans, then write. Level i runs from the driver's i-th
// factory call to the end of the last iteration before the next one, so the
// time between levels (SHP-2's redistribution) stays with the driver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/refiner.h"
#include "engine/shp_bsp.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

struct IterationRecord {
  shp::IterationStats stats;
  double seconds = 0.0;
};

/// Everything the decorator learns about the engines it wraps.
struct EngineRecord {
  std::vector<IterationRecord> iterations;
  std::vector<double> factory_seconds;
  /// Duration of each level (factory call through its last iteration).
  std::vector<double> level_seconds;
  /// BSP engine only: superstep log shared by every BspRefiner the factory
  /// builds (each appends in order), plus counters read as each refiner dies.
  std::vector<shp::SuperstepStats> superstep_log;
  uint64_t bootstrap_reships = 0;
  uint64_t max_worker_state_bytes = 0;
};

/// Records spans on the driver thread (drivers call factories and
/// RunIteration from the thread that called Run, so a stack gives parents).
class Tracer {
 public:
  int Begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      Clock::now(), {}});
    open_.push_back(id);
    return id;
  }

  /// Ends the innermost open span; returns its duration in seconds.
  double End() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end = Clock::now();
    return Seconds(span.start, span.end);
  }

  /// Adds a closed child of the innermost open span.
  void Add(std::string name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      start, end});
  }

  /// A factory call opens a new level, closing the previous one at the end
  /// of its last iteration.
  void BeginLevel(EngineRecord* record) {
    CloseLevel(record);
    level_ = Begin("level L" + std::to_string(record->level_seconds.size() + 1));
    level_end_ = spans_[static_cast<size_t>(level_)].start;
  }
  void ExtendLevel(Clock::time_point end) { level_end_ = end; }
  void CloseLevel(EngineRecord* record) {
    if (level_ < 0) return;
    Span& span = spans_[static_cast<size_t>(level_)];
    span.end = level_end_;
    open_.pop_back();
    record->level_seconds.push_back(Seconds(span.start, span.end));
    level_ = -1;
  }

  /// Writes every span as a Chrome "complete" (ph = X) event; times are
  /// microseconds from the first span's start.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d}}",
                   i == 0 ? "" : ",\n", s.name.c_str(),
                   Seconds(origin, s.start) * 1e6,
                   Seconds(s.start, s.end) * 1e6, i, s.parent);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int level_ = -1;
  Clock::time_point level_end_;
};

/// Forwards to the wrapped engine. Iterations run on `pool` when the caller
/// passes none (the serving loop does), so no job ever touches the
/// environment-sized global pool. With a tracer it also times each call.
class TracingRefiner : public shp::RefinerInterface {
 public:
  TracingRefiner(std::unique_ptr<shp::RefinerInterface> inner,
                 const shp::BspRefiner* bsp, shp::ThreadPool* pool,
                 Tracer* tracer, EngineRecord* record)
      : inner_(std::move(inner)),
        bsp_(bsp),
        pool_(pool),
        tracer_(tracer),
        record_(record) {}

  ~TracingRefiner() override {
    if (bsp_ == nullptr) return;
    record_->bootstrap_reships += bsp_->num_bootstrap_reships();
    record_->max_worker_state_bytes =
        std::max(record_->max_worker_state_bytes, bsp_->MaxWorkerStateBytes());
  }

  TracingRefiner(const TracingRefiner&) = delete;
  TracingRefiner& operator=(const TracingRefiner&) = delete;

  shp::IterationStats RunIteration(const shp::MoveTopology& topo,
                                   shp::Partition* partition, uint64_t seed,
                                   uint64_t iteration, shp::ThreadPool* pool,
                                   const std::vector<shp::BucketId>* anchor,
                                   double anchor_penalty) override {
    if (pool == nullptr) pool = pool_;
    if (tracer_ == nullptr) {
      return inner_->RunIteration(topo, partition, seed, iteration, pool,
                                  anchor, anchor_penalty);
    }
    const Clock::time_point start = Clock::now();
    const shp::IterationStats stats = inner_->RunIteration(
        topo, partition, seed, iteration, pool, anchor, anchor_penalty);
    const Clock::time_point end = Clock::now();
    tracer_->Add("iteration", start, end);
    tracer_->ExtendLevel(end);
    record_->iterations.push_back({stats, Seconds(start, end)});
    return stats;
  }

  void SetMoveBudget(uint64_t max_moves) override {
    inner_->SetMoveBudget(max_moves);
  }

 private:
  std::unique_ptr<shp::RefinerInterface> inner_;
  const shp::BspRefiner* bsp_;
  shp::ThreadPool* pool_;
  Tracer* tracer_;
  EngineRecord* record_;
};

/// Wraps the threaded Refiner (bsp_workers == 0) or a BspRefiner with
/// `bsp_workers` workers in TracingRefiner. `tracer` null = untraced: the
/// decorator only pins the pool, and the BSP engine keeps no superstep log.
inline shp::RefinerFactory InstrumentedFactory(int bsp_workers,
                                               shp::ThreadPool* pool,
                                               Tracer* tracer,
                                               EngineRecord* record) {
  return [=](const shp::BipartiteGraph& graph,
             const shp::RefinerOptions& options)
             -> std::unique_ptr<shp::RefinerInterface> {
    const Clock::time_point start = Clock::now();
    if (tracer != nullptr) {
      tracer->BeginLevel(record);
      tracer->Begin("refiner-build");
    }
    std::unique_ptr<shp::RefinerInterface> inner;
    const shp::BspRefiner* bsp = nullptr;
    if (bsp_workers > 0) {
      shp::BspConfig config;
      config.num_workers = bsp_workers;
      auto engine = std::make_unique<shp::BspRefiner>(
          graph, options, config,
          tracer != nullptr ? &record->superstep_log : nullptr);
      bsp = engine.get();
      inner = std::move(engine);
    } else {
      inner = std::make_unique<shp::Refiner>(graph, options);
    }
    if (tracer != nullptr) {
      tracer->End();
      record->factory_seconds.push_back(Seconds(start, Clock::now()));
    }
    return std::make_unique<TracingRefiner>(std::move(inner), bsp, pool,
                                            tracer, record);
  };
}

}  // namespace perfbench
