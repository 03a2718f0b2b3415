// SHP-r: recursive r-section (r = 2 gives SHP-2, the open-sourced and most
// scalable variant, paper §3.3).
//
// The partition is built as a bucket tree. A tree node owns a contiguous
// range of final leaves [lo, hi) and is identified by bucket id = lo, so a
// vertex's bucket id is always a valid final-leaf id and the last level ends
// with ids exactly 0..k-1 — no remapping pass. At each level every active
// node (range size > 1) splits its range into ≤ r nearly equal child ranges;
// its vertices are randomly distributed over the children (weighted by leaf
// count, keeping balance for non-power-of-r k) and then refined with moves
// constrained to sibling buckets. All nodes of a level refine concurrently
// in a single Refiner pass — exactly how the Giraph implementation runs one
// job per level with per-vertex constraints.
//
// §3.4 extras, both on by default:
//  * ε is scaled by splits_done/splits_total, reserving imbalance headroom
//    for later levels;
//  * gains target the projected final p-fanout, using base (1 − p/t) where
//    t is the number of leaves a child will eventually split into.
#pragma once

#include <cstdint>
#include <vector>

#include "core/refiner.h"
#include "core/shp_k.h"
#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

struct RecursiveOptions {
  BucketId k = 2;
  int branching = 2;  ///< r; 2 = recursive bisection
  double p = 0.5;
  double epsilon = 0.05;
  uint32_t iterations_per_level = 20;  ///< paper default for SHP-2
  double min_move_fraction = 1e-3;
  uint64_t seed = 1;
  bool scale_epsilon_by_depth = true;   ///< §3.4
  bool future_split_objective = true;   ///< §3.4
  RefinerOptions refiner;  ///< p/future_splits overwritten internally
  /// Swaps the iteration engine (default: threaded in-memory Refiner). Run
  /// calls it once per recursion level.
  RefinerFactory refiner_factory;
};

struct RecursiveLevelRecord {
  uint32_t level = 0;
  uint32_t active_groups = 0;
  uint32_t iterations_run = 0;
  uint64_t total_moved = 0;
};

struct RecursiveResult {
  std::vector<BucketId> assignment;
  BucketId k = 0;
  uint32_t levels_run = 0;
  std::vector<RecursiveLevelRecord> level_history;
  /// Flattened per-iteration stats across levels (Fig. 5a time accounting).
  std::vector<ShpIterationRecord> history;
};

class RecursivePartitioner {
 public:
  explicit RecursivePartitioner(const RecursiveOptions& options);

  RecursiveResult Run(const BipartiteGraph& graph,
                      ThreadPool* pool = nullptr) const;

  /// Number of levels dlog_r(k)e the run will use.
  uint32_t NumLevels() const;

 private:
  RecursiveOptions options_;
};

}  // namespace shp
