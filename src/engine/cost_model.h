// Distributed cost model: converts BSP superstep accounting into simulated
// cluster wall time.
//
// The engine runs on one host, so host wall time says nothing about a
// 4/8/16-machine Giraph cluster. Instead every superstep reports abstract
// work units per worker and its exact total remote bytes, and the model
// charges
//
//   time(s) = max_w work_w · ns_per_unit
//             + 2 · (remote_bytes / W) · ns_per_byte + barrier_ns
//
// i.e., the slowest worker's compute gates the superstep, and the remote
// bytes are spread evenly over the W workers, each byte paid once on the
// send side and once on the receive side. Constants default to
// commodity-cluster magnitudes (≈1 GB/s effective per-machine network,
// ~5 ns/unit compute, 1 ms barrier) and are configurable; the paper-shape
// claims (linear in |E|, log k levels, sublinear machine scaling) are
// invariant to the constants.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/bsp_engine.h"

namespace shp {

struct CostModelConfig {
  double ns_per_work_unit = 5.0;
  double ns_per_remote_byte = 1.0;  ///< ≈1 GB/s effective bandwidth
  double barrier_ns = 1e6;          ///< 1 ms per synchronization barrier
};

struct SimulatedTime {
  double seconds = 0.0;        ///< simulated cluster wall time
  double machine_seconds = 0.0;  ///< wall time × #machines ("total time")
};

class CostModel {
 public:
  explicit CostModel(const CostModelConfig& config) : config_(config) {}

  /// Simulated wall-clock duration of one superstep, its remote bytes
  /// spread evenly over `num_workers`.
  double SuperstepSecondsEven(const SuperstepStats& stats,
                              int num_workers) const;

  /// Totals a run of supersteps.
  SimulatedTime Total(const std::vector<SuperstepStats>& supersteps,
                      int num_workers) const;

 private:
  CostModelConfig config_;
};

}  // namespace shp
