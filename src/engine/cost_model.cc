#include "engine/cost_model.h"

namespace shp {

double CostModel::SuperstepSecondsEven(const SuperstepStats& stats,
                                       int num_workers) const {
  const double bytes_per_worker =
      num_workers > 0
          ? static_cast<double>(stats.traffic.remote_bytes) / num_workers
          : 0.0;
  const double ns =
      static_cast<double>(stats.MaxWork()) * config_.ns_per_work_unit +
      // bytes counted once on the send side and once on the receive side
      2.0 * bytes_per_worker * config_.ns_per_remote_byte;
  return (ns + config_.barrier_ns) * 1e-9;
}

SimulatedTime CostModel::Total(const std::vector<SuperstepStats>& supersteps,
                               int num_workers) const {
  SimulatedTime time;
  for (const auto& stats : supersteps) {
    time.seconds += SuperstepSecondsEven(stats, num_workers);
  }
  time.machine_seconds = time.seconds * num_workers;
  return time;
}

}  // namespace shp
