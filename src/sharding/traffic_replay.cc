#include "sharding/traffic_replay.h"

#include <algorithm>

#include "common/stats.h"

namespace shp {

ReplayReport ReplayTraffic(const BipartiteGraph& graph,
                           const KvClusterSim& cluster,
                           const ReplayConfig& config) {
  ReplayReport report;
  if (graph.num_queries() == 0) return report;
  Rng rng(config.seed);

  const uint32_t max_fanout = cluster.config().num_servers + 1;
  std::vector<std::vector<double>> samples(max_fanout + 1);
  double fanout_sum = 0.0;
  double latency_sum = 0.0;

  // The assignment is fixed for the whole replay: one profile serves it.
  ServerProfile profile;
  profile.Refresh(graph, cluster);
  MultiGetScratch scratch;

  for (uint64_t r = 0; r < config.num_requests; ++r) {
    const VertexId q = static_cast<VertexId>(SamplePopularQuery(
        &rng, graph.num_queries(), config.popularity_skew));
    const QueryTrace trace =
        cluster.IssueSettled(graph, profile, q, &rng, &scratch);
    if (trace.fanout == 0) {
      // Zero-fanout queries (no records) get counted, not silently dropped:
      // they are real issued traffic but contribute no latency sample.
      ++report.empty_queries;
      continue;
    }
    samples[std::min(trace.fanout, max_fanout)].push_back(trace.latency);
    fanout_sum += trace.fanout;
    latency_sum += trace.latency;
  }

  report.mean_latency_by_fanout.assign(max_fanout + 1, 0.0);
  report.p99_latency_by_fanout.assign(max_fanout + 1, 0.0);
  report.count_by_fanout.assign(max_fanout + 1, 0);
  uint64_t total = 0;
  for (uint32_t f = 1; f <= max_fanout; ++f) {
    auto& bucket = samples[f];
    report.count_by_fanout[f] = bucket.size();
    total += bucket.size();
    if (bucket.empty()) continue;
    double sum = 0.0;
    for (double x : bucket) sum += x;
    report.mean_latency_by_fanout[f] = sum / static_cast<double>(bucket.size());
    // In place: the bucket is never read again, so no reason to copy + sort.
    report.p99_latency_by_fanout[f] = PercentileInPlace(&bucket, 99);
  }
  if (total > 0) {
    report.average_fanout = fanout_sum / static_cast<double>(total);
    report.average_latency = latency_sum / static_cast<double>(total);
  }
  return report;
}

}  // namespace shp
