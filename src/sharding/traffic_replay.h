// Traffic replay harness: issues a sampled query workload against a
// KvClusterSim and aggregates latency per observed fanout — reproducing the
// Fig. 4b methodology ("we sample a live traffic pattern, and issued the
// same set of queries, while measuring fanout and latency of each query").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sharding/kv_cluster.h"

namespace shp {

/// Skewed query popularity, one draw from `rng`: u^(1+skew) concentrates
/// mass near id 0 (skew 0 = uniform over [0, nq)). nq must be > 0. The
/// Fig. 4b replay and the serving loop's traffic scenarios share it.
inline uint64_t SamplePopularQuery(Rng* rng, uint64_t nq, double skew) {
  const double skewed = std::pow(rng->NextDouble(), 1.0 + skew);
  return std::min<uint64_t>(nq - 1, static_cast<uint64_t>(skewed * nq));
}

struct ReplayConfig {
  /// Number of query issues (queries are sampled with replacement,
  /// weighted toward low ids to imitate hot-user skew).
  uint64_t num_requests = 200000;
  /// Zipf-ish skew exponent for query popularity (0 = uniform).
  double popularity_skew = 0.8;
  uint64_t seed = 303;
};

struct ReplayReport {
  /// Average latency / sample count indexed by fanout (index 0 unused).
  std::vector<double> mean_latency_by_fanout;
  std::vector<double> p99_latency_by_fanout;
  std::vector<uint64_t> count_by_fanout;
  /// Issued queries that touched zero servers (isolated query vertices).
  /// They are excluded from every latency statistic — the denominator of
  /// average_fanout / average_latency is served queries only, i.e.
  /// Σ count_by_fanout == num_requests − empty_queries.
  uint64_t empty_queries = 0;
  double average_fanout = 0.0;
  double average_latency = 0.0;
};

/// Replays `config.num_requests` sampled queries against the cluster's
/// fixed assignment, each from the settled server profile
/// (KvClusterSim::IssueSettled).
ReplayReport ReplayTraffic(const BipartiteGraph& graph,
                           const KvClusterSim& cluster,
                           const ReplayConfig& config);

}  // namespace shp
