#include "graph/gen_web.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/graph_builder.h"

namespace shp {

BipartiteGraph GenerateWebGraph(const WebGraphConfig& config) {
  SHP_CHECK_GT(config.num_pages, 1u);
  const VertexId n = config.num_pages;
  Rng rng(config.seed);

  // Hosts: contiguous page ranges with exponential sizes (few giant hosts,
  // many small ones).
  std::vector<std::pair<VertexId, VertexId>> host_range;
  std::vector<VertexId> host_of(n);
  {
    VertexId begin = 0;
    while (begin < n) {
      const double raw = rng.NextExponential() * config.avg_host_size;
      // At least 2 pages, but never past the last page: a final host may
      // keep a single page (in-host links skip hosts of size < 2).
      const VertexId size = std::min<VertexId>(
          std::max<VertexId>(2, static_cast<VertexId>(raw) + 1), n - begin);
      const VertexId host = static_cast<VertexId>(host_range.size());
      for (VertexId p = begin; p < begin + size; ++p) host_of[p] = host;
      host_range.emplace_back(begin, begin + size);
      begin += size;
    }
  }

  // Copying model over the global link stream: all links generated so far.
  std::vector<VertexId> link_targets;
  link_targets.reserve(static_cast<size_t>(config.avg_out_degree * n));

  GraphBuilder builder(n, n);
  for (VertexId u = 0; u < n; ++u) {
    // Out-degree: geometric around the mean, at least 1.
    uint32_t out_degree =
        1 + static_cast<uint32_t>(rng.NextExponential() *
                                  (config.avg_out_degree - 1.0));
    const auto [hb, he] = host_range[host_of[u]];
    builder.AddEdge(u, u);  // hyperedge includes the page itself
    for (uint32_t j = 0; j < out_degree; ++j) {
      VertexId target;
      if (rng.NextBernoulli(config.in_host_probability) && he - hb >= 2) {
        do {
          target = hb + static_cast<VertexId>(rng.NextBounded(he - hb));
        } while (target == u);
      } else if (!link_targets.empty() &&
                 rng.NextBernoulli(config.copy_probability)) {
        target = link_targets[rng.NextBounded(link_targets.size())];
      } else {
        target = static_cast<VertexId>(rng.NextBounded(n));
      }
      builder.AddEdge(u, target);
      link_targets.push_back(target);
    }
  }

  GraphBuilder::Options options;
  options.drop_trivial_queries = config.drop_trivial_queries;
  return builder.Build(options);
}

}  // namespace shp
