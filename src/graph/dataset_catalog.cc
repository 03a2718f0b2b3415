#include "graph/dataset_catalog.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/gen_web.h"

namespace shp {

const std::vector<DatasetSpec>& DatasetCatalog() {
  // Paper Table 1. default_scale shrinks the giant rows to bench-friendly
  // sizes; SHP_BENCH_SCALE multiplies on top for bigger runs. Within the FB
  // family the scaled sizes keep the paper's order (10M < 50M < 2B < 5B <
  // 10B) at scale 1.0 and at the table2_quality default 0.15, where the
  // smaller rows sit near the generator's 256-user floor.
  static const std::vector<DatasetSpec>* catalog = new std::vector<DatasetSpec>{
      {"email-Enron", DatasetFamily::kPowerLaw, 25481, 36692, 356451, 1.0},
      {"soc-Epinions", DatasetFamily::kPowerLaw, 31149, 75879, 479645, 1.0},
      {"web-Stanford", DatasetFamily::kWeb, 253097, 281903, 2283863, 0.25},
      {"web-BerkStan", DatasetFamily::kWeb, 609527, 685230, 7529636, 0.1},
      {"soc-Pokec", DatasetFamily::kSocial, 1277002, 1632803, 30466873, 0.02},
      {"soc-LJ", DatasetFamily::kSocial, 3392317, 4847571, 68077638, 0.01},
      {"FB-10M", DatasetFamily::kSocial, 32296, 32770, 10099740, 0.05},
      {"FB-50M", DatasetFamily::kSocial, 152263, 154551, 49998426, 0.0115},
      {"FB-2B", DatasetFamily::kSocial, 6063442, 6153846, 2000000000, 0.0003},
      {"FB-5B", DatasetFamily::kSocial, 15150402, 15376099, 5000000000,
       0.00014},
      {"FB-10B", DatasetFamily::kSocial, 30302615, 40361708, 10000000000,
       0.00006},
  };
  return *catalog;
}

Result<DatasetSpec> FindDataset(const std::string& name) {
  for (const auto& spec : DatasetCatalog()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound("no dataset named '" + name + "' in catalog");
}

BipartiteGraph Synthesize(const DatasetSpec& spec, double scale,
                          uint64_t seed) {
  const double s = std::max(1e-9, scale * spec.default_scale);
  const auto scaled = [s](uint64_t paper_value, uint64_t floor_value) {
    return static_cast<uint64_t>(
        std::max<double>(static_cast<double>(floor_value),
                         std::llround(static_cast<double>(paper_value) * s)));
  };

  switch (spec.family) {
    case DatasetFamily::kPowerLaw: {
      PowerLawConfig config;
      config.num_queries = static_cast<VertexId>(scaled(spec.paper_queries, 64));
      config.num_data = static_cast<VertexId>(scaled(spec.paper_data, 128));
      config.target_edges = scaled(spec.paper_edges, 512);
      config.seed = seed;
      return GeneratePowerLaw(config);
    }
    case DatasetFamily::kWeb: {
      WebGraphConfig config;
      config.num_pages = static_cast<VertexId>(scaled(spec.paper_data, 256));
      // avg out-degree from paper pins / queries, minus the self edge.
      config.avg_out_degree = std::max(
          2.0, static_cast<double>(spec.paper_edges) / spec.paper_queries - 1);
      config.seed = seed;
      return GenerateWebGraph(config);
    }
    case DatasetFamily::kSocial: {
      SocialGraphConfig config;
      config.num_users = static_cast<VertexId>(scaled(spec.paper_data, 256));
      // Friendship degree ≈ pins per query minus the self record. The FB-*
      // rows are dense (avg ≈ 300); cap so tiny scaled instances stay valid.
      const double paper_avg =
          static_cast<double>(spec.paper_edges) / spec.paper_queries - 1;
      config.avg_degree =
          std::min(paper_avg, static_cast<double>(config.num_users) / 4);
      config.seed = seed;
      return GenerateSocialGraph(config);
    }
  }
  SHP_CHECK(false) << "unreachable: unknown dataset family";
  return BipartiteGraph();
}

}  // namespace shp
