// Generator tests: determinism, structural targets, planted ground truth,
// catalog synthesis. Parameterized sweeps double as property tests.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "graph/dataset_catalog.h"
#include "graph/gen_planted.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/gen_web.h"

namespace shp {
namespace {

TEST(PowerLaw, DeterministicPerSeed) {
  PowerLawConfig config;
  config.num_queries = 500;
  config.num_data = 800;
  config.target_edges = 4000;
  const BipartiteGraph a = GeneratePowerLaw(config);
  const BipartiteGraph b = GeneratePowerLaw(config);
  EXPECT_EQ(a.query_adj(), b.query_adj());
  config.seed ^= 1;
  const BipartiteGraph c = GeneratePowerLaw(config);
  EXPECT_NE(a.query_adj(), c.query_adj());
}

TEST(PowerLaw, HitsTargetSizesApproximately) {
  PowerLawConfig config;
  config.num_queries = 2000;
  config.num_data = 3000;
  config.target_edges = 20000;
  config.drop_trivial_queries = false;
  const BipartiteGraph g = GeneratePowerLaw(config);
  EXPECT_EQ(g.num_data(), 3000u);
  // Dedupe removes some pins; allow a generous band.
  EXPECT_GT(g.num_edges(), 10000u);
  EXPECT_LT(g.num_edges(), 30000u);
}

TEST(PowerLaw, ValidatesStructurally) {
  PowerLawConfig config;
  config.num_queries = 300;
  config.num_data = 400;
  config.target_edges = 2500;
  std::string error;
  EXPECT_TRUE(GeneratePowerLaw(config).Validate(&error)) << error;
}

TEST(ZipfSampler, ProducesSkewedRanks) {
  ZipfSampler zipf(1000, 1.5);
  Rng rng(3);
  uint64_t head = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Sample(rng.NextDouble(), rng.NextDouble()) < 10) ++head;
  }
  // Top-10 ranks must carry far more than the uniform share (1%).
  EXPECT_GT(static_cast<double>(head) / total, 0.2);
}

TEST(ZipfSampler, StaysInRange) {
  ZipfSampler zipf(37, 2.0);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Sample(rng.NextDouble(), rng.NextDouble()), 37u);
  }
}

TEST(Social, UsersAreQueriesAndData) {
  SocialGraphConfig config;
  config.num_users = 2000;
  config.avg_degree = 10;
  config.drop_trivial_queries = false;
  const BipartiteGraph g = GenerateSocialGraph(config);
  EXPECT_EQ(g.num_queries(), 2000u);
  EXPECT_EQ(g.num_data(), 2000u);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST(Social, SelfInHyperedge) {
  SocialGraphConfig config;
  config.num_users = 300;
  config.avg_degree = 6;
  config.drop_trivial_queries = false;
  const BipartiteGraph g = GenerateSocialGraph(config);
  int with_self = 0;
  for (VertexId u = 0; u < g.num_queries(); ++u) {
    for (VertexId v : g.QueryNeighbors(u)) {
      if (v == u) {
        ++with_self;
        break;
      }
    }
  }
  EXPECT_EQ(with_self, 300);
}

TEST(Social, AverageDegreeNearTarget) {
  SocialGraphConfig config;
  config.num_users = 5000;
  config.avg_degree = 14;
  config.drop_trivial_queries = false;
  const BipartiteGraph g = GenerateSocialGraph(config);
  const double avg =
      static_cast<double>(g.num_edges()) / g.num_queries() - 1;  // minus self
  EXPECT_GT(avg, 14 * 0.6);
  EXPECT_LT(avg, 14 * 1.6);
}

TEST(Social, DeterministicPerSeed) {
  SocialGraphConfig config;
  config.num_users = 500;
  EXPECT_EQ(GenerateSocialGraph(config).query_adj(),
            GenerateSocialGraph(config).query_adj());
}

TEST(Web, HostLocalityDominates) {
  WebGraphConfig config;
  config.num_pages = 3000;
  config.avg_out_degree = 6;
  config.in_host_probability = 0.9;
  const BipartiteGraph g = GenerateWebGraph(config);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
  EXPECT_GT(g.num_edges(), 3000u);
}

TEST(Web, DeterministicPerSeed) {
  WebGraphConfig config;
  config.num_pages = 800;
  EXPECT_EQ(GenerateWebGraph(config).query_adj(),
            GenerateWebGraph(config).query_adj());
}

TEST(Planted, TruthIsBalancedAndInRange) {
  PlantedPartitionConfig config;
  config.num_data = 1000;
  config.num_groups = 8;
  const PlantedPartition planted = GeneratePlantedPartition(config);
  std::vector<int> sizes(8, 0);
  for (int32_t t : planted.truth) {
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 8);
    ++sizes[static_cast<size_t>(t)];
  }
  for (int s : sizes) EXPECT_EQ(s, 125);
}

TEST(Planted, ZeroMixingQueriesStayInGroup) {
  PlantedPartitionConfig config;
  config.num_data = 400;
  config.num_queries = 600;
  config.num_groups = 4;
  config.mixing = 0.0;
  const PlantedPartition planted = GeneratePlantedPartition(config);
  for (VertexId q = 0; q < planted.graph.num_queries(); ++q) {
    auto nbrs = planted.graph.QueryNeighbors(q);
    for (VertexId v : nbrs) {
      EXPECT_EQ(planted.truth[v], planted.truth[nbrs[0]])
          << "query " << q << " crosses groups at mixing=0";
    }
  }
}

TEST(Catalog, HasAllElevenPaperRows) {
  EXPECT_EQ(DatasetCatalog().size(), 11u);
  EXPECT_TRUE(FindDataset("soc-LJ").ok());
  EXPECT_TRUE(FindDataset("FB-10B").ok());
  EXPECT_FALSE(FindDataset("no-such-dataset").ok());
}

TEST(Catalog, SynthesizeScalesLinearly) {
  const DatasetSpec spec = FindDataset("email-Enron").value();
  const BipartiteGraph small = Synthesize(spec, 0.05);
  const BipartiteGraph bigger = Synthesize(spec, 0.1);
  EXPECT_GT(bigger.num_data(), small.num_data());
  EXPECT_NEAR(static_cast<double>(bigger.num_data()) / small.num_data(), 2.0,
              0.3);
}

TEST(Catalog, SynthesizeDeterministicPerSeed) {
  const DatasetSpec spec = FindDataset("soc-Pokec").value();
  EXPECT_EQ(Synthesize(spec, 0.02, 9).query_adj(),
            Synthesize(spec, 0.02, 9).query_adj());
}

// The default bench scale (table2_quality --scale=0.15) must give every row
// its own instance: scaled vertex counts below the generator floor clamp to
// it, so two rows with close scaled sizes could collapse into one graph.
TEST(Catalog, RowsAreDistinctAtBenchScale) {
  const auto& catalog = DatasetCatalog();
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> sizes;
  for (const DatasetSpec& spec : catalog) {
    const BipartiteGraph g = Synthesize(spec, 0.15);
    sizes.emplace_back(g.num_queries(), g.num_data(), g.num_edges());
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    for (size_t j = i + 1; j < sizes.size(); ++j) {
      EXPECT_NE(sizes[i], sizes[j])
          << catalog[i].name << " and " << catalog[j].name
          << " synthesize the same (queries, data, pins)";
    }
  }
}

// Property sweep: every family × several seeds produces a valid graph with
// no empty adjacency arrays.
struct GenCase {
  std::string name;
  uint64_t seed;
};

class GeneratorProperty : public testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperty, CatalogInstanceIsValid) {
  const auto& param = GetParam();
  const DatasetSpec spec = FindDataset(param.name).value();
  const BipartiteGraph g = Synthesize(spec, 0.02, param.seed);
  ASSERT_GT(g.num_data(), 0u);
  ASSERT_GT(g.num_queries(), 0u);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
  // Every kept query has ≥ 2 neighbors (trivial queries dropped).
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    EXPECT_GE(g.QueryDegree(q), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorProperty,
    testing::Values(GenCase{"email-Enron", 1}, GenCase{"email-Enron", 2},
                    GenCase{"web-Stanford", 1}, GenCase{"web-Stanford", 2},
                    GenCase{"soc-Pokec", 1}, GenCase{"soc-Pokec", 2},
                    GenCase{"FB-10M", 1}, GenCase{"FB-10M", 2}),
    [](const testing::TestParamInfo<GenCase>& info) {
      std::string name = info.param.name + "_s" +
                         std::to_string(info.param.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace shp
