// Baseline partitioner tests: random/label-prop invariants, clique-net
// expansion weights, coarsening conservation, FM refinement, and the
// multilevel driver including its memory-budget failure mode.
#include <gtest/gtest.h>

#include "baseline/clique_net.h"
#include "baseline/coarsener.h"
#include "baseline/fm_refiner.h"
#include "baseline/label_propagation.h"
#include "baseline/multilevel.h"
#include "baseline/random_partitioner.h"
#include "core/partition.h"
#include "graph/gen_planted.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "objective/objective.h"

namespace shp {
namespace {

BipartiteGraph SmallSocial(uint64_t seed = 8) {
  SocialGraphConfig config;
  config.num_users = 1000;
  config.avg_degree = 8;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

TEST(RandomBaseline, BalancedAndInRange) {
  const BipartiteGraph g = SmallSocial();
  auto result = MakeRandomPartitioner({})->Partition(g, 10, nullptr);
  ASSERT_TRUE(result.ok());
  const auto partition = Partition::FromAssignment(result.value(), 10);
  EXPECT_LT(partition.ImbalanceRatio(), 0.2);
}

TEST(LabelProp, ImprovesOverRandomAndRespectsCapacity) {
  const BipartiteGraph g = SmallSocial();
  const BucketId k = 8;
  auto result = MakeLabelPropagation({})->Partition(g, k, nullptr);
  ASSERT_TRUE(result.ok());
  const double lp_fanout = AverageFanout(g, result.value());
  const double random_fanout =
      AverageFanout(g, Partition::Random(g.num_data(), k, 4).assignment());
  EXPECT_LT(lp_fanout, random_fanout);
  EXPECT_TRUE(Partition::FromAssignment(result.value(), k).IsBalanced(0.06));
}

// ------------------------------------------------------------- CliqueNet
TEST(CliqueNet, WeightsCountSharedQueries) {
  // Two queries both containing {0,1}: w(0,1) = 2 (Lemma 2's w(u,v)).
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1});
  b.AddHyperedge(1, {0, 1, 2});
  const WeightedGraph clique = BuildCliqueNet(b.Build());
  ASSERT_EQ(clique.num_vertices(), 3u);
  // Find edge 0-1.
  uint32_t w01 = 0;
  for (uint64_t e = clique.offsets[0]; e < clique.offsets[1]; ++e) {
    if (clique.adjacency[e] == 1) w01 = clique.weights[e];
  }
  EXPECT_EQ(w01, 2u);
}

TEST(CliqueNet, SymmetricAdjacency) {
  const BipartiteGraph g = SmallSocial();
  const WeightedGraph clique = BuildCliqueNet(g);
  EXPECT_EQ(clique.num_edges() % 2, 0u);
  // Spot check symmetry on vertex 0's neighbors.
  for (uint64_t e = clique.offsets[0]; e < clique.offsets[1]; ++e) {
    const VertexId v = clique.adjacency[e];
    bool found = false;
    for (uint64_t f = clique.offsets[v]; f < clique.offsets[v + 1]; ++f) {
      if (clique.adjacency[f] == 0) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(CliqueNet, LargeHyperedgesAreSampled) {
  GraphBuilder b;
  std::vector<VertexId> big;
  for (VertexId v = 0; v < 100; ++v) big.push_back(v);
  b.AddHyperedge(0, big);
  CliqueNetOptions options;
  options.max_clique_degree = 32;
  const WeightedGraph clique = BuildCliqueNet(b.Build(), options);
  // Full expansion would be 100·99 directed edges; sampling keeps ≤ 4·d.
  EXPECT_LT(clique.num_edges(), 100u * 99u / 4);
  EXPECT_GT(clique.num_edges(), 0u);
}

// -------------------------------------------------------------- Coarsener
TEST(Coarsener, PreservesTotalVertexWeight) {
  const BipartiteGraph g = SmallSocial();
  const CoarseLevel level = CoarsenOnce(g, {}, {});
  uint64_t total = 0;
  for (uint32_t w : level.vertex_weight) total += w;
  EXPECT_EQ(total, g.num_data());
  EXPECT_LT(level.graph.num_data(), g.num_data());
  EXPECT_GE(level.graph.num_data(), g.num_data() / 2);
}

TEST(Coarsener, MappingIsSurjective) {
  const BipartiteGraph g = SmallSocial();
  const CoarseLevel level = CoarsenOnce(g, {}, {});
  std::vector<bool> hit(level.graph.num_data(), false);
  for (VertexId c : level.fine_to_coarse) {
    ASSERT_LT(c, level.vertex_weight.size());
    if (c < level.graph.num_data()) hit[c] = true;
  }
  // Every coarse vertex that appears in the coarse graph has a preimage.
  for (size_t i = 0; i < hit.size(); ++i) EXPECT_TRUE(hit[i]) << i;
}

TEST(Coarsener, ModeledFullBytesExceedsSampled) {
  SocialGraphConfig config;
  config.num_users = 500;
  config.avg_degree = 30;  // dense: full expansion blows up quadratically
  const BipartiteGraph g = GenerateSocialGraph(config);
  const CoarseLevel level = CoarsenOnce(g, {}, {});
  EXPECT_GT(level.modeled_full_bytes, level.memory_bytes);
}

// ------------------------------------------------------------------- FM
TEST(Fm, NeverWorsensAndRespectsBalance) {
  const BipartiteGraph g = SmallSocial();
  std::vector<int8_t> side(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    side[v] = static_cast<int8_t>(v % 2);
  }
  std::vector<BucketId> before(side.begin(), side.end());
  const double fanout_before = AverageFanout(g, before);
  const int64_t improvement = FmRefineBisection(g, {}, {}, &side);
  EXPECT_GE(improvement, 0);
  std::vector<BucketId> after(side.begin(), side.end());
  const double fanout_after = AverageFanout(g, after);
  EXPECT_LE(fanout_after, fanout_before + 1e-9);
  // Balance: ±5% around half.
  uint64_t left = 0;
  for (int8_t s : side) left += s == 0;
  EXPECT_LT(std::abs(static_cast<double>(left) / g.num_data() - 0.5), 0.06);
}

TEST(Fm, ImprovementMatchesObjectiveDelta) {
  const BipartiteGraph g = SmallSocial(11);
  std::vector<int8_t> side(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    side[v] = static_cast<int8_t>((v / 3) % 2);
  }
  std::vector<BucketId> before(side.begin(), side.end());
  const double unnorm_before = AverageFanout(g, before) * g.num_queries();
  const int64_t claimed = FmRefineBisection(g, {}, {}, &side);
  std::vector<BucketId> after(side.begin(), side.end());
  const double unnorm_after = AverageFanout(g, after) * g.num_queries();
  EXPECT_NEAR(unnorm_before - unnorm_after, static_cast<double>(claimed),
              0.5);
}

TEST(Fm, AsymmetricTargetFraction) {
  const BipartiteGraph g = SmallSocial(13);
  std::vector<int8_t> side(g.num_data(), 0);
  FmOptions options;
  options.target_left_fraction = 2.0 / 3.0;
  // Start from all-left; FM can only move within balance ceilings, so side
  // 1 may not exceed (1+ε)/3 of the weight.
  FmRefineBisection(g, {}, options, &side);
  uint64_t right = 0;
  for (int8_t s : side) right += s == 1;
  EXPECT_LE(static_cast<double>(right) / g.num_data(),
            (1.0 + options.epsilon) / 3.0 + 0.01);
}

// ------------------------------------------------------------ Multilevel
TEST(Multilevel, ProducesBalancedKWay) {
  const BipartiteGraph g = SmallSocial();
  for (BucketId k : {2, 4, 8}) {
    auto result = MakeMultilevelPartitioner({})->Partition(g, k, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto partition = Partition::FromAssignment(result.value(), k);
    EXPECT_TRUE(partition.IsBalanced(0.15))
        << "k=" << k << " imbalance " << partition.ImbalanceRatio();
  }
}

TEST(Multilevel, BeatsRandomClearly) {
  PlantedPartitionConfig config;
  config.num_data = 1000;
  config.num_queries = 2500;
  config.num_groups = 4;
  config.mixing = 0.05;
  const PlantedPartition planted = GeneratePlantedPartition(config);
  auto result =
      MakeMultilevelPartitioner({})->Partition(planted.graph, 4, nullptr);
  ASSERT_TRUE(result.ok());
  const double ml = AverageFanout(planted.graph, result.value());
  const double random = AverageFanout(
      planted.graph,
      Partition::Random(planted.graph.num_data(), 4, 5).assignment());
  EXPECT_LT(ml, random * 0.75);
}

TEST(Multilevel, FailsWhenBudgetExceeded) {
  const BipartiteGraph g = SmallSocial();
  MultilevelOptions options;
  options.memory_budget_bytes = 1024;  // absurdly small
  auto result = MakeMultilevelPartitioner(options)->Partition(g, 4, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << "mirrors the Zoltan/Parkway OOM failures of paper §4.2.3";
}

TEST(Multilevel, MemoryEstimatePositiveAndMonotone) {
  const BipartiteGraph small = SmallSocial(1);
  SocialGraphConfig big_config;
  big_config.num_users = 3000;
  big_config.avg_degree = 8;
  const BipartiteGraph big = GenerateSocialGraph(big_config);
  const uint64_t small_mem = EstimateMultilevelMemory(small, {});
  const uint64_t big_mem = EstimateMultilevelMemory(big, {});
  EXPECT_GT(small_mem, 0u);
  EXPECT_GT(big_mem, small_mem);
}

TEST(Multilevel, RejectsKBelowTwo) {
  const BipartiteGraph g = SmallSocial();
  EXPECT_FALSE(MakeMultilevelPartitioner({})->Partition(g, 1, nullptr).ok());
}

}  // namespace
}  // namespace shp
