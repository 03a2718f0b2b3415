// Driver-level tests: SHP-k and SHP-2/r invariants (balance, leaf mapping,
// quality vs random), planted recovery, incremental repartitioning,
// multi-dimensional balancing, and property sweeps over k × seed × family.
#include <gtest/gtest.h>

#include <set>

#include "common/thread_pool.h"

#include "core/incremental.h"
#include "core/multidim.h"
#include "core/recursive.h"
#include "core/shp.h"
#include "graph/gen_planted.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/gen_web.h"

namespace shp {
namespace {

BipartiteGraph SmallSocial(uint64_t seed = 5) {
  SocialGraphConfig config;
  config.num_users = 1500;
  config.avg_degree = 10;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

TEST(ShpK, ConvergesAndBalances) {
  const BipartiteGraph g = SmallSocial();
  ShpKOptions options;
  options.k = 8;
  options.seed = 2;
  const ShpResult result = ShpKPartitioner(options).Run(g);
  EXPECT_GT(result.iterations_run, 1u);
  const auto partition = Partition::FromAssignment(result.assignment, 8);
  EXPECT_TRUE(partition.IsBalanced(0.05)) << partition.ImbalanceRatio();
  EXPECT_FALSE(result.history.empty());
}

TEST(ShpK, CallbackCanStopEarly) {
  const BipartiteGraph g = SmallSocial();
  ShpKOptions options;
  options.k = 4;
  uint32_t seen = 0;
  ShpKPartitioner(options).Run(
      g, nullptr, [&](uint32_t, const IterationStats&, const Partition&) {
        return ++seen < 3;
      });
  EXPECT_EQ(seen, 3u);
}

TEST(ShpK, WarmStartRespectsAssignment) {
  const BipartiteGraph g = SmallSocial();
  ShpKOptions options;
  options.k = 4;
  options.max_iterations = 0;  // no refinement: warm start passes through
  const auto warm = Partition::Random(g.num_data(), 4, 9).assignment();
  const ShpResult result = ShpKPartitioner(options).RunFrom(g, warm);
  EXPECT_EQ(result.assignment, warm);
}

TEST(Shp2, LeafIdsCoverExactlyZeroToKMinusOne) {
  const BipartiteGraph g = SmallSocial();
  for (BucketId k : {2, 3, 5, 8, 16}) {
    RecursiveOptions options;
    options.k = k;
    const RecursiveResult result = RecursivePartitioner(options).Run(g);
    std::set<BucketId> used(result.assignment.begin(),
                            result.assignment.end());
    EXPECT_GE(static_cast<int>(used.size()), k - 1)
        << "k=" << k << ": nearly all leaves populated";
    for (BucketId b : used) {
      EXPECT_GE(b, 0);
      EXPECT_LT(b, k);
    }
  }
}

TEST(Shp2, NumLevelsIsCeilLog) {
  RecursiveOptions options;
  options.k = 8;
  EXPECT_EQ(RecursivePartitioner(options).NumLevels(), 3u);
  options.k = 9;
  EXPECT_EQ(RecursivePartitioner(options).NumLevels(), 4u);
  options.k = 2;
  EXPECT_EQ(RecursivePartitioner(options).NumLevels(), 1u);
  options.branching = 4;
  options.k = 16;
  EXPECT_EQ(RecursivePartitioner(options).NumLevels(), 2u);
}

TEST(Shp2, NonPowerOfTwoKeepsBalance) {
  const BipartiteGraph g = SmallSocial();
  RecursiveOptions options;
  options.k = 6;
  const RecursiveResult result = RecursivePartitioner(options).Run(g);
  const auto partition = Partition::FromAssignment(result.assignment, 6);
  EXPECT_TRUE(partition.IsBalanced(0.06)) << partition.ImbalanceRatio();
}

TEST(Shp2, BranchingFourMatchesLevels) {
  const BipartiteGraph g = SmallSocial();
  RecursiveOptions options;
  options.k = 16;
  options.branching = 4;
  const RecursiveResult result = RecursivePartitioner(options).Run(g);
  EXPECT_EQ(result.levels_run, 2u);
  EXPECT_TRUE(
      Partition::FromAssignment(result.assignment, 16).IsBalanced(0.06));
}

TEST(Shp2, RecoverersPlantedPartitionAtLowMixing) {
  PlantedPartitionConfig config;
  config.num_data = 2000;
  config.num_queries = 5000;
  config.num_groups = 8;
  config.mixing = 0.01;
  const PlantedPartition planted = GeneratePlantedPartition(config);
  RecursiveOptions options;
  options.k = 8;
  const auto result = RecursivePartitioner(options).Run(planted.graph);
  const double fanout = AverageFanout(planted.graph, result.assignment);
  EXPECT_LT(fanout, 1.35) << "near-perfect recovery expected at 1% mixing";
}

TEST(Shp2, BeatsRandomOnWebGraph) {
  WebGraphConfig config;
  config.num_pages = 3000;
  const BipartiteGraph g = GenerateWebGraph(config);
  RecursiveOptions options;
  options.k = 16;
  const auto result = RecursivePartitioner(options).Run(g);
  const double shp_fanout = AverageFanout(g, result.assignment);
  const double random_fanout = AverageFanout(
      g, Partition::Random(g.num_data(), 16, 77).assignment());
  EXPECT_LT(shp_fanout, random_fanout * 0.6)
      << "web graphs have strong host locality to exploit";
}

/// Requires identical per-iteration stats, iteration by iteration.
void ExpectSameHistory(const std::vector<ShpIterationRecord>& expected,
                       const std::vector<ShpIterationRecord>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].iteration, actual[i].iteration) << "record " << i;
    EXPECT_TRUE(expected[i].stats == actual[i].stats) << "record " << i;
  }
}

TEST(Drivers, ResultsDoNotDependOnPoolSize) {
  // The threaded engine splits every phase into one chunk per pool thread,
  // and per-chunk scratch, shard splits and summation orders follow the
  // chunk index. Whichever thread runs which chunk, and however many
  // chunks there are, SHP-2 and SHP-k (driver defaults, so exploration on)
  // must reach the same assignment through the same iterations.
  PowerLawConfig config;
  config.num_queries = 1500;
  config.num_data = 1000;
  config.target_edges = 9000;
  config.seed = 11;
  const BipartiteGraph g = GeneratePowerLaw(config);
  RecursiveOptions shp2;
  shp2.k = 8;
  shp2.iterations_per_level = 8;
  ShpKOptions shpk;
  shpk.k = 8;
  shpk.max_iterations = 10;
  ThreadPool serial(1);
  const RecursiveResult shp2_ref = RecursivePartitioner(shp2).Run(g, &serial);
  const ShpResult shpk_ref = ShpKPartitioner(shpk).Run(g, &serial);
  ASSERT_GT(shpk_ref.iterations_run, 1u);
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "pool of " << threads);
    ThreadPool pool(threads);
    const RecursiveResult shp2_run = RecursivePartitioner(shp2).Run(g, &pool);
    EXPECT_EQ(shp2_run.assignment, shp2_ref.assignment);
    ExpectSameHistory(shp2_ref.history, shp2_run.history);
    const ShpResult shpk_run = ShpKPartitioner(shpk).Run(g, &pool);
    EXPECT_EQ(shpk_run.assignment, shpk_ref.assignment);
    ExpectSameHistory(shpk_ref.history, shpk_run.history);
  }
}

// Property sweep: balance and quality hold across k × seed × family.
struct SweepCase {
  int family;  // 0 = social, 1 = web, 2 = planted
  BucketId k;
  uint64_t seed;
};

class ShpSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(ShpSweep, BalancedAndBetterThanRandom) {
  const SweepCase param = GetParam();
  BipartiteGraph g;
  switch (param.family) {
    case 0: {
      SocialGraphConfig config;
      config.num_users = 1200;
      config.avg_degree = 9;
      config.seed = param.seed;
      g = GenerateSocialGraph(config);
      break;
    }
    case 1: {
      WebGraphConfig config;
      config.num_pages = 1200;
      config.seed = param.seed;
      g = GenerateWebGraph(config);
      break;
    }
    default: {
      PlantedPartitionConfig config;
      config.num_data = 1200;
      config.num_queries = 2400;
      config.num_groups = param.k;
      config.seed = param.seed;
      g = GeneratePlantedPartition(config).graph;
      break;
    }
  }
  RecursiveOptions options;
  options.k = param.k;
  options.seed = param.seed;
  const auto result = RecursivePartitioner(options).Run(g);
  const auto partition = Partition::FromAssignment(result.assignment, param.k);
  EXPECT_TRUE(partition.IsBalanced(0.08)) << partition.ImbalanceRatio();
  const double random_fanout = AverageFanout(
      g, Partition::Random(g.num_data(), param.k, 123).assignment());
  const double shp_fanout = AverageFanout(g, result.assignment);
  EXPECT_LE(shp_fanout, random_fanout * 1.001)
      << "family=" << param.family << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShpSweep,
    testing::Values(SweepCase{0, 2, 1}, SweepCase{0, 8, 1},
                    SweepCase{0, 16, 2}, SweepCase{1, 2, 1},
                    SweepCase{1, 8, 2}, SweepCase{1, 16, 1},
                    SweepCase{2, 4, 1}, SweepCase{2, 8, 2}),
    [](const testing::TestParamInfo<SweepCase>& info) {
      const char* family = info.param.family == 0   ? "social"
                           : info.param.family == 1 ? "web"
                                                    : "planted";
      return std::string(family) + "_k" + std::to_string(info.param.k) +
             "_s" + std::to_string(info.param.seed);
    });

// ------------------------------------------------------------ Incremental
TEST(Incremental, HighPenaltyFreezesAssignment) {
  const BipartiteGraph g = SmallSocial();
  RecursiveOptions base;
  base.k = 8;
  const auto previous = RecursivePartitioner(base).Run(g).assignment;

  IncrementalOptions options;
  options.base.k = 8;
  options.move_penalty = 1e6;  // prohibitive
  const IncrementalResult result =
      IncrementalRepartitioner(options).Repartition(g, previous);
  EXPECT_EQ(result.vertices_relocated, 0u);
}

TEST(Incremental, DampingReducesRelocations) {
  const BipartiteGraph g = SmallSocial();
  const auto previous =
      Partition::Random(g.num_data(), 8, 3).assignment();  // poor start
  auto relocations = [&](double damping) {
    IncrementalOptions options;
    options.base.k = 8;
    options.base.max_iterations = 5;
    options.probability_damping = damping;
    return IncrementalRepartitioner(options)
        .Repartition(g, previous)
        .vertices_relocated;
  };
  EXPECT_LT(relocations(0.1), relocations(1.0));
}

TEST(Incremental, PlacesNewVerticesAndBalances) {
  const BipartiteGraph g = SmallSocial();
  // Previous assignment covers only the first half of the vertices.
  std::vector<BucketId> previous(g.num_data() / 2);
  for (size_t v = 0; v < previous.size(); ++v) {
    previous[v] = static_cast<BucketId>(v % 8);
  }
  IncrementalOptions options;
  options.base.k = 8;
  const IncrementalResult result =
      IncrementalRepartitioner(options).Repartition(g, previous);
  EXPECT_EQ(result.vertices_new, g.num_data() - previous.size());
  EXPECT_TRUE(Partition::FromAssignment(result.shp.assignment, 8)
                  .IsBalanced(0.05));
}

// --------------------------------------------------------------- MultiDim
TEST(MultiDim, MergeAssignsExactSlots) {
  // 8 sub-buckets -> 2 final buckets, 4 each.
  std::vector<std::vector<double>> loads(8, std::vector<double>(2, 1.0));
  loads[0] = {10.0, 1.0};
  loads[1] = {1.0, 10.0};
  const auto merge = MultiDimBalancer::MergeSubBuckets(loads, 2, 4);
  std::vector<int> counts(2, 0);
  for (BucketId b : merge) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 2);
    ++counts[static_cast<size_t>(b)];
  }
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
  // The two heavy sub-buckets should land in different final buckets.
  EXPECT_NE(merge[0], merge[1]);
}

TEST(MultiDim, BalancesTwoDimensions) {
  const BipartiteGraph g = SmallSocial();
  // Dimension 0: uniform; dimension 1: skewed toward low ids.
  std::vector<double> weights(static_cast<size_t>(g.num_data()) * 2);
  for (VertexId v = 0; v < g.num_data(); ++v) {
    weights[v * 2] = 1.0;
    weights[v * 2 + 1] = v < g.num_data() / 4 ? 4.0 : 1.0;
  }
  MultiDimOptions options;
  options.k = 4;
  options.oversample = 4;
  options.partition.k = 16;  // overwritten internally anyway
  const MultiDimResult result =
      MultiDimBalancer(options).Run(g, weights, 2);
  ASSERT_EQ(result.imbalance.size(), 2u);
  EXPECT_LT(result.imbalance[0], 0.25);
  EXPECT_LT(result.imbalance[1], 0.25);
  for (BucketId b : result.assignment) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
  }
}

// ----------------------------------------------------------------- Facade
TEST(Facade, AdaptersRunAndName) {
  const BipartiteGraph g = SmallSocial();
  auto shp2 = MakeShpRecursive({});
  EXPECT_EQ(shp2->name(), "SHP-2");
  auto result = shp2->Partition(g, 4, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), g.num_data());

  auto shpk = MakeShpK({});
  EXPECT_EQ(shpk->name(), "SHP-k");
  EXPECT_FALSE(shpk->Partition(g, 1, nullptr).ok()) << "k < 2 rejected";
}

TEST(Facade, SummaryFieldsConsistent) {
  const BipartiteGraph g = SmallSocial();
  auto assignment = MakeShpRecursive({})->Partition(g, 8, nullptr).value();
  const PartitionSummary summary = SummarizePartition(g, assignment, 8);
  EXPECT_GE(summary.fanout, 1.0);
  EXPECT_LE(summary.p_fanout, summary.fanout + 1e-12);
  EXPECT_EQ(summary.k, 8);
  EXPECT_GE(summary.imbalance, 0.0);
}

}  // namespace
}  // namespace shp
