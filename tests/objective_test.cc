// Objective tests: the paper's worked Fig. 1 example, p-fanout limit lemmas
// (numerically), relations among fanout/SOED/cut/clique-net, neighbor data
// and gain correctness against brute force.
#include <gtest/gtest.h>

#include <cmath>

#include "core/partition.h"
#include "graph/gen_powerlaw.h"
#include "graph/graph_builder.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"
#include "objective/objective.h"
#include "objective/pow_table.h"

namespace shp {
namespace {

BipartiteGraph Fig1Graph() {
  // Queries {1,2,6}, {1,2,3,4}, {4,5,6} over data 1..6 (0-indexed).
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1, 5});
  b.AddHyperedge(1, {0, 1, 2, 3});
  b.AddHyperedge(2, {3, 4, 5});
  return b.Build();
}

// V1 = {1,2,3}, V2 = {4,5,6} (paper Fig. 1 caption).
const std::vector<BucketId> kFig1Assignment = {0, 0, 0, 1, 1, 1};

TEST(Fanout, PaperFigure1Example) {
  const BipartiteGraph g = Fig1Graph();
  // "fanout of the queries is 2, 2, and 1, respectively."
  const auto histogram = FanoutHistogram(g, kFig1Assignment);
  ASSERT_GE(histogram.size(), 3u);
  EXPECT_EQ(histogram[1], 1u);
  EXPECT_EQ(histogram[2], 2u);
  EXPECT_NEAR(AverageFanout(g, kFig1Assignment), 5.0 / 3.0, 1e-12);
}

TEST(Fanout, SingleBucketIsAlwaysOne) {
  const BipartiteGraph g = Fig1Graph();
  const std::vector<BucketId> all_zero(6, 0);
  EXPECT_DOUBLE_EQ(AverageFanout(g, all_zero), 1.0);
  EXPECT_EQ(HyperedgeCut(g, all_zero), 0u);
  EXPECT_EQ(CliqueNetCut(g, all_zero), 0u);
}

TEST(PFanout, IsAtMostFanout) {
  // "p-fanout(q) is less than or equal to fanout(q) for all q" (§3.1).
  const BipartiteGraph g = Fig1Graph();
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_LE(AveragePFanout(g, kFig1Assignment, p),
              AverageFanout(g, kFig1Assignment) + 1e-12);
  }
}

TEST(PFanout, HandComputedValue) {
  const BipartiteGraph g = Fig1Graph();
  // q0 = {0,1,5}: n = (2,1); q1 = {0,1,2,3}: n = (3,1); q2 = {3,4,5}: (0,3).
  const double p = 0.5;
  const double expected = ((1 - std::pow(0.5, 2)) + (1 - std::pow(0.5, 1)) +
                           (1 - std::pow(0.5, 3)) + (1 - std::pow(0.5, 1)) +
                           (1 - std::pow(0.5, 3))) /
                          3.0;
  EXPECT_NEAR(AveragePFanout(g, kFig1Assignment, p), expected, 1e-12);
}

TEST(PFanout, Lemma1LimitRecoversFanout) {
  // Minimizing p-fanout as p -> 1 is fanout minimization: numerically,
  // p-fanout at p = 1 equals fanout exactly (0^n = 0 for n > 0).
  const BipartiteGraph g = Fig1Graph();
  EXPECT_NEAR(AveragePFanout(g, kFig1Assignment, 1.0),
              AverageFanout(g, kFig1Assignment), 1e-12);
}

TEST(PFanout, Lemma2SmallPOrdersLikeCliqueNet) {
  // As p -> 0, p-fanout ranks partitions like the clique-net edge-cut: for
  // random assignments of a random hypergraph, the ordering by tiny-p
  // p-fanout must agree with ordering by CliqueNetCut.
  PowerLawConfig config;
  config.num_queries = 200;
  config.num_data = 120;
  config.target_edges = 900;
  const BipartiteGraph g = GeneratePowerLaw(config);
  const double p = 1e-4;
  for (uint64_t seed = 0; seed < 6; seed += 2) {
    const auto a = Partition::Random(g.num_data(), 4, seed).assignment();
    const auto b = Partition::Random(g.num_data(), 4, seed + 1).assignment();
    const double pf_a = AveragePFanout(g, a, p);
    const double pf_b = AveragePFanout(g, b, p);
    const uint64_t cut_a = CliqueNetCut(g, a);
    const uint64_t cut_b = CliqueNetCut(g, b);
    if (cut_a == cut_b) continue;
    EXPECT_EQ(pf_a < pf_b, cut_a < cut_b)
        << "tiny-p ordering must match clique-net ordering (seed " << seed
        << ")";
  }
}

TEST(Objective, SoedEqualsFanoutPlusCut) {
  // Paper footnote 2: SOED = unnormalized fanout + hyperedge cut.
  const BipartiteGraph g = Fig1Graph();
  const uint64_t soed = SumExternalDegrees(g, kFig1Assignment);
  const double fanout = AverageFanout(g, kFig1Assignment);
  const uint64_t cut = HyperedgeCut(g, kFig1Assignment);
  EXPECT_EQ(soed, static_cast<uint64_t>(std::llround(
                      fanout * g.num_queries())) +
                      cut);
}

TEST(Objective, CliqueNetCutHandValue) {
  const BipartiteGraph g = Fig1Graph();
  // q0 (2,1): pairs cut = (3²-2²-1²)/2 = 2; q1 (3,1): (16-9-1)/2 = 3;
  // q2 (3,0): 0. Total 5.
  EXPECT_EQ(CliqueNetCut(g, kFig1Assignment), 5u);
}

TEST(Objective, KindNames) {
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kPFanout), "p-fanout");
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kFanout), "fanout");
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kCliqueNet), "clique-net");
}

// --------------------------------------------------------------- PowTable
TEST(PowTable, MatchesStdPow) {
  const PowTable table(0.5, 64);
  for (uint32_t n = 0; n <= 64; ++n) {
    EXPECT_NEAR(table.Pow(n), std::pow(0.5, n), 1e-15);
  }
  // Beyond the table: fallback.
  EXPECT_NEAR(table.Pow(100), std::pow(0.5, 100), 1e-30);
}

TEST(PowTable, EdgeBases) {
  const PowTable zero(0.0, 8);
  EXPECT_DOUBLE_EQ(zero.Pow(0), 1.0);
  EXPECT_DOUBLE_EQ(zero.Pow(3), 0.0);
  const PowTable one(1.0, 8);
  EXPECT_DOUBLE_EQ(one.Pow(7), 1.0);
}

// ----------------------------------------------------------- NeighborData
TEST(NeighborData, MatchesBruteForceCounts) {
  const BipartiteGraph g = Fig1Graph();
  QueryNeighborData ndata;
  ndata.Build(g, kFig1Assignment);
  EXPECT_EQ(ndata.CountFor(0, 0), 2u);  // q0: data {0,1} in bucket 0
  EXPECT_EQ(ndata.CountFor(0, 1), 1u);  // data {5} in bucket 1
  EXPECT_EQ(ndata.CountFor(1, 0), 3u);
  EXPECT_EQ(ndata.CountFor(1, 1), 1u);
  EXPECT_EQ(ndata.CountFor(2, 0), 0u);
  EXPECT_EQ(ndata.CountFor(2, 1), 3u);
  EXPECT_EQ(ndata.Fanout(0), 2u);
  EXPECT_EQ(ndata.Fanout(2), 1u);
  EXPECT_EQ(ndata.TotalEntries(), 5u);  // Σ fanout(q) = 2+2+1
}

TEST(NeighborData, SingleMoveKeepsCountsConsistent) {
  const BipartiteGraph g = Fig1Graph();
  std::vector<BucketId> assignment = kFig1Assignment;
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  const VertexMove move{/*v=*/3, /*from=*/1, /*to=*/0};
  ndata.ApplyMoves(g, {&move, 1});
  assignment[3] = 0;
  QueryNeighborData fresh;
  fresh.Build(g, assignment);
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    for (BucketId b = 0; b < 2; ++b) {
      EXPECT_EQ(ndata.CountFor(q, b), fresh.CountFor(q, b))
          << "q=" << q << " b=" << b;
    }
  }
}

TEST(NeighborData, SingleMovesCreatingAndEmptyingBuckets) {
  const BipartiteGraph g = Fig1Graph();
  std::vector<BucketId> assignment = {0, 0, 0, 0, 0, 0};
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const VertexMove there{5, 0, 2};
  const VertexMove back{5, 2, 0};
  ndata.ApplyMoves(g, {&there, 1});  // bucket 2 appears for q0 and q2
  EXPECT_EQ(ndata.CountFor(0, 2), 1u);
  EXPECT_EQ(ndata.CountFor(2, 2), 1u);
  ndata.ApplyMoves(g, {&back, 1});  // and disappears again
  EXPECT_EQ(ndata.CountFor(0, 2), 0u);
  EXPECT_EQ(ndata.Fanout(0), 1u);
}

// ------------------------------------------------------------------ Gain
// Brute-force objective delta: p-fanout(before) - p-fanout(after).
double BruteForceGain(const BipartiteGraph& g, std::vector<BucketId> assign,
                      VertexId v, BucketId to, double p) {
  const double before =
      AveragePFanout(g, assign, p) * g.num_queries();
  assign[v] = to;
  const double after = AveragePFanout(g, assign, p) * g.num_queries();
  return before - after;
}

TEST(Gain, MoveGainEqualsObjectiveDelta) {
  const BipartiteGraph g = Fig1Graph();
  QueryNeighborData ndata;
  ndata.Build(g, kFig1Assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  for (VertexId v = 0; v < g.num_data(); ++v) {
    for (BucketId to = 0; to < 2; ++to) {
      const BucketId from = kFig1Assignment[v];
      if (to == from) continue;
      EXPECT_NEAR(gain.MoveGain(g, ndata, v, from, to),
                  BruteForceGain(g, kFig1Assignment, v, to, 0.5), 1e-12)
          << "v=" << v << " to=" << to;
    }
  }
}

class GainProperty : public testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(GainProperty, GainMatchesDeltaOnRandomGraphs) {
  const double p = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  PowerLawConfig config;
  config.num_queries = 150;
  config.num_data = 100;
  config.target_edges = 700;
  config.seed = 77 + k;
  const BipartiteGraph g = GeneratePowerLaw(config);
  const auto assignment =
      Partition::Random(g.num_data(), k, 5).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(p, static_cast<uint32_t>(g.MaxQueryDegree()));
  for (VertexId v = 0; v < g.num_data(); v += 7) {
    const BucketId from = assignment[v];
    const BucketId to = (from + 1) % k;
    EXPECT_NEAR(gain.MoveGain(g, ndata, v, from, to),
                BruteForceGain(g, assignment, v, to, p), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GainProperty,
                         testing::Combine(testing::Values(0.1, 0.5, 0.9, 1.0),
                                          testing::Values(2, 4, 16)));

TEST(Gain, FindBestTargetMatchesBruteForce) {
  PowerLawConfig config;
  config.num_queries = 200;
  config.num_data = 150;
  config.target_edges = 900;
  const BipartiteGraph g = GeneratePowerLaw(config);
  const BucketId k = 8;
  const auto assignment = Partition::Random(g.num_data(), k, 2).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (g.DataDegree(v) == 0) continue;
    const BucketId from = assignment[v];
    const auto best =
        gain.FindBestTarget(g, ndata, v, from, 0, k, &affinity, &touched);
    double brute_best = -1e300;
    for (BucketId b = 0; b < k; ++b) {
      if (b == from) continue;
      brute_best =
          std::max(brute_best, gain.MoveGain(g, ndata, v, from, b));
    }
    ASSERT_NE(best.bucket, -1);
    EXPECT_NE(best.bucket, from);
    EXPECT_NEAR(best.gain, brute_best, 1e-9) << "v=" << v;
  }
}

TEST(Gain, FutureSplitGeneralizesPlainGain) {
  // t = 1 must equal the plain gain; t > 1 must equal the projected-final
  // objective delta computed by hand: gain = p Σ ((1-p/t)^{n_i-1} -
  // (1-p/t)^{n_j}).
  const BipartiteGraph g = Fig1Graph();
  QueryNeighborData ndata;
  ndata.Build(g, kFig1Assignment);
  const uint32_t maxdeg = static_cast<uint32_t>(g.MaxQueryDegree());
  const GainComputer plain(0.5, maxdeg, 1);
  const GainComputer projected(0.5, maxdeg, 4);
  EXPECT_DOUBLE_EQ(plain.pow_base(), 0.5);
  EXPECT_DOUBLE_EQ(projected.pow_base(), 1.0 - 0.5 / 4);
  // Hand value for v=3 (bucket 1 -> 0): adjacent queries q1 (n0=3, n1=1)
  // and q2 (n0=0, n1=3).
  const double base = 1.0 - 0.5 / 4;
  const double expected =
      0.5 * ((std::pow(base, 0) - std::pow(base, 3)) +
             (std::pow(base, 2) - std::pow(base, 0)));
  EXPECT_NEAR(projected.MoveGain(g, ndata, 3, 1, 0), expected, 1e-12);
}

}  // namespace
}  // namespace shp
