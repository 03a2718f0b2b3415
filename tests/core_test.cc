// Core partitioner tests: partition state, proposal matrix, gain-histogram
// matching, move broker balance guarantees, and the Fig. 2 local-minimum
// escape that motivates probabilistic fanout.
#include <gtest/gtest.h>

#include <random>

#include "core/gain_histogram.h"
#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/proposal_matrix.h"
#include "core/shp_k.h"
#include "graph/gen_planted.h"
#include "graph/graph_builder.h"
#include "objective/objective.h"

namespace shp {
namespace {

// ------------------------------------------------------------- Partition
TEST(PartitionState, RandomIsNearlyBalanced) {
  const auto p = Partition::Random(100000, 16, 3);
  EXPECT_LT(p.ImbalanceRatio(), 0.03)
      << "random init guarantees near-perfect balance for large n (§3.1)";
  p.CheckInvariants();
}

TEST(PartitionState, MoveUpdatesSizes) {
  Partition p(10, 3);  // all in bucket 0
  EXPECT_EQ(p.bucket_size(0), 10u);
  p.Move(4, 2);
  EXPECT_EQ(p.bucket_size(0), 9u);
  EXPECT_EQ(p.bucket_size(2), 1u);
  p.Move(4, 2);  // no-op
  EXPECT_EQ(p.bucket_size(2), 1u);
  p.CheckInvariants();
}

TEST(PartitionState, ImbalanceRatioHandValue) {
  auto p = Partition::FromAssignment({0, 0, 0, 1}, 2);
  // max 3 vs ideal 2 -> 0.5.
  EXPECT_DOUBLE_EQ(p.ImbalanceRatio(), 0.5);
  EXPECT_FALSE(p.IsBalanced(0.4));
  EXPECT_TRUE(p.IsBalanced(0.5));
}

TEST(PartitionState, BucketCapacityFloorsAndFeasible) {
  // floor((1+0.05)*375) = 393 (not ceil -> never violates ε)...
  EXPECT_EQ(MoveTopology::BucketCapacity(3000, 8, 1, 0.05), 393u);
  // ...but stays feasible when ε would round below the even share.
  EXPECT_GE(MoveTopology::BucketCapacity(10, 3, 1, 0.0), 4u);
}

// -------------------------------------------------------- ProposalMatrix
TEST(ProposalMatrix, MinRatioProbability) {
  ProposalMatrix m;
  m.Add(0, 1, 10);
  m.Add(1, 0, 4);
  EXPECT_DOUBLE_EQ(m.MoveProbability(0, 1), 0.4);  // min(10,4)/10
  EXPECT_DOUBLE_EQ(m.MoveProbability(1, 0), 1.0);  // min(4,10)/4
  EXPECT_DOUBLE_EQ(m.MoveProbability(2, 3), 0.0);  // unknown pair
}

TEST(ProposalMatrix, MergeAndSortedPairs) {
  ProposalMatrix a, b;
  a.Add(0, 1);
  b.Add(0, 1, 2);
  b.Add(2, 0);
  a.Merge(b);
  EXPECT_EQ(a.Count(0, 1), 3u);
  const auto pairs = a.SortedPairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 1));
  EXPECT_EQ(pairs[1], std::make_pair(2, 0));
}

// ----------------------------------------------------------- GainBinning
TEST(GainBinning, SignedExponentialLayout) {
  const GainBinning binning(1e-3, 2.0, 4);  // 9 bins, zero bin = 4
  EXPECT_EQ(binning.num_bins(), 9);
  EXPECT_EQ(binning.BinFor(0.0), 4);
  EXPECT_EQ(binning.BinFor(5e-4), 4);       // within zero width
  EXPECT_EQ(binning.BinFor(1.5e-3), 5);     // first positive level
  EXPECT_EQ(binning.BinFor(-1.5e-3), 3);    // first negative level
  EXPECT_EQ(binning.BinFor(1e9), 8);        // clamped top
  EXPECT_EQ(binning.BinFor(-1e9), 0);       // clamped bottom
}

TEST(GainBinning, RepresentativeSignsAndMonotonicity) {
  const GainBinning binning(1e-3, 2.0, 4);
  EXPECT_DOUBLE_EQ(binning.Representative(4), 0.0);
  double prev = -1e300;
  for (int bin = 0; bin < binning.num_bins(); ++bin) {
    const double rep = binning.Representative(bin);
    EXPECT_GT(rep, prev);
    prev = rep;
  }
}

TEST(MatchHistograms, SymmetricDemandFullyMatches) {
  const GainBinning binning;
  DirectedGainHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 10; ++i) {
    fwd.Add(binning, 1.0);
    bwd.Add(binning, 1.0);
  }
  const auto match = MatchHistograms(binning, fwd, bwd);
  EXPECT_DOUBLE_EQ(match.forward[static_cast<size_t>(binning.BinFor(1.0))],
                   1.0);
  EXPECT_DOUBLE_EQ(match.backward[static_cast<size_t>(binning.BinFor(1.0))],
                   1.0);
  EXPECT_DOUBLE_EQ(match.expected_swaps, 10.0);
}

TEST(MatchHistograms, AsymmetricDemandPartiallyMatches) {
  const GainBinning binning;
  DirectedGainHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 20; ++i) fwd.Add(binning, 2.0);
  for (int i = 0; i < 5; ++i) bwd.Add(binning, 2.0);
  const auto match = MatchHistograms(binning, fwd, bwd);
  const int bin = binning.BinFor(2.0);
  EXPECT_NEAR(match.forward[static_cast<size_t>(bin)], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(match.backward[static_cast<size_t>(bin)], 1.0);
}

TEST(MatchHistograms, NegativePairsWithLargerPositive) {
  // §3.4: "A pair of positive and negative histogram bins can swap if the
  // sum of the gains is expected to be positive."
  const GainBinning binning;
  DirectedGainHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  fwd.Add(binning, 8.0);    // strong positive one way
  bwd.Add(binning, -1.0);   // mild negative the other way
  const auto match = MatchHistograms(binning, fwd, bwd);
  EXPECT_GT(match.expected_swaps, 0.0);
  EXPECT_DOUBLE_EQ(
      match.backward[static_cast<size_t>(binning.BinFor(-1.0))], 1.0);
}

TEST(MatchHistograms, NegativePairsRejectedWhenSumNegative) {
  const GainBinning binning;
  DirectedGainHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  fwd.Add(binning, 1.0);
  bwd.Add(binning, -8.0);
  const auto match = MatchHistograms(binning, fwd, bwd);
  EXPECT_DOUBLE_EQ(match.expected_swaps, 0.0);
}

TEST(MatchHistograms, OneSidedDemandDoesNotMove) {
  const GainBinning binning;
  DirectedGainHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 50; ++i) fwd.Add(binning, 3.0);
  const auto match = MatchHistograms(binning, fwd, bwd);
  EXPECT_DOUBLE_EQ(match.expected_swaps, 0.0)
      << "without opposing demand (and without slack) nothing may move";
}

// ------------------------------------------------------------ MoveBroker
TEST(MoveBroker, HardCapacityNeverExceeded) {
  // Start from an exactly balanced (feasible) state: the guarantee is that
  // one move round never pushes a bucket past capacity.
  const VertexId n = 1000;
  std::vector<BucketId> balanced(n);
  for (VertexId v = 0; v < n; ++v) balanced[v] = static_cast<BucketId>(v % 4);
  Partition partition = Partition::FromAssignment(balanced, 4);
  const MoveTopology topo = MoveTopology::FullK(4, n, 0.05);
  // Adversarial proposals: everyone wants bucket 0 with high gain.
  std::vector<BucketId> targets(n, 0);
  std::vector<double> gains(n, 5.0);
  for (VertexId v = 0; v < n; ++v) {
    if (partition.bucket_of(v) == 0) targets[v] = -1;
  }
  MoveBrokerOptions options;
  MoveBroker broker(options);
  broker.Apply(topo, targets, gains, 9, 0, &partition);
  partition.CheckInvariants();
  for (BucketId b = 0; b < 4; ++b) {
    EXPECT_LE(partition.bucket_size(b), topo.capacity[static_cast<size_t>(b)]);
  }
}

TEST(MoveBroker, PlainStrategyIgnoresNonPositiveGains) {
  const VertexId n = 100;
  Partition partition = Partition::Random(n, 2, 1);
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.5);
  std::vector<BucketId> targets(n);
  std::vector<double> gains(n, -1.0);  // all harmful
  for (VertexId v = 0; v < n; ++v) {
    targets[v] = 1 - partition.bucket_of(v);
  }
  MoveBrokerOptions options;
  options.strategy = MoveBrokerOptions::Strategy::kPlainProbability;
  MoveBroker broker(options);
  const MoveOutcome outcome =
      broker.Apply(topo, targets, gains, 9, 0, &partition);
  EXPECT_EQ(outcome.num_moved, 0u);
  EXPECT_EQ(outcome.num_proposals, 0u);
}

TEST(MoveBroker, SymmetricSwapsPreserveSizes) {
  // 50 want 0->1, 50 want 1->0, equal gains: histogram matching should swap
  // most of them (the <1 probability cap holds a few back to prevent
  // whole-bucket relabeling) while keeping sizes balanced.
  const VertexId n = 100;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = v < 50 ? 0 : 1;
  Partition partition = Partition::FromAssignment(assignment, 2);
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.1);
  std::vector<BucketId> targets(n);
  std::vector<double> gains(n, 1.0);
  for (VertexId v = 0; v < n; ++v) targets[v] = 1 - assignment[v];
  MoveBrokerOptions options;
  options.use_capacity_slack = false;
  MoveBroker broker(options);
  const MoveOutcome outcome =
      broker.Apply(topo, targets, gains, 9, 0, &partition);
  EXPECT_GT(outcome.num_moved, 70u);
  EXPECT_LE(partition.bucket_size(0), topo.capacity[0]);
  EXPECT_LE(partition.bucket_size(1), topo.capacity[1]);
}

TEST(MoveBroker, MoveBudgetCapsEveryStrategy) {
  // Heavy reciprocal demand: without a budget every strategy moves far more
  // than 40 vertices; with max_moves_per_round = 40 none may exceed it.
  const VertexId n = 400;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = v < 200 ? 0 : 1;
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.1);
  std::vector<BucketId> targets(n);
  std::vector<double> gains(n);
  for (VertexId v = 0; v < n; ++v) {
    targets[v] = 1 - assignment[v];
    gains[v] = 1.0 + 0.001 * static_cast<double>(v % 7);
  }
  for (const auto strategy :
       {MoveBrokerOptions::Strategy::kPlainProbability,
        MoveBrokerOptions::Strategy::kHistogramMatching,
        MoveBrokerOptions::Strategy::kExactPairing}) {
    auto run = [&](uint64_t budget) {
      Partition partition = Partition::FromAssignment(assignment, 2);
      MoveBrokerOptions options;
      options.strategy = strategy;
      options.max_moves_per_round = budget;
      MoveBroker broker(options);
      const MoveOutcome outcome =
          broker.Apply(topo, targets, gains, 9, 0, &partition);
      partition.CheckInvariants();
      return outcome;
    };
    const MoveOutcome unlimited = run(0);
    EXPECT_GT(unlimited.num_moved, 40u)
        << "strategy " << static_cast<int>(strategy)
        << ": the budget must actually bind in this test";
    const MoveOutcome capped = run(40);
    EXPECT_LE(capped.num_moved, 40u)
        << "strategy " << static_cast<int>(strategy);
    EXPECT_GT(capped.num_moved, 0u)
        << "strategy " << static_cast<int>(strategy)
        << ": a budget is a cap, not a disable switch";
  }
}

TEST(MoveBroker, MoveBudgetKeepsHighestGains) {
  // Two gain tiers proposing 0 -> 1; the trimmed set must be exactly the
  // high-gain tier (deterministic nth_element with a vertex-id tie-break).
  std::vector<VertexId> movers;
  std::vector<double> gains(100);
  for (VertexId v = 0; v < 100; ++v) {
    movers.push_back(v);
    gains[v] = v % 2 == 0 ? 2.0 : 1.0;
  }
  MoveBroker::TrimToBudget(50, gains, &movers);
  ASSERT_EQ(movers.size(), 50u);
  for (VertexId v : movers) {
    EXPECT_EQ(v % 2, 0) << "low-gain mover survived the trim";
  }
  // Budget 0 means unlimited: nothing trimmed.
  std::vector<VertexId> all(100);
  for (VertexId v = 0; v < 100; ++v) all[v] = v;
  MoveBroker::TrimToBudget(0, gains, &all);
  EXPECT_EQ(all.size(), 100u);
}

TEST(MoveBroker, DrawFloorSkipsDeadRows) {
  // One-sided negative demand: every (1 -> 0) histogram bin is negative and
  // nothing proposes (0 -> 1), so the matched probability row is all zero
  // (capacity slack only boosts positive bins). The draw floor must skip
  // every draw; Debug builds check inside the draw that each skipped
  // proposal had probability 0, i.e. could never have fired.
  const VertexId n = 1000;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = static_cast<BucketId>(v % 2);
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.05);
  std::vector<BucketId> targets(n, -1);
  std::vector<double> gains(n, 0.0);
  uint64_t proposers = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (assignment[v] == 1) {
      targets[v] = 0;
      gains[v] = -1.0;
      ++proposers;
    }
  }
  Partition partition = Partition::FromAssignment(assignment, 2);
  MoveBroker broker(MoveBrokerOptions{});
  const MoveOutcome outcome =
      broker.Apply(topo, targets, gains, 9, 0, &partition);
  EXPECT_TRUE(outcome.moves.empty());
  EXPECT_EQ(outcome.num_moved, 0u);
  EXPECT_EQ(outcome.num_proposals, proposers);
  EXPECT_EQ(outcome.num_draws, 0u) << "all-zero rows must skip the draw";
}

TEST(MoveBroker, DrawFloorKeepsLiveRowsDrawing) {
  // Reciprocal symmetric demand: the (0,1) rows are matched (live), so the
  // draw floor must not skip anything for any strategy that draws.
  const VertexId n = 200;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = v < 100 ? 0 : 1;
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.1);
  std::vector<BucketId> targets(n);
  std::vector<double> gains(n, 1.0);
  for (VertexId v = 0; v < n; ++v) targets[v] = 1 - assignment[v];
  for (const auto strategy :
       {MoveBrokerOptions::Strategy::kPlainProbability,
        MoveBrokerOptions::Strategy::kHistogramMatching}) {
    Partition partition = Partition::FromAssignment(assignment, 2);
    MoveBrokerOptions options;
    options.strategy = strategy;
    MoveBroker broker(options);
    const MoveOutcome outcome =
        broker.Apply(topo, targets, gains, 9, 0, &partition);
    EXPECT_EQ(outcome.num_draws, static_cast<uint64_t>(n))
        << "every proposal on a live row draws";
    EXPECT_GT(outcome.num_moved, 0u);
  }
}

TEST(MoveBroker, ChangedListIncrementalMatchesFullRebuild) {
  // Histogram matching with a changed-proposal list must walk the exact same
  // move trajectory as a from-scratch broker: the incremental broker patches
  // its persistent per-pair histograms in O(|changed|), the reference
  // re-accumulates everything each round. The changed list follows the
  // refiner contract — every vertex whose (current bucket, target, gain)
  // differs from the previous Apply is listed, duplicates allowed.
  const VertexId n = 600;
  const BucketId k = 4;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = static_cast<BucketId>(v % k);
  const MoveTopology topo = MoveTopology::FullK(k, n, 0.05);
  Partition inc_part = Partition::FromAssignment(assignment, k);
  Partition ref_part = inc_part;

  std::vector<BucketId> targets(n, -1);
  std::vector<double> gains(n, 0.0);
  MoveBrokerOptions options;  // kHistogramMatching default
  MoveBroker incremental(options);

  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> gain_dist(-1.0, 2.0);
  std::vector<VertexId> changed;
  for (uint64_t round = 0; round < 12; ++round) {
    // Mutate ~10% of the proposals (retargets, gain updates, withdrawals).
    for (int i = 0; i < 60; ++i) {
      const VertexId v = static_cast<VertexId>(rng() % n);
      const BucketId t = static_cast<BucketId>(rng() % k);
      targets[v] =
          (rng() % 5 == 0 || t == inc_part.bucket_of(v)) ? BucketId{-1} : t;
      gains[v] = gain_dist(rng);
      changed.push_back(v);
    }
    // Duplicates must be idempotent.
    changed.push_back(changed.front());
    // The first round has no primed state: the broker must fall back to a
    // full rebuild on its own and prime the incremental path.
    const MoveOutcome inc = incremental.Apply(topo, targets, gains, 9, round,
                                              &inc_part, nullptr, &changed);
    MoveBroker fresh(options);
    const MoveOutcome ref = fresh.Apply(topo, targets, gains, 9, round,
                                        &ref_part, nullptr, nullptr);
    ASSERT_EQ(inc.moves, ref.moves) << "round " << round;
    EXPECT_EQ(inc.num_proposals, ref.num_proposals) << "round " << round;
    EXPECT_EQ(inc.num_moved, ref.num_moved) << "round " << round;
    EXPECT_EQ(inc.num_reverted, ref.num_reverted) << "round " << round;
    EXPECT_DOUBLE_EQ(inc.gain_moved, ref.gain_moved) << "round " << round;

    // Movers changed buckets (and their proposals are spent): list them for
    // the next round, withdrawing the satisfied proposals.
    changed.clear();
    for (const VertexMove& m : inc.moves) {
      targets[m.v] = -1;
      gains[m.v] = 0.0;
      changed.push_back(m.v);
    }
  }
}

TEST(MoveBroker, DampingReducesMovement) {
  const VertexId n = 2000;
  auto run = [n](double damping) {
    Partition partition = Partition::Random(n, 2, 1);
    const MoveTopology topo = MoveTopology::FullK(2, n, 0.05);
    std::vector<BucketId> targets(n);
    std::vector<double> gains(n, 1.0);
    for (VertexId v = 0; v < n; ++v) {
      targets[v] = 1 - partition.bucket_of(v);
    }
    MoveBrokerOptions options;
    options.probability_damping = damping;
    options.use_capacity_slack = false;
    MoveBroker broker(options);
    return broker.Apply(topo, targets, gains, 9, 0, &partition).num_moved;
  };
  EXPECT_LT(run(0.25), run(1.0) / 2);
}

TEST(MoveBroker, ExactPairingSwapsArePerfectlyBalanced) {
  // §3.4 "ideal serial implementation": executed swaps are true pairs, so
  // bucket sizes are exactly preserved (no repair, no expectation argument).
  const VertexId n = 200;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = v < 100 ? 0 : 1;
  Partition partition = Partition::FromAssignment(assignment, 2);
  const MoveTopology topo = MoveTopology::FullK(2, n, 0.0);
  std::vector<BucketId> targets(n);
  std::vector<double> gains(n);
  for (VertexId v = 0; v < n; ++v) {
    targets[v] = 1 - assignment[v];
    gains[v] = v % 3 == 0 ? 2.0 : -0.5;  // mix of positive and negative
  }
  MoveBrokerOptions options;
  options.strategy = MoveBrokerOptions::Strategy::kExactPairing;
  options.use_capacity_slack = false;
  MoveBroker broker(options);
  const MoveOutcome outcome =
      broker.Apply(topo, targets, gains, 3, 0, &partition);
  EXPECT_EQ(partition.bucket_size(0), 100u);
  EXPECT_EQ(partition.bucket_size(1), 100u);
  EXPECT_EQ(outcome.num_moved % 2, 0u) << "moves come in pairs";
  EXPECT_GT(outcome.num_moved, 0u);
  EXPECT_EQ(outcome.num_reverted, 0u);
  partition.CheckInvariants();
}

TEST(MoveBroker, ExactPairingHonorsPairSumRule) {
  // A (+1, -8) pair must not swap; a (+8, -1) pair must.
  const VertexId n = 4;
  Partition partition = Partition::FromAssignment({0, 0, 1, 1}, 2);
  const MoveTopology topo = MoveTopology::FullK(2, n, 1.0);
  MoveBrokerOptions options;
  options.strategy = MoveBrokerOptions::Strategy::kExactPairing;
  options.use_capacity_slack = false;
  {
    Partition p = partition;
    const std::vector<BucketId> targets = {1, -1, 0, -1};
    const std::vector<double> gains = {1.0, 0.0, -8.0, 0.0};
    const MoveOutcome outcome =
        MoveBroker(options).Apply(topo, targets, gains, 3, 0, &p);
    EXPECT_EQ(outcome.num_moved, 0u);
  }
  {
    Partition p = partition;
    const std::vector<BucketId> targets = {1, -1, 0, -1};
    const std::vector<double> gains = {8.0, 0.0, -1.0, 0.0};
    const MoveOutcome outcome =
        MoveBroker(options).Apply(topo, targets, gains, 3, 0, &p);
    EXPECT_EQ(outcome.num_moved, 2u);
    EXPECT_EQ(p.bucket_of(0), 1);
    EXPECT_EQ(p.bucket_of(2), 0);
  }
}

TEST(MoveBroker, ExactPairingQualityAtLeastHistogram) {
  // On a small planted instance the exact matcher should reach fanout at
  // least as good as (within noise of) the binned approximation.
  PlantedPartitionConfig config;
  config.num_data = 800;
  config.num_queries = 1600;
  config.num_groups = 4;
  config.mixing = 0.1;
  const PlantedPartition planted = GeneratePlantedPartition(config);
  auto run = [&](MoveBrokerOptions::Strategy strategy) {
    ShpKOptions options;
    options.k = 4;
    options.seed = 5;
    options.refiner.broker.strategy = strategy;
    const ShpResult result = ShpKPartitioner(options).Run(planted.graph);
    return AverageFanout(planted.graph, result.assignment);
  };
  const double exact =
      run(MoveBrokerOptions::Strategy::kExactPairing);
  const double histogram =
      run(MoveBrokerOptions::Strategy::kHistogramMatching);
  EXPECT_LT(exact, histogram * 1.10)
      << "binned matching approximates exact pairing (paper §3.4)";
}

// --------------------------------------------- Fig. 2: local minimum escape
// Instance in the spirit of paper Fig. 2: with direct fanout (p = 1) no
// single move improves the objective, so Algorithm 1 stalls at fanout 2;
// probabilistic fanout (p = 0.5) has positive single-move gains and the
// optimizer escapes to the optimum 4/3.
BipartiteGraph Fig2LikeGraph() {
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1, 4, 5});  // q1
  b.AddHyperedge(1, {2, 3, 4, 5});  // q2
  b.AddHyperedge(2, {2, 3, 6, 7});  // q3
  return b.Build();
}

TEST(LocalMinimum, DirectFanoutIsStuck) {
  const BipartiteGraph g = Fig2LikeGraph();
  const std::vector<BucketId> start = {0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(AverageFanout(g, start), 2.0);

  ShpKOptions options;
  options.k = 2;
  options.p = 1.0;  // direct fanout optimization
  options.seed = 4;
  options.refiner.exploration_probability = 0.0;  // Algorithm 1 verbatim
  options.refiner.propose_nonpositive = false;
  options.refiner.broker.strategy =
      MoveBrokerOptions::Strategy::kPlainProbability;
  const ShpResult result =
      ShpKPartitioner(options).RunFrom(g, start);
  EXPECT_DOUBLE_EQ(AverageFanout(g, result.assignment), 2.0)
      << "no single move improves fanout (paper Fig. 2)";
}

TEST(LocalMinimum, ProbabilisticFanoutEscapes) {
  const BipartiteGraph g = Fig2LikeGraph();
  const std::vector<BucketId> start = {0, 0, 0, 0, 1, 1, 1, 1};
  ShpKOptions options;
  options.k = 2;
  options.p = 0.5;
  options.seed = 4;
  options.max_iterations = 40;
  const ShpResult result = ShpKPartitioner(options).RunFrom(g, start);
  EXPECT_NEAR(AverageFanout(g, result.assignment), 4.0 / 3.0, 1e-9)
      << "p-fanout has positive single-move gains here; optimum is 4/3";
}

}  // namespace
}  // namespace shp
