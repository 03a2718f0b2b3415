// Core partitioner tests: partition state, proposal matrix, gain-histogram
// matching, move broker balance guarantees, and the Fig. 2 local-minimum
// escape that motivates probabilistic fanout.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
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

/// Test-side directed gain histogram in the flat GainRow layout.
struct TestHistogram {
  std::vector<uint32_t> counts;
  std::vector<uint64_t> occupied;

  void Init(const GainBinning& binning) {
    counts.assign(static_cast<size_t>(binning.num_bins()), 0);
    occupied.assign(static_cast<size_t>(OccupiedWords(binning.num_bins())), 0);
  }
  void Add(const GainBinning& binning, double gain) {
    const int bin = binning.BinFor(gain);
    ++counts[static_cast<size_t>(bin)];
    occupied[static_cast<size_t>(bin / 64)] |= uint64_t{1} << (bin % 64);
  }
  GainRow row() const { return {counts.data(), occupied.data()}; }
};

struct TestMatch {
  std::vector<double> forward;
  std::vector<double> backward;
  double expected_swaps;
};

/// MatchHistograms over full zero-initialized probability rows.
TestMatch Match(const GainBinning& binning, const TestHistogram& fwd,
                const TestHistogram& bwd) {
  const size_t bins = static_cast<size_t>(binning.num_bins());
  TestMatch m{std::vector<double>(bins, 0.0), std::vector<double>(bins, 0.0),
              0.0};
  m.expected_swaps = MatchHistograms(binning, fwd.row(), bwd.row(),
                                     m.forward.data(), m.backward.data());
  return m;
}

TEST(MatchHistograms, SymmetricDemandFullyMatches) {
  const GainBinning binning;
  TestHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 10; ++i) {
    fwd.Add(binning, 1.0);
    bwd.Add(binning, 1.0);
  }
  const auto match = Match(binning, fwd, bwd);
  EXPECT_DOUBLE_EQ(match.forward[static_cast<size_t>(binning.BinFor(1.0))],
                   1.0);
  EXPECT_DOUBLE_EQ(match.backward[static_cast<size_t>(binning.BinFor(1.0))],
                   1.0);
  EXPECT_DOUBLE_EQ(match.expected_swaps, 10.0);
}

TEST(MatchHistograms, AsymmetricDemandPartiallyMatches) {
  const GainBinning binning;
  TestHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 20; ++i) fwd.Add(binning, 2.0);
  for (int i = 0; i < 5; ++i) bwd.Add(binning, 2.0);
  const auto match = Match(binning, fwd, bwd);
  const int bin = binning.BinFor(2.0);
  EXPECT_NEAR(match.forward[static_cast<size_t>(bin)], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(match.backward[static_cast<size_t>(bin)], 1.0);
}

TEST(MatchHistograms, NegativePairsWithLargerPositive) {
  // §3.4: "A pair of positive and negative histogram bins can swap if the
  // sum of the gains is expected to be positive."
  const GainBinning binning;
  TestHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  fwd.Add(binning, 8.0);    // strong positive one way
  bwd.Add(binning, -1.0);   // mild negative the other way
  const auto match = Match(binning, fwd, bwd);
  EXPECT_GT(match.expected_swaps, 0.0);
  EXPECT_DOUBLE_EQ(
      match.backward[static_cast<size_t>(binning.BinFor(-1.0))], 1.0);
}

TEST(MatchHistograms, NegativePairsRejectedWhenSumNegative) {
  const GainBinning binning;
  TestHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  fwd.Add(binning, 1.0);
  bwd.Add(binning, -8.0);
  const auto match = Match(binning, fwd, bwd);
  EXPECT_DOUBLE_EQ(match.expected_swaps, 0.0);
}

TEST(MatchHistograms, OneSidedDemandDoesNotMove) {
  const GainBinning binning;
  TestHistogram fwd, bwd;
  fwd.Init(binning);
  bwd.Init(binning);
  for (int i = 0; i < 50; ++i) fwd.Add(binning, 3.0);
  const auto match = Match(binning, fwd, bwd);
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

/// Two round outcomes are the same: every field, gains bit for bit.
void ExpectSameOutcome(const MoveOutcome& got, const MoveOutcome& want) {
  ASSERT_EQ(got.moves, want.moves);
  EXPECT_EQ(got.num_proposals, want.num_proposals);
  EXPECT_EQ(got.num_moved, want.num_moved);
  EXPECT_EQ(got.num_reverted, want.num_reverted);
  EXPECT_EQ(got.num_draws, want.num_draws);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.gain_moved),
            std::bit_cast<uint64_t>(want.gain_moved));
}

/// Mutates ~10% of the proposals of a k-way instance (retargets, gain
/// updates, withdrawals) and lists them in *changed, with one duplicate.
void MutateProposals(const Partition& partition, std::mt19937_64* rng,
                     std::vector<BucketId>* targets,
                     std::vector<double>* gains,
                     std::vector<VertexId>* changed) {
  const VertexId n = partition.num_data();
  const BucketId k = partition.k();
  std::uniform_real_distribution<double> gain_dist(-1.0, 2.0);
  for (VertexId i = 0; i < n / 10; ++i) {
    const VertexId v = static_cast<VertexId>((*rng)() % n);
    const BucketId t = static_cast<BucketId>((*rng)() % k);
    (*targets)[v] = ((*rng)() % 5 == 0 || t == partition.bucket_of(v))
                        ? BucketId{-1}
                        : t;
    (*gains)[v] = gain_dist(*rng);
    changed->push_back(v);
  }
  // Duplicates must be idempotent.
  changed->push_back(changed->front());
}

/// Movers changed buckets and spent their proposals: withdraws them and
/// lists them as the next round's changed proposals.
void SpendMoves(const MoveOutcome& outcome, std::vector<BucketId>* targets,
                std::vector<double>* gains, std::vector<VertexId>* changed) {
  changed->clear();
  for (const VertexMove& m : outcome.moves) {
    (*targets)[m.v] = -1;
    (*gains)[m.v] = 0.0;
    changed->push_back(m.v);
  }
}

TEST(MoveBroker, ChangedListIncrementalMatchesFullRebuild) {
  // Histogram matching with a changed-proposal list must walk the exact same
  // move trajectory as a from-scratch broker: the incremental broker patches
  // its persistent per-pair histograms in O(|changed|), the reference
  // re-accumulates everything each round. The changed list follows the
  // refiner contract — every vertex whose (current bucket, target, gain)
  // differs from the previous Apply is listed, duplicates allowed. The
  // histograms are sharded by pool thread, and the trajectory must not
  // depend on the pool size.
  const VertexId n = 600;
  const BucketId k = 4;
  std::vector<BucketId> assignment(n);
  for (VertexId v = 0; v < n; ++v) assignment[v] = static_cast<BucketId>(v % k);
  const MoveTopology topo = MoveTopology::FullK(k, n, 0.05);
  const MoveBrokerOptions options;  // kHistogramMatching default
  ThreadPool serial(1);
  std::vector<MoveOutcome> pool1;
  for (const size_t threads : {1, 2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "pool " << threads);
    ThreadPool pool(threads);
    Partition inc_part = Partition::FromAssignment(assignment, k);
    Partition ref_part = inc_part;
    std::vector<BucketId> targets(n, -1);
    std::vector<double> gains(n, 0.0);
    MoveBroker incremental(options);
    std::mt19937_64 rng(71);
    std::vector<VertexId> changed;
    for (uint64_t round = 0; round < 12; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      MutateProposals(inc_part, &rng, &targets, &gains, &changed);
      // The first round has no primed state: the broker must fall back to
      // a full rebuild on its own and prime the incremental path.
      const MoveOutcome inc = incremental.Apply(
          topo, targets, gains, 9, round, &inc_part, &pool, &changed);
      MoveBroker fresh(options);
      const MoveOutcome ref = fresh.Apply(topo, targets, gains, 9, round,
                                          &ref_part, &serial, nullptr);
      ExpectSameOutcome(inc, ref);
      if (threads == 1) {
        pool1.push_back(inc);
      } else {
        ExpectSameOutcome(inc, pool1[round]);
      }
      SpendMoves(inc, &targets, &gains, &changed);
    }
  }
}

TEST(MoveBroker, ShardLayoutChangesReprimeTheBroker) {
  // One broker sees pool 4, then pool 2, then an explicit hashed vertex →
  // shard map (the BSP engine's layout), always with a changed list: each
  // layout change must re-prime the shards, and every round must match a
  // fresh broker's from-scratch round.
  const VertexId n = 900;
  const BucketId k = 6;
  const MoveTopology topo = MoveTopology::FullK(k, n, 0.05);
  Partition inc_part = Partition::BalancedRandom(n, k, 5);
  Partition ref_part = inc_part;
  std::vector<BucketId> targets(n, -1);
  std::vector<double> gains(n, 0.0);
  const MoveBrokerOptions options;
  MoveBroker broker(options);
  ThreadPool four(4);
  ThreadPool two(2);
  ThreadPool serial(1);
  std::vector<int32_t> owner(n);
  for (VertexId v = 0; v < n; ++v) {
    owner[v] = static_cast<int32_t>(HashToBounded(55, v, 3, 5));
  }
  std::mt19937_64 rng(13);
  std::vector<VertexId> changed;
  for (uint64_t round = 0; round < 12; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    ThreadPool* pool = round < 4 ? &four : &two;
    if (round == 8) broker.SetShardMap(owner, 5);
    MutateProposals(inc_part, &rng, &targets, &gains, &changed);
    const MoveOutcome got = broker.Apply(topo, targets, gains, 9, round,
                                         &inc_part, pool, &changed);
    MoveBroker fresh(options);
    const MoveOutcome want = fresh.Apply(topo, targets, gains, 9, round,
                                         &ref_part, &serial, nullptr);
    ExpectSameOutcome(got, want);
    if (round >= 8) {
      // The hashed map, not the pool, now lays the shards out.
      for (int s = 0; s < 5; ++s) {
        uint64_t proposals = 0;
        for (VertexId v = 0; v < n; ++v) {
          proposals += owner[v] == s && targets[v] >= 0;
        }
        EXPECT_EQ(broker.shard(s).num_proposals(), proposals) << "shard " << s;
      }
    }
    SpendMoves(got, &targets, &gains, &changed);
  }
}

// The broker's superstep-3/4 state as it was before flat storage: per-pair
// histograms in a hash map, matched by a floating-point two-pointer pass
// over std::pow representatives, and drawn against the set of live pair
// keys. The flat broker must reproduce it bit for bit.
class MapBrokerReference {
 public:
  using Histograms = std::unordered_map<uint64_t, std::vector<uint64_t>>;
  using Table = std::unordered_map<uint64_t, std::vector<double>>;

  MapBrokerReference(double min_gain, double growth, int levels)
      : min_gain_(min_gain),
        growth_(growth),
        binning_(min_gain, growth, levels),
        bins_(static_cast<size_t>(binning_.num_bins())) {}

  Histograms Accumulate(const Partition& partition,
                        const std::vector<BucketId>& targets,
                        const std::vector<double>& gains) const {
    Histograms h;
    for (VertexId v = 0; v < targets.size(); ++v) {
      if (targets[v] < 0) continue;
      auto& counts = h[PackPair(partition.bucket_of(v), targets[v])];
      if (counts.empty()) counts.assign(bins_, 0);
      ++counts[static_cast<size_t>(binning_.BinFor(gains[v]))];
    }
    return h;
  }

  Table Compute(const MoveTopology& topo, const Histograms& histograms,
                const Partition& partition) const {
    std::vector<uint64_t> keys;
    for (const auto& [key, counts] : histograms) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    const std::vector<uint64_t> none(bins_, 0);
    Table table;
    for (const uint64_t key : keys) {
      const BucketId i = static_cast<BucketId>(key >> 32);
      const BucketId j = static_cast<BucketId>(key & 0xffffffffULL);
      if (i > j && histograms.count(PackPair(j, i)) > 0) continue;
      const auto bwd = histograms.find(PackPair(j, i));
      auto [fwd_probs, bwd_probs] =
          Match(histograms.at(key),
                bwd == histograms.end() ? none : bwd->second);
      table[PackPair(i, j)] = std::move(fwd_probs);
      table[PackPair(j, i)] = std::move(bwd_probs);
    }
    std::vector<double> slack(static_cast<size_t>(topo.k));
    for (BucketId b = 0; b < topo.k; ++b) {
      slack[static_cast<size_t>(b)] =
          static_cast<double>(topo.capacity[static_cast<size_t>(b)]) -
          static_cast<double>(partition.bucket_size(b));
    }
    for (const uint64_t key : keys) {
      auto& probs = table[key];
      const auto& counts = histograms.at(key);
      double& budget = slack[key & 0xffffffffULL];
      for (int bin = binning_.num_bins() - 1; bin > binning_.zero_bin();
           --bin) {
        if (budget <= 0.0) break;
        const size_t b = static_cast<size_t>(bin);
        const double unmatched =
            static_cast<double>(counts[b]) * (1.0 - probs[b]);
        if (unmatched <= 0.0) continue;
        const double extra = std::min(unmatched, budget);
        probs[b] += extra / static_cast<double>(counts[b]);
        probs[b] = std::min(1.0, probs[b]);
        budget -= extra;
      }
    }
    return table;
  }

  /// One histogram-matching round from scratch; *table receives the
  /// matched table.
  MoveOutcome Apply(const MoveTopology& topo, const MoveBrokerOptions& options,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, uint64_t seed,
                    uint64_t iteration, Partition* partition,
                    Table* table) const {
    MoveOutcome outcome;
    *table = Compute(topo, Accumulate(*partition, targets, gains), *partition);
    std::unordered_set<uint64_t> live;
    for (const auto& [key, probs] : *table) {
      if (std::any_of(probs.begin(), probs.end(),
                      [](double p) { return p > 0.0; })) {
        live.insert(key);
      }
    }
    std::vector<VertexId> movers;
    for (VertexId v = 0; v < targets.size(); ++v) {
      if (targets[v] < 0) continue;
      ++outcome.num_proposals;
      const uint64_t key = PackPair(partition->bucket_of(v), targets[v]);
      if (!live.contains(key)) continue;
      ++outcome.num_draws;
      const double prob =
          std::min(table->at(key)[static_cast<size_t>(
                       binning_.BinFor(gains[v]))],
                   options.max_move_probability) *
          options.probability_damping;
      if (HashToUnitDouble(seed ^ 0x5108e77a, iteration, v) < prob) {
        movers.push_back(v);
      }
    }
    std::vector<BucketId> original;
    MoveBroker::ExecuteMoves(topo, options.max_moves_per_round, targets,
                             gains, &movers, &original, partition, &outcome);
    return outcome;
  }

 private:
  double Representative(int bin) const {
    if (bin == binning_.zero_bin()) return 0.0;
    const int level = std::abs(bin - binning_.zero_bin());
    const double mid = min_gain_ * std::pow(growth_, level - 0.5);
    return bin > binning_.zero_bin() ? mid : -mid;
  }

  std::pair<std::vector<double>, std::vector<double>> Match(
      const std::vector<uint64_t>& fwd,
      const std::vector<uint64_t>& bwd) const {
    std::vector<double> out_fwd(bins_, 0.0);
    std::vector<double> out_bwd(bins_, 0.0);
    std::vector<double> rem_fwd(fwd.begin(), fwd.end());
    std::vector<double> rem_bwd(bwd.begin(), bwd.end());
    int a = static_cast<int>(bins_) - 1;
    int b = a;
    const auto skip_empty = [](const std::vector<double>& rem, int* cursor) {
      while (*cursor >= 0 && rem[static_cast<size_t>(*cursor)] <= 0.0) {
        --*cursor;
      }
    };
    for (;;) {
      skip_empty(rem_fwd, &a);
      skip_empty(rem_bwd, &b);
      if (a < 0 || b < 0) break;
      if (Representative(a) + Representative(b) <= 0.0) break;
      const size_t ia = static_cast<size_t>(a);
      const size_t ib = static_cast<size_t>(b);
      const double matched = std::min(rem_fwd[ia], rem_bwd[ib]);
      rem_fwd[ia] -= matched;
      rem_bwd[ib] -= matched;
      out_fwd[ia] += matched;
      out_bwd[ib] += matched;
    }
    for (size_t bin = 0; bin < bins_; ++bin) {
      out_fwd[bin] = fwd[bin] == 0 ? 0.0
                                   : std::min(1.0, out_fwd[bin] /
                                                       static_cast<double>(
                                                           fwd[bin]));
      out_bwd[bin] = bwd[bin] == 0 ? 0.0
                                   : std::min(1.0, out_bwd[bin] /
                                                       static_cast<double>(
                                                           bwd[bin]));
    }
    return {std::move(out_fwd), std::move(out_bwd)};
  }

  double min_gain_;
  double growth_;
  GainBinning binning_;
  size_t bins_;
};

TEST(MoveBroker, FlatBrokerMatchesMapReference) {
  // Rounds of changed-proposal lists, one nullptr re-prime, a round where
  // every pair dies and one where they are all reborn on recycled slots.
  // Half of all proposals target bucket 0, so many pair keys differ only in
  // their `from` half (a hash of the low key bits would pile them onto one
  // probe run), and k = 4096 grows the pair index far past its initial
  // size. Both the probability rows and the round outcomes must match the
  // map-based reference exactly. Brokers on pools of 1, 2, 3 and 8 threads
  // (as many histogram shards) run in lockstep, each on its own copy of the
  // partition, and must reproduce the pool-1 broker's outcomes.
  const double min_gain = 1e-8;
  const double growth = 2.0;
  const int levels = 40;
  const MapBrokerReference reference(min_gain, growth, levels);
  MoveBrokerOptions options;
  options.binning = GainBinning(min_gain, growth, levels);
  ThreadPool pool1(1);
  std::vector<std::unique_ptr<ThreadPool>> wider;
  for (const size_t threads : {2, 3, 8}) {
    wider.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const BucketId k : {2, 32, 512, 4096}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const VertexId n = std::max<VertexId>(6000, 3 * static_cast<VertexId>(k));
    const MoveTopology topo = MoveTopology::FullK(k, n, 0.5);
    Partition partition = Partition::BalancedRandom(n, k, 3);
    Partition ref_partition = partition;
    MoveBroker broker(options);
    std::vector<MoveBroker> wider_brokers(wider.size(), MoveBroker(options));
    std::vector<Partition> wider_partitions(wider.size(), partition);
    PairHistograms hist(options.binning);
    std::vector<PairHistograms::Contribution> contrib(n);
    PairProbabilityTable table;
    std::vector<BucketId> targets(n, -1);
    std::vector<double> gains(n, 0.0);
    std::vector<VertexId> changed;
    std::mt19937_64 rng(static_cast<uint64_t>(k));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto propose = [&](VertexId v) {
      const BucketId from = partition.bucket_of(v);
      BucketId to = rng() % 2 == 0 ? 0 : static_cast<BucketId>(rng() % k);
      if (to == from) to = (from + 1) % k;
      targets[v] = to;
      // Both signs over most bins of the binning, and some exact zeros.
      const double magnitude = std::pow(10.0, -9.0 + 11.0 * unit(rng));
      gains[v] = rng() % 8 == 0   ? 0.0
                 : rng() % 3 == 0 ? -magnitude
                                  : magnitude;
      changed.push_back(v);
    };
    for (VertexId v = 0; v < n; ++v) propose(v);
    uint64_t moved = 0;
    for (uint64_t round = 0; round < 8; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      if (round == 2) {
        for (VertexId v = 0; v < n; ++v) {
          targets[v] = -1;
          changed.push_back(v);
        }
      } else if (round == 3) {
        for (VertexId v = 0; v < n; ++v) propose(v);
      } else if (round > 0) {
        for (VertexId i = 0; i < n / 7; ++i) {
          const VertexId v = static_cast<VertexId>(rng() % n);
          if (rng() % 4 == 0) {
            targets[v] = -1;
            changed.push_back(v);
          } else {
            propose(v);
          }
        }
      }
      const bool reprime = round == 5;

      // The rows ComputePairProbabilities writes, against the table of the
      // reference round (which also holds the all-zero rows of directions
      // nobody proposes).
      if (reprime) {
        hist.Clear();
        contrib.assign(n, {});
        for (VertexId v = 0; v < n; ++v) {
          hist.Update(&contrib[v], partition.bucket_of(v), targets[v],
                      gains[v]);
        }
      } else {
        for (const VertexId v : changed) {
          hist.Update(&contrib[v], partition.bucket_of(v), targets[v],
                      gains[v]);
        }
      }
      ComputePairProbabilities(topo, hist, partition, true, &table);
      MapBrokerReference::Table want_table;
      const MoveOutcome want =
          reference.Apply(topo, options, targets, gains, 9, round,
                          &ref_partition, &want_table);
      EXPECT_EQ(table.num_rows(), want_table.size());
      for (const auto& [key, probs] : want_table) {
        const uint32_t slot = hist.Find(key);
        bool live = false;
        for (int bin = 0; bin < options.binning.num_bins(); ++bin) {
          const double got = slot == PairHistograms::kNoSlot
                                 ? 0.0
                                 : table.Probability(slot, bin);
          // A plain compare first: a gtest assertion per bin would cost
          // more than the whole broker round.
          if (std::bit_cast<uint64_t>(got) !=
              std::bit_cast<uint64_t>(probs[static_cast<size_t>(bin)])) {
            FAIL() << "pair " << (key >> 32) << "->" << (key & 0xffffffffULL)
                   << " bin " << bin << ": " << got << " vs "
                   << probs[static_cast<size_t>(bin)];
          }
          live |= probs[static_cast<size_t>(bin)] > 0.0;
        }
        if (slot != PairHistograms::kNoSlot) {
          EXPECT_EQ(table.live(slot), live);
        } else {
          EXPECT_FALSE(live);
        }
      }

      const std::vector<VertexId>* list = reprime ? nullptr : &changed;
      const MoveOutcome got = broker.Apply(topo, targets, gains, 9, round,
                                           &partition, &pool1, list);
      ASSERT_EQ(got.moves, want.moves);
      EXPECT_EQ(got.num_draws, want.num_draws);
      EXPECT_EQ(got.num_proposals, want.num_proposals);
      EXPECT_EQ(got.num_reverted, want.num_reverted);
      EXPECT_EQ(got.num_moved, want.num_moved);
      moved += got.num_moved;
      for (size_t i = 0; i < wider.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "pool " << wider[i]->num_threads());
        ExpectSameOutcome(
            wider_brokers[i].Apply(topo, targets, gains, 9, round,
                                   &wider_partitions[i], wider[i].get(), list),
            got);
      }

      // Movers spent their proposals and changed bucket: list them.
      changed.clear();
      for (const VertexMove& m : got.moves) {
        targets[m.v] = -1;
        changed.push_back(m.v);
      }
    }
    EXPECT_GT(moved, 0u);
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
