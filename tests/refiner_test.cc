// Refiner-level tests: grouped vs full-k equivalence, windowed accumulators
// under grouped topologies, the proposal cache after each iteration,
// anchor penalties, exploration determinism, and iteration accounting.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "core/partition.h"
#include "core/proposal.h"
#include "core/refiner.h"
#include "graph/gen_planted.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "graph/io_partition.h"
#include "objective/objective.h"

namespace shp {
namespace {

BipartiteGraph SmallGraph(uint64_t seed = 4) {
  SocialGraphConfig config;
  config.num_users = 800;
  config.avg_degree = 8;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

// A grouped topology whose single group holds both buckets of a bisection
// must behave like the full-k topology at k = 2.
TEST(Refiner, GroupedBisectionMatchesFullK) {
  const BipartiteGraph g = SmallGraph();
  RefinerOptions options;
  options.exploration_probability = 0.0;

  Partition full = Partition::BalancedRandom(g.num_data(), 2, 7);
  Partition grouped = full;

  MoveTopology full_topo = MoveTopology::FullK(2, g.num_data(), 0.05);
  MoveTopology grouped_topo;
  grouped_topo.k = 2;
  grouped_topo.full_k = false;
  grouped_topo.group_children = {{0, 1}};
  grouped_topo.group_of_bucket = {0, 0};
  grouped_topo.capacity = full_topo.capacity;

  Refiner refiner_full(g, options);
  Refiner refiner_grouped(g, options);
  for (uint64_t iter = 0; iter < 3; ++iter) {
    refiner_full.RunIteration(full_topo, &full, 1, iter);
    refiner_grouped.RunIteration(grouped_topo, &grouped, 1, iter);
  }
  EXPECT_EQ(full.assignment(), grouped.assignment())
      << "identical candidate sets and seeds must give identical moves";
}

// Brute-force Σ_v |{buckets occupied by N(N(v))} ∩ window(v)|, where v's
// window is its group's GroupWindow (none when v's bucket is not refined).
uint64_t InWindowOccupiedBuckets(const BipartiteGraph& g,
                                 const MoveTopology& topo,
                                 const Partition& partition) {
  uint64_t total = 0;
  for (VertexId v = 0; v < g.num_data(); ++v) {
    const int32_t group = topo.group_of_bucket[partition.bucket_of(v)];
    if (group < 0) continue;
    const auto [lo, hi] = topo.GroupWindow(group);
    std::set<BucketId> occupied;
    for (const VertexId q : g.DataNeighbors(v)) {
      for (const VertexId u : g.QueryNeighbors(q)) {
        const BucketId b = partition.bucket_of(u);
        if (b >= lo && b < hi) occupied.insert(b);
      }
    }
    total += occupied.size();
  }
  return total;
}

// A grouped (recursion-level) topology runs push over a windowed sweep:
// every vertex keeps exactly its group's occupied buckets, grouped push
// tracks grouped pull, and a new group structure rebuilds the sweep.
TEST(Refiner, GroupedPushKeepsOnlyWindowEntries) {
  const BipartiteGraph g = SmallGraph(6);
  const BucketId k = 8;
  // Buckets 6 and 7 are not refined: their vertices keep no entries.
  const MoveTopology topo =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 1}, {2, 3}, {4, 5}});
  RefinerOptions pull_options;
  pull_options.incremental_rebuild_fraction = 1.0;  // always patch
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;

  Partition p_pull = Partition::BalancedRandom(g.num_data(), k, 4);
  Partition p_push = p_pull;
  Refiner pull(g, pull_options);
  Refiner push(g, push_options);
  for (uint64_t iter = 0; iter < 8; ++iter) {
    pull.RunIteration(topo, &p_pull, 3, iter);
    EXPECT_TRUE(push.RunIteration(topo, &p_push, 3, iter).push_sweep);
    EXPECT_EQ(push.affinity_sweep().TotalEntries(),
              InWindowOccupiedBuckets(g, topo, p_push))
        << "iteration " << iter;
  }
  EXPECT_FALSE(push.affinity_sweep().windows().empty());
  EXPECT_EQ(push.num_sweep_builds(), 1u) << "one level, one sweep build";
  const double f_pull = AverageFanout(g, p_pull.assignment());
  const double f_push = AverageFanout(g, p_push.assignment());
  EXPECT_NEAR(f_pull, f_push, 1e-4 * f_pull);

  // Same partition, new group structure: the neighbor data carries over,
  // the windowed sweep is rebuilt, and the proposals equal a fresh
  // refiner's on the same input.
  const MoveTopology regrouped =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 1, 2, 3}, {4, 5}});
  Partition p_fresh = p_push;
  Refiner fresh(g, push_options);
  push.RunIteration(regrouped, &p_push, 3, 8);
  fresh.RunIteration(regrouped, &p_fresh, 3, 8);
  EXPECT_EQ(push.num_sweep_builds(), 2u);
  EXPECT_EQ(push.num_full_rebuilds(), 1u);
  EXPECT_EQ(push.targets(), fresh.targets());
  EXPECT_EQ(push.gains(), fresh.gains());
  EXPECT_EQ(p_push.assignment(), p_fresh.assignment());
}

// `base` plus `isolated` trailing degree-0 data vertices.
BipartiteGraph WithIsolated(const BipartiteGraph& base, VertexId isolated) {
  GraphBuilder builder(base.num_queries(), base.num_data() + isolated);
  for (VertexId q = 0; q < base.num_queries(); ++q) {
    const auto nbrs = base.QueryNeighbors(q);
    builder.AddHyperedge(q, std::vector<VertexId>(nbrs.begin(), nbrs.end()));
  }
  return builder.Build();
}

// After every push RunIteration the proposal cache must be current: each
// vertex's cached (target, gain) equals a fresh push scan of its
// accumulator against its current bucket, finalized under the iteration's
// anchor — patched vertices included, whose proposals the refiner computes
// inside ApplyDeltas for the next round. Degree-0 vertices and vertices in
// unrefined buckets hold -1/0. The move budget keeps every round below the
// high-churn threshold, so the accumulators are patched, not dropped; at
// k = 128 some of them (a hub's among them) outgrow their slack and
// relocate, so the visitor also sees overflow copies. The exploration draw
// is off (an explorer's cached proposal is its draw), and the pool size is
// fixed so the trajectory does not depend on the host.
TEST(Refiner, ProposalCacheIsCurrentAfterEveryIteration) {
  const BipartiteGraph g = WithIsolated(SmallGraph(13), 5);
  const VertexId n = g.num_data();
  const BucketId k = 128;
  const uint64_t budget = n / 8;
  const MoveTopology full = MoveTopology::FullK(k, n, 0.3);
  // Sibling groups of four; buckets 120..127 are not refined.
  std::vector<std::vector<BucketId>> groups;
  for (BucketId b = 0; b < 120; b += 4) {
    groups.push_back({b, b + 1, b + 2, b + 3});
  }
  const MoveTopology grouped = MoveTopology::Grouped(k, n, 0.3, groups);
  RefinerOptions options;
  options.exploration_probability = 0.0;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  const GainComputer gain(options.p,
                          static_cast<uint32_t>(g.MaxQueryDegree()));
  const double penalty = 0.01;
  ThreadPool pool(3);

  for (const MoveTopology* topo : {&full, &grouped}) {
    SCOPED_TRACE(topo->full_k ? "full-k" : "grouped");
    Partition partition = Partition::BalancedRandom(n, k, 8);
    const std::vector<BucketId> anchor = partition.assignment();
    Refiner refiner(g, options);
    refiner.SetMoveBudget(budget);
    uint64_t moved = 0;
    uint64_t steady_rounds = 0;
    uint64_t relocated = 0;
    std::vector<const AffinityEntry*> before(n, nullptr);
    for (uint64_t iter = 0; iter < 12; ++iter) {
      const IterationStats stats = refiner.RunIteration(
          *topo, &partition, 4, iter, &pool, &anchor, penalty);
      ASSERT_TRUE(stats.push_sweep);
      ASSERT_LE(stats.num_moved, budget);
      moved += stats.num_moved;
      steady_rounds += stats.num_recomputed < n;
      const AffinitySweep& sweep = refiner.affinity_sweep();
      for (VertexId v = 0; v < n; ++v) {
        // The sweep is built once, so a new address is a relocation (or a
        // compaction).
        relocated += iter > 0 && sweep.Entries(v).data() != before[v];
        before[v] = sweep.Entries(v).data();
        const BucketId from = partition.bucket_of(v);
        GainComputer::BestTarget expected;
        if (g.DataDegree(v) > 0 &&
            topo->group_of_bucket[static_cast<size_t>(from)] >= 0) {
          expected = FinalizeProposal(
              PushScan(gain, *topo, from, sweep.Entries(v),
                       static_cast<double>(g.DataDegree(v))),
              v, from, &anchor, penalty, options.propose_nonpositive);
        }
        ASSERT_EQ(refiner.targets()[v], expected.bucket)
            << "iteration " << iter << ", v=" << v;
        ASSERT_EQ(refiner.gains()[v], expected.gain)
            << "iteration " << iter << ", v=" << v;
      }
    }
    EXPECT_GT(moved, 0u);
    EXPECT_GT(steady_rounds, 0u) << "no compact round ran";
    EXPECT_EQ(refiner.num_sweep_builds(), 1u);
    if (topo->full_k) {
      EXPECT_GT(relocated, 0u) << "no accumulator relocated";
    }
  }
}

TEST(Refiner, InactiveBucketsAreFrozen) {
  const BipartiteGraph g = SmallGraph();
  Partition partition = Partition::BalancedRandom(g.num_data(), 4, 3);
  const std::vector<BucketId> before = partition.assignment();

  // Only buckets {0, 1} form a group; 2 and 3 are not refined.
  MoveTopology topo;
  topo.k = 4;
  topo.full_k = false;
  topo.group_children = {{0, 1}};
  topo.group_of_bucket = {0, 0, -1, -1};
  topo.capacity = MoveTopology::FullK(4, g.num_data(), 0.05).capacity;

  RefinerOptions options;
  Refiner refiner(g, options);
  refiner.RunIteration(topo, &partition, 5, 0);
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (before[v] >= 2) {
      EXPECT_EQ(partition.bucket_of(v), before[v])
          << "vertices in inactive buckets must not move";
    } else {
      EXPECT_LT(partition.bucket_of(v), 2) << "group members stay in group";
    }
  }
}

TEST(Refiner, AnchorPenaltySuppressesMovement) {
  const BipartiteGraph g = SmallGraph();
  auto moved_with_penalty = [&](double penalty) {
    Partition partition = Partition::BalancedRandom(g.num_data(), 4, 9);
    const std::vector<BucketId> anchor = partition.assignment();
    const MoveTopology topo = MoveTopology::FullK(4, g.num_data(), 0.05);
    RefinerOptions options;
    Refiner refiner(g, options);
    uint64_t moved = 0;
    for (uint64_t iter = 0; iter < 5; ++iter) {
      moved += refiner
                   .RunIteration(topo, &partition, 2, iter, nullptr, &anchor,
                                 penalty)
                   .num_moved;
    }
    return moved;
  };
  const uint64_t free_moves = moved_with_penalty(0.0);
  const uint64_t heavy_moves = moved_with_penalty(1e9);
  EXPECT_EQ(heavy_moves, 0u) << "prohibitive penalty freezes everything";
  EXPECT_GT(free_moves, 0u);
}

TEST(Refiner, DrawFloorCutsDrawsOnConvergedInstance) {
  // Superstep-4 draw floor regression: on a converged instance most bucket
  // pairs carry one-sided or negative-only demand, so their probability
  // rows are all zero and their draws are skipped — the draw count must
  // drop strictly below the proposal count. The trajectory is unchanged
  // because a skipped draw had probability 0; Debug builds check that for
  // every skipped proposal inside the shared draw.
  const BipartiteGraph g = SmallGraph(11);
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  Refiner refiner(g, RefinerOptions{});
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 3);
  IterationStats last;
  for (uint64_t iter = 0; iter < 14; ++iter) {
    last = refiner.RunIteration(topo, &partition, 5, iter);
  }
  EXPECT_LT(last.moved_fraction, 0.02) << "instance must converge";
  EXPECT_GT(last.num_proposals, 0u);
  EXPECT_LT(last.num_draws, last.num_proposals)
      << "converged dead pairs must stop drawing";
}

TEST(Refiner, DeterministicAcrossRuns) {
  const BipartiteGraph g = SmallGraph();
  auto run = [&] {
    Partition partition = Partition::BalancedRandom(g.num_data(), 8, 3);
    const MoveTopology topo = MoveTopology::FullK(8, g.num_data(), 0.05);
    RefinerOptions options;
    options.exploration_probability = 0.05;  // exploration is hash-driven too
    Refiner refiner(g, options);
    for (uint64_t iter = 0; iter < 4; ++iter) {
      refiner.RunIteration(topo, &partition, 11, iter);
    }
    return partition.assignment();
  };
  EXPECT_EQ(run(), run());
}

TEST(Refiner, StatsAddUp) {
  const BipartiteGraph g = SmallGraph();
  Partition partition = Partition::BalancedRandom(g.num_data(), 4, 1);
  const MoveTopology topo = MoveTopology::FullK(4, g.num_data(), 0.05);
  RefinerOptions options;
  Refiner refiner(g, options);
  const IterationStats stats = refiner.RunIteration(topo, &partition, 1, 0);
  EXPECT_LE(stats.num_moved, stats.num_proposals);
  EXPECT_NEAR(stats.moved_fraction,
              static_cast<double>(stats.num_moved) / g.num_data(), 1e-12);
  partition.CheckInvariants();
}

// ---------------------------------------------------------- partition I/O
TEST(PartitionIo, RoundTrip) {
  const std::vector<BucketId> assignment = {0, 3, 1, 2, 2, 0};
  const std::string path = testing::TempDir() + "/assignment.txt";
  ASSERT_TRUE(WritePartition(assignment, path).ok());
  auto back = ReadPartition(path, 4, assignment.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), assignment);
}

TEST(PartitionIo, RejectsOutOfRangeBucket) {
  const std::string path = testing::TempDir() + "/bad_assignment.txt";
  ASSERT_TRUE(WritePartition({0, 1, 5}, path).ok());
  auto result = ReadPartition(path, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(PartitionIo, RejectsWrongCount) {
  const std::string path = testing::TempDir() + "/short_assignment.txt";
  ASSERT_TRUE(WritePartition({0, 1}, path).ok());
  EXPECT_FALSE(ReadPartition(path, 2, 5).ok());
}

TEST(PartitionIo, SkipsComments) {
  const std::string path = testing::TempDir() + "/commented.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("% header\n0\n# mid\n1\n", f);
  std::fclose(f);
  auto result = ReadPartition(path, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

}  // namespace
}  // namespace shp
