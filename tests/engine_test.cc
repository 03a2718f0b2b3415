// BSP engine tests: routing/accounting, sharding, the BSP refiner's
// equivalence to the threaded refiner, Giraph-style optimizations (delta
// supersteps, message combining), and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/recursive.h"
#include "core/shp_k.h"
#include "engine/bsp_engine.h"
#include "engine/cost_model.h"
#include "engine/distributed_shp.h"
#include "engine/message_router.h"
#include "engine/shp_bsp.h"
#include "engine/wire_format.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "objective/objective.h"

namespace shp {
namespace {

TEST(MessageRouter, SeparatesLocalFromRemote) {
  MessageRouter<int> router(3);
  router.Send(0, 0, 1);  // local
  router.Send(0, 1, 2);  // remote
  router.Send(2, 1, 3);  // remote
  EXPECT_EQ(router.Incoming(0, 1).size(), 1u);
  const RouteStats stats = router.CollectAndClear(4);
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.remote_messages, 2u);
  EXPECT_EQ(stats.remote_bytes, 8u);
  // Cleared after collection.
  EXPECT_TRUE(router.Incoming(0, 1).empty());
}

TEST(MessageRouter, SizedCollection) {
  MessageRouter<std::vector<int>> router(2);
  router.Send(0, 1, {1, 2, 3});
  const RouteStats stats = router.CollectAndClearSized(
      [](const std::vector<int>& m) { return m.size() * sizeof(int); });
  EXPECT_EQ(stats.remote_bytes, 12u);
}

TEST(MessageRouter, PerWorkerByteCounters) {
  MessageRouter<int> router(2);
  router.Send(0, 1, 5);
  router.CollectAndClear(10);
  EXPECT_EQ(router.out_bytes()[0], 10u);
  EXPECT_EQ(router.in_bytes()[1], 10u);
  router.ResetByteCounters();
  EXPECT_EQ(router.out_bytes()[0], 0u);
}

TEST(MessageRouter, SizedCollectionCountsOnlyRemoteBytes) {
  // Local deliveries are free in Giraph ("replaced with a read from the
  // local memory"): they must count as local messages and zero bytes.
  MessageRouter<std::vector<int>> router(2);
  router.Send(0, 0, {1, 2, 3, 4});  // local
  router.Send(1, 0, {5});           // remote
  const RouteStats stats = router.CollectAndClearSized(
      [](const std::vector<int>& m) { return m.size() * sizeof(int); });
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.remote_messages, 1u);
  EXPECT_EQ(stats.remote_bytes, 4u);
  EXPECT_EQ(router.out_bytes()[0], 0u) << "local bytes never hit the wire";
  EXPECT_EQ(router.out_bytes()[1], 4u);
  EXPECT_EQ(router.in_bytes()[0], 4u);
}

TEST(MessageRouter, ByteCountersAccumulateAcrossSupersteps) {
  // The cost model's max-over-workers term reads the counters after several
  // supersteps; each CollectAndClear* must add, not overwrite.
  MessageRouter<int> router(3);
  router.Send(0, 1, 1);
  router.Send(0, 2, 2);
  const RouteStats first = router.CollectAndClear(8);
  EXPECT_EQ(first.remote_bytes, 16u);
  router.Send(0, 1, 3);
  router.Send(2, 1, 4);
  const RouteStats second = router.CollectAndClearSized(
      [](const int&) { return size_t{4}; });
  EXPECT_EQ(second.remote_bytes, 8u);
  EXPECT_EQ(router.out_bytes()[0], 8u + 8u + 4u);
  EXPECT_EQ(router.out_bytes()[2], 4u);
  EXPECT_EQ(router.in_bytes()[1], 8u + 4u + 4u);
  EXPECT_EQ(router.in_bytes()[2], 8u);
  router.ResetByteCounters();
  EXPECT_EQ(router.in_bytes()[1], 0u);
}

TEST(MessageCombiner, CombinesPerDestinationAndSurvivesReset) {
  using Entry = MessageCombiner<int32_t>::Entry;
  const auto drained = [](MessageCombiner<int32_t>& combiner, int src,
                          int dst) {
    const std::span<const Entry> cell = combiner.Drain(src, dst);
    std::vector<std::pair<uint64_t, int32_t>> out;
    for (const Entry& e : cell) out.emplace_back(e.key, e.value);
    return out;
  };
  using Pairs = std::vector<std::pair<uint64_t, int32_t>>;
  MessageCombiner<int32_t> combiner;
  combiner.Reset(2);
  const uint64_t high = uint64_t{3} << 32;  // differs in an upper byte
  combiner.Add(0, 1, high + 1, 1);
  combiner.Add(0, 1, 9, -1);
  combiner.Add(0, 1, 7, 1);
  combiner.Add(0, 1, 5, 1);
  combiner.Add(0, 1, 7, 1);
  combiner.Add(0, 1, 5, -1);  // sums to zero: dropped
  combiner.Add(0, 1, high, -2);
  combiner.Add(1, 1, 7, 1);   // different source row: independent
  EXPECT_EQ(drained(combiner, 0, 1),
            (Pairs{{7, 2}, {9, -1}, {high, -2}, {high + 1, 1}}))
      << "keys strictly ascending, equal keys summed, zero sums dropped";
  EXPECT_EQ(drained(combiner, 1, 1), (Pairs{{7, 1}}));
  EXPECT_TRUE(drained(combiner, 0, 0).empty());
  combiner.Reset(2);
  EXPECT_TRUE(drained(combiner, 0, 1).empty()) << "Reset clears combined state";
  combiner.Add(0, 1, 3, 4);
  EXPECT_EQ(drained(combiner, 0, 1), (Pairs{{3, 4}}));
}

TEST(Sharding, CoversAllVerticesExactlyOnce) {
  const VertexSharding sharding(4, 99);
  const auto shards = VertexSharding::BuildDataShards(sharding, 1000);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, 1000u);
  // Roughly even (hash distribution).
  for (const auto& shard : shards) {
    EXPECT_GT(shard.size(), 150u);
    EXPECT_LT(shard.size(), 350u);
  }
}

TEST(Sharding, QueryAndDataSaltsDiffer) {
  const VertexSharding sharding(16, 7);
  int differing = 0;
  for (VertexId v = 0; v < 100; ++v) {
    if (sharding.DataWorker(v) != sharding.QueryWorker(v)) ++differing;
  }
  EXPECT_GT(differing, 50) << "sides use independent hash streams";
}

BipartiteGraph TestGraph(uint64_t seed = 3) {
  SocialGraphConfig config;
  config.num_users = 1200;
  config.avg_degree = 8;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

TEST(BspRefiner, QualityMatchesThreadedRefiner) {
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;

  ShpKOptions threaded_options;
  threaded_options.k = k;
  threaded_options.seed = 5;
  const ShpResult threaded = ShpKPartitioner(threaded_options).Run(g);

  ShpKOptions bsp_options = threaded_options;
  std::vector<SuperstepStats> log;
  bsp_options.refiner_factory = [&log](const BipartiteGraph& graph,
                                       const RefinerOptions& options) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, options, config, &log);
  };
  const ShpResult bsp = ShpKPartitioner(bsp_options).Run(g);

  const double threaded_fanout = AverageFanout(g, threaded.assignment);
  const double bsp_fanout = AverageFanout(g, bsp.assignment);
  EXPECT_LT(std::abs(bsp_fanout - threaded_fanout) / threaded_fanout, 0.10)
      << "BSP and threaded engines run the same algorithm";
  EXPECT_TRUE(Partition::FromAssignment(bsp.assignment, k).IsBalanced(0.05));
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.size() % 4, 0u) << "four supersteps per iteration (Fig. 3)";
}

TEST(BspRefiner, DeltaSuperstepOneShrinksAfterFirstIteration) {
  // Giraph optimization (paper §3.3): vertices that did not move do not
  // send superstep-1 messages, so iteration 2's superstep 1 must carry far
  // fewer messages than iteration 1's (which announces everyone).
  const BipartiteGraph g = TestGraph();
  std::vector<SuperstepStats> log;
  ShpKOptions options;
  options.k = 4;
  options.max_iterations = 6;
  options.min_move_fraction = 0.0;
  options.refiner_factory = [&log](const BipartiteGraph& graph,
                                   const RefinerOptions& ropts) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, ropts, config, &log);
  };
  ShpKPartitioner(options).Run(g);
  ASSERT_GE(log.size(), 24u);
  auto s1_messages = [&log](size_t iteration) {
    return log[iteration * 4].traffic.remote_messages +
           log[iteration * 4].traffic.local_messages;
  };
  // Early iterations move many vertices (two delta entries each), so the
  // first comparison is loose; by iteration 6 movement has decayed and the
  // delta traffic must be a small fraction of the initial announcement.
  EXPECT_LT(s1_messages(5), s1_messages(0) / 2)
      << "movement decays, so delta messages must shrink sharply";
}

TEST(BspRefiner, Superstep2VolumeBoundedByFanoutTimesEdges) {
  // Paper §3.3: superstep-2 volume ≈ Σ_q fanout(q)·(#dst) ≤ fanout·|E|.
  const BipartiteGraph g = TestGraph();
  std::vector<SuperstepStats> log;
  ShpKOptions options;
  options.k = 8;
  options.max_iterations = 1;
  options.min_move_fraction = 0.0;
  options.refiner_factory = [&log](const BipartiteGraph& graph,
                                   const RefinerOptions& ropts) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, ropts, config, &log);
  };
  ShpKPartitioner(options).Run(g);
  ASSERT_GE(log.size(), 2u);
  const SuperstepStats& s2 = log[1];
  const uint64_t entries_upper =
      static_cast<uint64_t>(8) * g.num_edges();  // k·|E| hard bound
  EXPECT_LT(s2.traffic.remote_bytes / sizeof(BucketCount), entries_upper);
}

// Delta exchange + push sweep (sweep_mode kPush) vs the full-reship pull
// reference, across all three broker strategies and several cluster widths.
// The two exchanges accumulate floats in different orders, so the
// trajectories agree to tolerance, not bits (PR 2's contract): the Debug
// build additionally asserts the per-vertex proposal tolerance and the
// replica bit-equality inside RunIteration.
class BspDeltaExchange
    : public testing::TestWithParam<
          std::tuple<MoveBrokerOptions::Strategy, int>> {};

TEST_P(BspDeltaExchange, PushTrajectoryMatchesPullWithinTolerance) {
  const auto [strategy, workers] = GetParam();
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions pull_options;
  pull_options.broker.strategy = strategy;
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  // Always patch (no high-churn re-bootstrap) so every steady-state
  // iteration exercises the delta wire + accumulator patch path.
  pull_options.incremental_rebuild_fraction = 1.0;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = workers;

  std::vector<SuperstepStats> pull_log;
  std::vector<SuperstepStats> push_log;
  BspRefiner pull(g, pull_options, config, &pull_log);
  BspRefiner push(g, push_options, config, &push_log);
  Partition p_pull = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_push = p_pull;

  for (uint64_t iter = 0; iter < 6; ++iter) {
    const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
    const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
    EXPECT_FALSE(a.push_sweep);
    EXPECT_TRUE(b.push_sweep);
    const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
    const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
    ASSERT_NEAR(f_pull, f_push, 1e-6 * std::max(f_pull, f_push))
        << "iteration " << iter << " (strategy "
        << static_cast<int>(strategy) << ", W=" << workers << ")";
    if (iter > 0) {
      EXPECT_GT(b.num_delta_records, 0u)
          << "steady-state iterations must flow delta records";
    }
  }
  ASSERT_EQ(pull_log.size(), push_log.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndWidths, BspDeltaExchange,
    testing::Combine(
        testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                        MoveBrokerOptions::Strategy::kHistogramMatching,
                        MoveBrokerOptions::Strategy::kExactPairing),
        testing::Values(1, 3, 8)));

TEST(BspRefiner, DeltaExchangeShrinksSteadyStateSuperstep2Traffic) {
  // The point of the delta exchange: steady-state superstep 2 moves
  // O(delta records), not O(Σ deg(dirty q) × touched workers). High-churn
  // early rounds re-bootstrap (full reship — the records would outweigh the
  // lists there); once movement decays, the delta supersteps must undercut
  // the full reship, and the grouped varint stream of every delta superstep
  // must come in >= 25% below the fixed-width NeighborDelta records it
  // encodes (steady state the codec sits near 3 bytes/record). The win
  // scales with query fanout, so measure on a power-law workload (hub
  // queries with near-k fanout — the paper's regime) rather than the
  // low-degree social graph.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  BspConfig config;
  config.num_workers = 4;
  const uint64_t iterations = 14;

  auto run = [&](RefinerOptions::SweepMode mode) {
    RefinerOptions options;
    options.sweep_mode = mode;
    std::vector<SuperstepStats> log;
    BspRefiner refiner(g, options, config, &log);
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      refiner.RunIteration(topo, &partition, 9, iter);
    }
    return log;
  };
  const auto pull_log = run(RefinerOptions::SweepMode::kPull);
  const auto push_log = run(RefinerOptions::SweepMode::kPush);
  ASSERT_EQ(pull_log.size(), push_log.size());
  ASSERT_EQ(push_log.size(), iterations * 4);

  // Steady state: the last half of the run.
  uint64_t pull_s2 = 0;
  uint64_t push_s2 = 0;
  uint64_t delta_supersteps = 0;
  for (size_t iter = iterations / 2; iter < iterations; ++iter) {
    pull_s2 += pull_log[iter * 4 + 1].traffic.remote_bytes;
    const SuperstepStats& s2 = push_log[iter * 4 + 1];
    push_s2 += s2.traffic.remote_bytes;
    if (s2.label == "2:ship-deltas+gains") {
      ++delta_supersteps;
      EXPECT_LE(4 * s2.traffic.remote_bytes,
                3 * s2.traffic.remote_messages * wire::kRawDeltaBytes)
          << "varint delta records must be >= 25% below fixed-width ones";
    }
  }
  EXPECT_GT(delta_supersteps, 0u)
      << "movement must decay into the delta-exchange regime";
  EXPECT_GT(pull_s2, 0u);
  EXPECT_LT(push_s2, pull_s2)
      << "delta exchange must undercut the full reship in steady state";
  // The first iteration bootstraps in both modes with the same reship.
  EXPECT_EQ(pull_log[1].traffic.remote_bytes,
            push_log[1].traffic.remote_bytes);
}

TEST(BspRefiner, GroupedDeltaExchangeShrinksSteadyStateSuperstep2Traffic) {
  // Same steady-state byte claim for the production scenario: a grouped
  // SHP-2 recursion window (sibling pairs over k = 32). The grouped pull
  // reference reships dirty queries' restricted lists; the delta exchange
  // must undercut it once movement decays.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  std::vector<std::vector<BucketId>> pairs;
  for (BucketId b = 0; b < k; b += 2) pairs.push_back({b, b + 1});
  const MoveTopology topo =
      MoveTopology::Grouped(k, g.num_data(), 0.05, std::move(pairs));
  BspConfig config;
  config.num_workers = 4;
  const uint64_t iterations = 14;

  auto run = [&](RefinerOptions::SweepMode mode) {
    RefinerOptions options;
    options.sweep_mode = mode;
    std::vector<SuperstepStats> log;
    BspRefiner refiner(g, options, config, &log);
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      refiner.RunIteration(topo, &partition, 9, iter);
    }
    return log;
  };
  const auto pull_log = run(RefinerOptions::SweepMode::kPull);
  const auto push_log = run(RefinerOptions::SweepMode::kPush);
  ASSERT_EQ(push_log.size(), iterations * 4);

  uint64_t pull_s2 = 0;
  uint64_t push_s2 = 0;
  uint64_t delta_supersteps = 0;
  for (size_t iter = iterations / 2; iter < iterations; ++iter) {
    pull_s2 += pull_log[iter * 4 + 1].traffic.remote_bytes;
    const SuperstepStats& s2 = push_log[iter * 4 + 1];
    push_s2 += s2.traffic.remote_bytes;
    if (s2.label == "2:ship-deltas+gains") {
      ++delta_supersteps;
      EXPECT_LE(4 * s2.traffic.remote_bytes,
                3 * s2.traffic.remote_messages * wire::kRawDeltaBytes)
          << "varint delta records must be >= 25% below fixed-width ones";
    }
  }
  EXPECT_GT(delta_supersteps, 0u)
      << "grouped movement must decay into the delta-exchange regime";
  EXPECT_GT(pull_s2, 0u);
  EXPECT_LT(push_s2, pull_s2)
      << "grouped delta exchange must undercut the grouped full reship";
}

TEST(BspRefiner, ResultsDoNotDependOnHostPoolSize) {
  // The simulated workers, not the host threads, own the work: the pool
  // that runs the superstep phases must change neither the trajectory nor
  // any superstep's traffic or per-worker work units — in both exchange
  // modes, on the full-k and the grouped topology.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  std::vector<std::vector<BucketId>> pairs;
  for (BucketId b = 0; b < k; b += 2) pairs.push_back({b, b + 1});
  const MoveTopology full_k = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped =
      MoveTopology::Grouped(k, g.num_data(), 0.05, std::move(pairs));

  for (const MoveTopology* topo : {&full_k, &grouped}) {
    for (const auto mode : {RefinerOptions::SweepMode::kPull,
                            RefinerOptions::SweepMode::kPush}) {
      auto run = [&](size_t threads, std::vector<SuperstepStats>* log) {
        ThreadPool pool(threads);
        RefinerOptions options;
        options.sweep_mode = mode;
        BspConfig config;
        config.num_workers = 3;
        BspRefiner refiner(g, options, config, log);
        Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
        for (uint64_t iter = 0; iter < 14; ++iter) {
          refiner.RunIteration(*topo, &partition, 9, iter, &pool);
        }
        return partition.assignment();
      };
      SCOPED_TRACE(testing::Message()
                   << (topo->full_k ? "full-k" : "grouped") << ", "
                   << (mode == RefinerOptions::SweepMode::kPush ? "push"
                                                                : "pull"));
      std::vector<SuperstepStats> serial_log;
      std::vector<SuperstepStats> pooled_log;
      EXPECT_EQ(run(1, &serial_log), run(4, &pooled_log));
      ASSERT_EQ(serial_log.size(), pooled_log.size());
      for (size_t i = 0; i < serial_log.size(); ++i) {
        const SuperstepStats& a = serial_log[i];
        const SuperstepStats& b = pooled_log[i];
        EXPECT_EQ(a.label, b.label) << "superstep " << i;
        EXPECT_EQ(a.traffic.remote_messages, b.traffic.remote_messages)
            << "superstep " << i;
        EXPECT_EQ(a.traffic.local_messages, b.traffic.local_messages)
            << "superstep " << i;
        EXPECT_EQ(a.traffic.remote_bytes, b.traffic.remote_bytes)
            << "superstep " << i;
        EXPECT_EQ(a.envelope_bytes, b.envelope_bytes) << "superstep " << i;
        EXPECT_EQ(a.work_units, b.work_units) << "superstep " << i;
      }
    }
  }
}

TEST(BspRefiner, GroupedRoundsKeepDeltaExchangeAndReplicas) {
  // kAuto on one refiner instance alternating full-k and grouped recursion
  // windows: every round runs the delta exchange + push sweep (the full-k
  // gate is gone — grouped rounds scan the group-windowed accumulators),
  // and the replicas are rebuilt once per topology run: a switch changes
  // every vertex's window, so it bootstraps, and rounds under an unchanged
  // topology patch. Debug builds assert replica + proposal equivalence
  // inside RunIteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  // Always patch: this test pins the replica lifecycle, not the churn
  // heuristic.
  options.incremental_rebuild_fraction = 1.0;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 6);
  uint64_t topology_runs = 0;
  uint64_t delta_records = 0;
  const MoveTopology* last = nullptr;
  for (uint64_t iter = 0; iter < 8; ++iter) {
    const MoveTopology* topo = iter % 4 < 2 ? &full : &grouped;
    if (topo != last) ++topology_runs;
    last = topo;
    const IterationStats stats =
        refiner.RunIteration(*topo, &partition, 9, iter);
    EXPECT_TRUE(stats.push_sweep)
        << "grouped rounds must stay on the delta exchange (iter " << iter
        << ")";
    delta_records += stats.num_delta_records;
  }
  EXPECT_EQ(topology_runs, 4u);
  EXPECT_EQ(refiner.num_bootstrap_reships(), topology_runs)
      << "one bootstrap per topology run, patches within a run";
  EXPECT_GT(delta_records, 0u) << "rounds within a run must patch";
  EXPECT_TRUE(Partition::FromAssignment(partition.assignment(), k)
                  .IsBalanced(0.051));
}

TEST(BspRefiner, ZeroMoveGroupedRoundKeepsReplicasFresh) {
  // A grouped round that folds the previous round's moves but itself moves
  // nothing (prohibitive anchor penalty): the fold's delta records must
  // patch the accumulator replicas — grouped rounds emit like full-k ones —
  // so the following round carries on without a bootstrap reship. (An
  // anchor change invalidates the cached proposals, not the replicas.)
  // Debug builds assert replica equality inside RunIteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  options.incremental_rebuild_fraction = 1.0;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 6);
  uint64_t iter = 0;
  IterationStats stats;
  do {
    stats = refiner.RunIteration(grouped, &partition, 9, iter++);
  } while (iter < 40 && stats.num_moved == 0);
  ASSERT_GT(stats.num_moved, 0u) << "need moves pending for the grouped fold";
  const uint64_t bootstraps = refiner.num_bootstrap_reships();
  // Grouped round: folds the pending moves, executes none of its own.
  const std::vector<BucketId> anchor = partition.assignment();
  stats = refiner.RunIteration(grouped, &partition, 9, iter++, nullptr,
                               &anchor, 1e9);
  EXPECT_TRUE(stats.push_sweep);
  EXPECT_EQ(stats.num_moved, 0u) << "the repro needs a zero-move fold round";
  EXPECT_GT(stats.num_delta_records, 0u)
      << "the grouped fold must emit the patch records";
  stats = refiner.RunIteration(grouped, &partition, 9, iter++);
  EXPECT_TRUE(stats.push_sweep);
  EXPECT_EQ(refiner.num_bootstrap_reships(), bootstraps)
      << "no re-bootstrap across the grouped fold";
}

/// Deals each bucket's members over `children` in deterministic hash order
/// with exact quotas — the recursion driver's redistribution, reproduced for
/// manually driven level advances.
void RedistributeByQuota(Partition* partition, BucketId parent,
                         const std::vector<BucketId>& children,
                         uint64_t seed) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < partition->num_data(); ++v) {
    if (partition->bucket_of(v) == parent) members.push_back(v);
  }
  std::sort(members.begin(), members.end(), [&](VertexId a, VertexId b) {
    const uint64_t ha = HashCombine(seed, a, 0);
    const uint64_t hb = HashCombine(seed, b, 0);
    if (ha != hb) return ha < hb;
    return a < b;
  });
  size_t cursor = 0;
  for (size_t c = 0; c < children.size(); ++c) {
    size_t quota = members.size() / children.size();
    if (c + 1 == children.size()) quota = members.size() - cursor;
    for (size_t i = 0; i < quota && cursor < members.size(); ++i) {
      partition->Move(members[cursor++], children[c]);
    }
  }
}

// Grouped delta exchange vs the grouped full-reship pull reference, across
// all three broker strategies and several cluster widths, over two manually
// driven SHP-2 recursion levels (level advance = quota redistribution, the
// driver's external mutation). Trajectories agree to the established rtol
// 1e-4 fanout contract; Debug builds additionally assert the per-vertex
// proposal tolerance and replica consistency inside RunIteration.
class BspGroupedDeltaExchange
    : public testing::TestWithParam<
          std::tuple<MoveBrokerOptions::Strategy, int>> {};

TEST_P(BspGroupedDeltaExchange, TrajectoryMatchesPullAcrossRecursionLevels) {
  const auto [strategy, workers] = GetParam();
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  // SHP-2 over k = 8: level 1 splits [0,8) into {0,4}; level 2 splits the
  // halves into {{0,2},{4,6}}.
  const MoveTopology level1 =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 4}});
  const MoveTopology level2 =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 2}, {4, 6}});

  RefinerOptions pull_options;
  pull_options.broker.strategy = strategy;
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  pull_options.incremental_rebuild_fraction = 1.0;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = workers;

  BspRefiner pull(g, pull_options, config);
  BspRefiner push(g, push_options, config);
  Partition p_pull(g.num_data(), k);  // all in bucket 0 = the root node
  Partition p_push(g.num_data(), k);
  RedistributeByQuota(&p_pull, 0, {0, 4}, 0x5eed);
  RedistributeByQuota(&p_push, 0, {0, 4}, 0x5eed);

  uint64_t iter = 0;
  uint64_t push_delta_records = 0;
  const auto run_level = [&](const MoveTopology& topo) {
    for (int i = 0; i < 4; ++i, ++iter) {
      const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
      const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
      EXPECT_FALSE(a.push_sweep);
      EXPECT_TRUE(b.push_sweep);
      push_delta_records += b.num_delta_records;
      const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
      const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
      ASSERT_NEAR(f_pull, f_push, 1e-4 * std::max(f_pull, f_push))
          << "iteration " << iter << " (strategy "
          << static_cast<int>(strategy) << ", W=" << workers << ")";
    }
  };
  run_level(level1);
  // Level advance: the driver's redistribution, applied to each trajectory.
  RedistributeByQuota(&p_pull, 0, {0, 2}, 0xfeed);
  RedistributeByQuota(&p_pull, 4, {4, 6}, 0xfeed);
  RedistributeByQuota(&p_push, 0, {0, 2}, 0xfeed);
  RedistributeByQuota(&p_push, 4, {4, 6}, 0xfeed);
  run_level(level2);

  EXPECT_GT(push_delta_records, 0u)
      << "grouped steady-state iterations must flow delta records";
  EXPECT_EQ(push.num_bootstrap_reships(), 2u)
      << "one bootstrap per recursion level's topology";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndWidths, BspGroupedDeltaExchange,
    testing::Combine(
        testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                        MoveBrokerOptions::Strategy::kHistogramMatching,
                        MoveBrokerOptions::Strategy::kExactPairing),
        testing::Values(1, 3, 8)));

TEST(BspRefiner, RecursionDriverBuildsOneRefinerPerLevel) {
  // The SHP-2/r driver asks its factory for a fresh refiner at every level,
  // also when the gain base stays constant (future-split objective off), so
  // every level's replicas are windowed to that level's sibling groups. The
  // BSP result equals the threaded engine's.
  const BipartiteGraph g = TestGraph();
  RecursiveOptions options;
  options.k = 8;
  options.seed = 5;
  options.iterations_per_level = 4;
  options.future_split_objective = false;
  options.refiner.sweep_mode = RefinerOptions::SweepMode::kPush;
  const RecursiveResult threaded = RecursivePartitioner(options).Run(g);

  int factory_calls = 0;
  options.refiner_factory = [&](const BipartiteGraph& graph,
                                const RefinerOptions& ropts)
      -> std::unique_ptr<RefinerInterface> {
    ++factory_calls;
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, ropts, config);
  };
  const RecursiveResult bsp = RecursivePartitioner(options).Run(g);
  EXPECT_EQ(bsp.levels_run, 3u);
  EXPECT_EQ(factory_calls, static_cast<int>(bsp.levels_run))
      << "one refiner per recursion level";
  EXPECT_EQ(bsp.assignment, threaded.assignment);
  EXPECT_TRUE(Partition::FromAssignment(bsp.assignment, 8).IsBalanced(0.051));
}

TEST(BspRefiner, ReplicasHoldOnlyOwnedWindowEntries) {
  // Each data worker's replica holds, for each vertex it owns, exactly the
  // occupied buckets of the vertex's group window ([0, k) under direct
  // k-way) and nothing for any other vertex — so the W replicas together
  // hold one in-window copy, whatever W. The trajectory equals the threaded
  // Refiner's (same gather, same windows).
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  // Occupied buckets of N(v) inside v's window, by brute force.
  const auto in_window = [&](const MoveTopology& topo,
                             const std::vector<BucketId>& assignment,
                             VertexId v) {
    const auto [begin, end] = topo.WindowOf(assignment[v]);
    std::vector<BucketId> buckets;
    for (const VertexId q : g.DataNeighbors(v)) {
      for (const VertexId u : g.QueryNeighbors(q)) {
        if (assignment[u] >= begin && assignment[u] < end) {
          buckets.push_back(assignment[u]);
        }
      }
    }
    std::sort(buckets.begin(), buckets.end());
    return static_cast<uint64_t>(
        std::unique(buckets.begin(), buckets.end()) - buckets.begin());
  };
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  const uint64_t iterations = 4;
  for (const MoveTopology* topo : {&full, &grouped}) {
    // The threaded trajectory, and each iteration's brute-force per-vertex
    // count over the assignment superstep 2 saw (the one before the round's
    // moves), shared by every W.
    std::vector<std::vector<BucketId>> trajectory;
    std::vector<std::vector<uint64_t>> counts;
    Refiner threaded(g, options);
    Partition p_threaded = Partition::BalancedRandom(g.num_data(), k, 6);
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      std::vector<uint64_t>& count = counts.emplace_back(g.num_data());
      for (VertexId v = 0; v < g.num_data(); ++v) {
        count[v] = in_window(*topo, p_threaded.assignment(), v);
      }
      threaded.RunIteration(*topo, &p_threaded, 9, iter);
      trajectory.push_back(p_threaded.assignment());
    }
    for (const int workers : {1, 3, 8}) {
      SCOPED_TRACE(testing::Message() << (topo->full_k ? "full-k" : "grouped")
                                      << ", W=" << workers);
      BspConfig config;
      config.num_workers = workers;
      BspRefiner bsp(g, options, config);
      const VertexSharding sharding(workers, config.shard_seed);
      Partition p_bsp = Partition::BalancedRandom(g.num_data(), k, 6);
      for (uint64_t iter = 0; iter < iterations; ++iter) {
        bsp.RunIteration(*topo, &p_bsp, 9, iter);
        ASSERT_EQ(p_bsp.assignment(), trajectory[iter]) << "iteration " << iter;
        std::vector<uint64_t> expected(static_cast<size_t>(workers), 0);
        for (VertexId v = 0; v < g.num_data(); ++v) {
          const int owner = sharding.DataWorker(v);
          expected[static_cast<size_t>(owner)] += counts[iter][v];
          for (int w = 0; w < workers; ++w) {
            if (w != owner) {
              ASSERT_TRUE(bsp.sweep(w).Entries(v).empty())
                  << "worker " << w << " holds entries of v=" << v;
            }
          }
        }
        for (int w = 0; w < workers; ++w) {
          EXPECT_EQ(bsp.sweep(w).TotalEntries(),
                    expected[static_cast<size_t>(w)])
              << "worker " << w << ", iteration " << iter;
        }
      }
    }
  }
}

TEST(BspRefiner, PrescannedProposalsKeepTheThreadedTrajectoryUnderAnAnchor) {
  // Superstep 2 proposes for each patched vertex inside ApplyDeltas and
  // scans only the rest in ProposeMoves. Under direct k-way push with an
  // anchor penalty (so FinalizeProposal shifts gains), the assignment must
  // equal the threaded Refiner's after every iteration, whatever W; Debug
  // builds also check every cached proposal against a fresh scan.
  const BipartiteGraph g = TestGraph(5);
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  const double penalty = 0.05;
  const uint64_t iterations = 6;
  const Partition start = Partition::BalancedRandom(g.num_data(), k, 12);
  const std::vector<BucketId> anchor = start.assignment();

  std::vector<std::vector<BucketId>> trajectory;
  Refiner threaded(g, options);
  Partition p_threaded = start;
  uint64_t steady_rounds = 0;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    const IterationStats stats = threaded.RunIteration(
        full, &p_threaded, 7, iter, nullptr, &anchor, penalty);
    steady_rounds += stats.num_recomputed < g.num_data();
    trajectory.push_back(p_threaded.assignment());
  }
  ASSERT_GT(steady_rounds, 0u) << "no compact round ran";
  ASSERT_NE(trajectory.back(), anchor) << "the penalty froze every move";
  for (const int workers : {1, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "W=" << workers);
    BspConfig config;
    config.num_workers = workers;
    BspRefiner bsp(g, options, config);
    Partition p_bsp = start;
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      bsp.RunIteration(full, &p_bsp, 7, iter, nullptr, &anchor, penalty);
      ASSERT_EQ(p_bsp.assignment(), trajectory[iter]) << "iteration " << iter;
    }
  }
}

TEST(BspRefiner, SuperstepOneMessagesMatchBruteForceCombine) {
  // Superstep 1 sends one message per (source worker, destination worker,
  // query, bucket) whose combined delta is nonzero: a vertex that moved
  // b → b' sends −1 at b and +1 at b' to each adjacent query's owner. The
  // brute force recomputes those net deltas from the assignments the
  // queries last saw and now see. An external swap of two same-worker
  // vertices sharing a query makes some keys sum to zero, which must send
  // nothing.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  const uint64_t iterations = 4;
  const uint64_t mutate_before = 2;
  for (const MoveTopology* topo : {&full, &grouped}) {
    for (const int workers : {1, 3, 8}) {
      SCOPED_TRACE(testing::Message() << (topo->full_k ? "full-k" : "grouped")
                                      << ", W=" << workers);
      BspConfig config;
      config.num_workers = workers;
      std::vector<SuperstepStats> log;
      BspRefiner bsp(g, options, config, &log);
      const VertexSharding sharding(workers, config.shard_seed);
      Partition partition = Partition::BalancedRandom(g.num_data(), k, 6);
      // What the queries saw at the previous superstep 1 (nothing yet).
      std::vector<BucketId> seen(g.num_data(), -1);
      for (uint64_t iter = 0; iter < iterations; ++iter) {
        if (iter == mutate_before) {
          // Swap the buckets of the first two vertices of one query that
          // share an owner worker, differ in bucket and did not move last
          // round.
          bool swapped = false;
          for (VertexId q = 0; q < g.num_queries() && !swapped; ++q) {
            const auto pins = g.QueryNeighbors(q);
            for (size_t i = 0; i < pins.size() && !swapped; ++i) {
              for (size_t j = i + 1; j < pins.size() && !swapped; ++j) {
                const VertexId u = pins[i];
                const VertexId v = pins[j];
                const BucketId bu = partition.bucket_of(u);
                const BucketId bv = partition.bucket_of(v);
                if (bu == bv || seen[u] != bu || seen[v] != bv ||
                    sharding.DataWorker(u) != sharding.DataWorker(v)) {
                  continue;
                }
                partition.Move(u, bv);
                partition.Move(v, bu);
                swapped = true;
              }
            }
          }
          ASSERT_TRUE(swapped);
        }
        // Net delta per (src, dst, q, bucket), by brute force.
        std::map<std::tuple<int, int, VertexId, BucketId>, int64_t> net;
        for (VertexId v = 0; v < g.num_data(); ++v) {
          const BucketId before = seen[v];
          const BucketId now = partition.bucket_of(v);
          if (before == now) continue;
          const int src = sharding.DataWorker(v);
          for (const VertexId q : g.DataNeighbors(v)) {
            const int dst = sharding.QueryWorker(q);
            if (before >= 0) --net[{src, dst, q, before}];
            ++net[{src, dst, q, now}];
          }
        }
        uint64_t local = 0;
        uint64_t remote = 0;
        uint64_t cancelled = 0;
        for (const auto& [key, delta] : net) {
          if (delta == 0) {
            ++cancelled;
            continue;
          }
          (std::get<0>(key) == std::get<1>(key) ? local : remote) += 1;
        }
        if (iter == mutate_before) {
          EXPECT_GT(cancelled, 0u) << "the swap must cancel some keys";
        }
        seen = partition.assignment();
        bsp.RunIteration(*topo, &partition, 9, iter);
        ASSERT_EQ(log.size(), 4 * (iter + 1));
        const RouteStats& traffic = log[4 * iter].traffic;
        EXPECT_EQ(traffic.local_messages, local) << "iteration " << iter;
        EXPECT_EQ(traffic.remote_messages, remote) << "iteration " << iter;
        EXPECT_EQ(traffic.remote_bytes, 12 * remote) << "iteration " << iter;
      }
    }
  }
}

TEST(BspRefiner, ExternalPartitionMutationSelfHeals) {
  // The replica guard must detect an externally mutated partition, re-sync
  // the query replicas through the per-vertex diff scan, and keep the
  // delta-patched accumulators consistent (Debug builds assert replica
  // equality inside RunIteration).
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
  refiner.RunIteration(topo, &partition, 9, 0);
  refiner.RunIteration(topo, &partition, 9, 1);
  // Mutate behind the refiner's back (a caller editing the partition
  // between iterations).
  for (VertexId v = 0; v < 50; ++v) {
    partition.Move(v, (partition.bucket_of(v) + 1) % k);
  }
  const IterationStats healed = refiner.RunIteration(topo, &partition, 9, 2);
  EXPECT_TRUE(healed.full_rebuild) << "mutation must trigger the diff scan";
  const IterationStats steady = refiner.RunIteration(topo, &partition, 9, 3);
  EXPECT_FALSE(steady.full_rebuild) << "healed state carries incrementally";
}

TEST(BspRefiner, WorkerStateEstimatePositive) {
  const BipartiteGraph g = TestGraph();
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 4;
  BspRefiner refiner(g, options, config);
  EXPECT_GT(refiner.MaxWorkerStateBytes(), 0u);
}

TEST(CostModel, MoreBytesCostsMoreTime) {
  CostModelConfig config;
  CostModel model(config);
  SuperstepStats cheap;
  cheap.work_units = {100, 100};
  SuperstepStats heavy = cheap;
  heavy.traffic.remote_bytes = 1000000;
  EXPECT_GT(model.SuperstepSecondsEven(heavy, 2),
            model.SuperstepSecondsEven(cheap, 2));
}

TEST(CostModel, SlowestWorkerGates) {
  CostModelConfig config;
  config.barrier_ns = 0;
  config.ns_per_remote_byte = 0;
  CostModel model(config);
  SuperstepStats stats;
  stats.work_units = {10, 1000, 10};
  EXPECT_DOUBLE_EQ(
      model.SuperstepSeconds(stats, {0, 0, 0}),
      1000 * config.ns_per_work_unit * 1e-9);
}

TEST(CostModel, TotalAccumulatesAndScalesMachineSeconds) {
  CostModel model({});
  SuperstepStats stats;
  stats.work_units = {100};
  const SimulatedTime time = model.Total({stats, stats}, 4);
  EXPECT_GT(time.seconds, 0.0);
  EXPECT_DOUBLE_EQ(time.machine_seconds, time.seconds * 4);
}

TEST(DistributedShp, ReportIsConsistent) {
  const BipartiteGraph g = TestGraph();
  DistributedShpOptions options;
  options.bsp.num_workers = 4;
  options.recursive = true;
  const DistributedShpReport report = DistributedShp(options).Run(g, 8);
  EXPECT_EQ(report.k, 8);
  EXPECT_EQ(report.assignment.size(), g.num_data());
  EXPECT_GT(report.num_supersteps, 0u);
  EXPECT_EQ(report.num_supersteps % 4, 0u);
  EXPECT_GT(report.simulated.seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.simulated.machine_seconds,
                   report.simulated.seconds * 4);
  EXPECT_TRUE(Partition::FromAssignment(report.assignment, 8)
                  .IsBalanced(0.05));
}

TEST(DistributedShp, WorkerStateCountsReplicas) {
  // The report's worker-state figure is sampled while the refiners run, so
  // in push mode it includes the query and accumulator replicas that a
  // freshly constructed refiner does not hold yet.
  const BipartiteGraph g = TestGraph();
  DistributedShpOptions options;
  options.bsp.num_workers = 4;
  options.recursive = true;
  options.recursive_options.refiner.sweep_mode =
      RefinerOptions::SweepMode::kPush;
  const DistributedShpReport report = DistributedShp(options).Run(g, 8);
  const BspRefiner fresh(g, options.recursive_options.refiner, options.bsp);
  EXPECT_GT(report.max_worker_state_bytes, fresh.MaxWorkerStateBytes());
}

TEST(DistributedShp, MoreWorkersMoreCommunication) {
  const BipartiteGraph g = TestGraph();
  auto traffic = [&](int workers) {
    DistributedShpOptions options;
    options.bsp.num_workers = workers;
    options.recursive = true;
    options.recursive_options.seed = 9;
    return DistributedShp(options).Run(g, 4).total_traffic.remote_bytes;
  };
  // With more workers a larger fraction of edges crosses machines.
  EXPECT_GT(traffic(8), traffic(2));
}

TEST(BspRefiner, EpochEndCallbackFiresPerIteration) {
  // The serving loop hangs its epoch bookkeeping off on_epoch_end: it must
  // fire exactly once per completed iteration, on the driver thread, with
  // the executed move count of that iteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 3;
  std::vector<std::pair<uint64_t, uint64_t>> calls;
  config.on_epoch_end = [&calls](uint64_t epoch, uint64_t moves) {
    calls.emplace_back(epoch, moves);
  };
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
  std::vector<uint64_t> moved;
  for (uint64_t iter = 0; iter < 3; ++iter) {
    moved.push_back(refiner.RunIteration(topo, &partition, 9, iter).num_moved);
  }
  ASSERT_EQ(calls.size(), 3u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i);
    EXPECT_EQ(calls[i].second, moved[i]);
  }
}

TEST(BspRefiner, MoveBudgetCapsIteration) {
  // SetMoveBudget flows through BspConfig-independent broker options into
  // superstep 4's trim: no iteration may exceed it, on either engine.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner bsp(g, options, config);
  Refiner threaded(g, options);
  for (RefinerInterface* refiner :
       std::initializer_list<RefinerInterface*>{&bsp, &threaded}) {
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
    // First iteration unlimited: from a random start the refiner moves far
    // more than the budget we are about to impose.
    const IterationStats free_run =
        refiner->RunIteration(topo, &partition, 9, 0);
    EXPECT_GT(free_run.num_moved, 50u);
    refiner->SetMoveBudget(50);
    for (uint64_t iter = 1; iter < 4; ++iter) {
      const IterationStats stats =
          refiner->RunIteration(topo, &partition, 9, iter);
      EXPECT_LE(stats.num_moved, 50u);
    }
    refiner->SetMoveBudget(0);
    // 0 restores unlimited (no crash, no residual cap semantics to assert
    // beyond the run completing).
    refiner->RunIteration(topo, &partition, 9, 4);
  }
}

}  // namespace
}  // namespace shp
