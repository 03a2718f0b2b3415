// Chaos harness for the fault-tolerant superstep protocol: every fault class
// the FaultInjector can produce, across cluster widths W ∈ {1, 3, 8}, runs
// against a fault-free twin with identical seeds. The contract under test is
// the ISSUE's acceptance criterion: the fault is detected (counters), the
// engine recovers (bounded retransmission, same-iteration reship, worker
// rebuild), and the recovery trajectory is equivalent to the fault-free one
// (rtol 1e-4 on the paper's probabilistic-fanout objective; bit-exact for
// pure straggler faults). Debug builds additionally DCHECK the replica and
// proposal equivalence inside every RunIteration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/move_topology.h"
#include "core/partition.h"
#include "engine/bsp_engine.h"
#include "engine/message_router.h"
#include "engine/shp_bsp.h"
#include "graph/gen_social.h"
#include "objective/objective.h"

namespace shp {
namespace {

BipartiteGraph TestGraph() {
  SocialGraphConfig config;
  config.num_users = 600;
  config.avg_degree = 8;
  config.seed = 3;
  return GenerateSocialGraph(config);
}

struct TwinRun {
  std::vector<IterationStats> stats;      ///< faulty run, per iteration
  BspRefiner::FaultCounters counters;     ///< faulty run, cumulative
  std::vector<BucketId> faulty_assignment;
  std::vector<BucketId> clean_assignment;
};

/// Runs a faulty engine against a fault-free twin with identical seeds and
/// asserts per-iteration trajectory equivalence (rtol 1e-4). `mutate_at`,
/// when ≥ 0, applies the same external partition mutation to BOTH twins
/// before that iteration (the PR 3 self-heal scenario).
TwinRun RunTwins(const BipartiteGraph& g, int workers,
                 const FaultSchedule& schedule, uint64_t iterations,
                 int64_t mutate_at = -1, const BspConfig& base = {}) {
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  // Always patch: epoch 1+ must be delta-exchange epochs so the enveloped
  // wire path (where the faults land) actually runs.
  options.incremental_rebuild_fraction = 1.0;

  BspConfig faulty_config = base;
  faulty_config.num_workers = workers;
  faulty_config.fault_schedule = &schedule;
  BspConfig clean_config = base;
  clean_config.num_workers = workers;

  BspRefiner faulty(g, options, faulty_config);
  BspRefiner clean(g, options, clean_config);
  Partition p_faulty = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_clean = p_faulty;

  TwinRun run;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    if (mutate_at >= 0 && iter == static_cast<uint64_t>(mutate_at)) {
      for (VertexId v = 0; v < 50 && v < g.num_data(); ++v) {
        const BucketId to = (p_faulty.bucket_of(v) + 1) % k;
        p_faulty.Move(v, to);
        p_clean.Move(v, to);
      }
    }
    run.stats.push_back(faulty.RunIteration(topo, &p_faulty, 9, iter));
    clean.RunIteration(topo, &p_clean, 9, iter);
    const double f_faulty = AveragePFanout(g, p_faulty.assignment(), 0.5);
    const double f_clean = AveragePFanout(g, p_clean.assignment(), 0.5);
    EXPECT_NEAR(f_faulty, f_clean, 1e-4 * std::max(f_faulty, f_clean))
        << "iteration " << iter << " (W=" << workers
        << "): recovery trajectory diverged from the fault-free twin";
  }
  run.counters = faulty.fault_counters();
  run.faulty_assignment = p_faulty.assignment();
  run.clean_assignment = p_clean.assignment();
  return run;
}

// ---- the 7 × {1, 3, 8} fault matrix ----

class ChaosMatrix
    : public testing::TestWithParam<std::tuple<FaultKind, int>> {};

TEST_P(ChaosMatrix, DetectsRecoversAndKeepsTrajectory) {
  const auto [kind, workers] = GetParam();
  const BipartiteGraph g = TestGraph();

  FaultSchedule schedule;
  schedule.seed = 0xc4a05;
  const bool wire_fault = kind != FaultKind::kStallWorker &&
                          kind != FaultKind::kKillWorker;
  if (wire_fault) {
    // Epoch 2 is a steady delta-exchange epoch (epoch 0 bootstraps, epoch 1
    // seeds the link history a reorder replays); hit every link's first
    // delivery attempt.
    schedule.events.push_back({kind, /*epoch=*/2, -1, -1, /*attempt=*/0, 0});
  } else {
    // Worker faults target worker 0 (present at every width) at an
    // iteration boundary with live state.
    schedule.events.push_back(
        {kind, /*epoch=*/2, /*src=*/0, -1, 0,
         kind == FaultKind::kStallWorker ? uint64_t{5000} : uint64_t{0}});
  }

  const TwinRun run = RunTwins(g, workers, schedule, /*iterations=*/6);
  const auto& c = run.counters;

  if (wire_fault) {
    if (workers == 1) {
      // One worker = no remote links: nothing to inject, nothing detected.
      EXPECT_EQ(c.faults_detected, 0u);
      EXPECT_EQ(c.retransmits, 0u);
    } else {
      EXPECT_GT(c.faults_detected, 0u)
          << "an injected wire fault must be detected";
      if (kind == FaultKind::kDuplicateBuffer) {
        // The first copy is accepted; the duplicate is flagged and ignored —
        // no retransmission is needed.
        EXPECT_EQ(c.retransmits, 0u);
        EXPECT_EQ(c.reship_recoveries, 0u);
      } else {
        EXPECT_GT(c.retransmits, 0u)
            << "a damaged first attempt must trigger a retransmission";
        EXPECT_EQ(c.reship_recoveries, 0u)
            << "a single-attempt fault must recover on the retry, "
               "not the reship path";
      }
    }
  } else if (kind == FaultKind::kStallWorker) {
    EXPECT_GT(c.stalled_workers, 0u);
    // A straggler changes timing, never state: bit-exact trajectory.
    EXPECT_EQ(run.faulty_assignment, run.clean_assignment);
    bool saw_stall = false;
    for (const auto& s : run.stats) saw_stall |= s.stalled_workers > 0;
    EXPECT_TRUE(saw_stall);
  } else {  // kKillWorker
    EXPECT_GT(c.workers_recovered, 0u)
        << "the killed worker's replicas must be rebuilt";
    bool saw_recovery = false;
    for (const auto& s : run.stats) saw_recovery |= s.workers_recovered > 0;
    EXPECT_TRUE(saw_recovery);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAndWidths, ChaosMatrix,
    testing::Combine(testing::Values(FaultKind::kDropBuffer,
                                     FaultKind::kDuplicateBuffer,
                                     FaultKind::kReorderBuffer,
                                     FaultKind::kTruncateBuffer,
                                     FaultKind::kBitFlipBuffer,
                                     FaultKind::kStallWorker,
                                     FaultKind::kKillWorker),
                     testing::Values(1, 3, 8)));

// ---- beyond the matrix: retry exhaustion, degradation, self-heal ----

TEST(Chaos, ExhaustedRetriesFallBackToSameIterationReship) {
  // Drop every delivery attempt of epoch 2 (first + both retries): the link
  // protocol must give up, invalidate the replicas, and recover through the
  // bootstrap reship in the SAME iteration — trajectory unchanged.
  const BipartiteGraph g = TestGraph();
  FaultSchedule schedule;
  for (int attempt = 0; attempt < 3; ++attempt) {
    schedule.events.push_back(
        {FaultKind::kDropBuffer, /*epoch=*/2, -1, -1, attempt, 0});
  }
  const TwinRun run = RunTwins(g, /*workers=*/3, schedule, 6);
  EXPECT_GT(run.counters.faults_detected, 0u);
  EXPECT_GT(run.counters.retransmits, 0u);
  EXPECT_GT(run.counters.reship_recoveries, 0u)
      << "an unrecoverable link must fall into the reship path";
  EXPECT_GT(run.stats[2].reship_recoveries, 0u)
      << "recovery happens within the failed iteration, not the next one";
}

TEST(Chaos, RepeatedLinkFailuresDegradeToBackoffThenRecover) {
  // Two consecutive unrecoverable epochs (threshold) push the links into
  // backoff: the engine must report degraded links and run full-reship
  // bootstraps until the backoff expires, then return to delta exchange —
  // all without leaving the fault-free trajectory.
  const BipartiteGraph g = TestGraph();
  FaultSchedule schedule;
  for (uint64_t epoch = 2; epoch <= 3; ++epoch) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      schedule.events.push_back(
          {FaultKind::kDropBuffer, epoch, -1, -1, attempt, 0});
    }
  }
  BspConfig base;
  base.link_degrade_threshold = 2;
  base.link_backoff_epochs = 2;
  const TwinRun run =
      RunTwins(g, /*workers=*/3, schedule, /*iterations=*/10, -1, base);
  uint64_t degraded_iterations = 0;
  for (const auto& s : run.stats) {
    if (s.degraded_links > 0) ++degraded_iterations;
  }
  EXPECT_GT(degraded_iterations, 0u)
      << "repeated failures must degrade the links into backoff";
  EXPECT_GT(run.counters.reship_recoveries, 0u);
  // Recovery: the last iterations run clean again (backoff expired, links
  // resynced, no further faults scheduled).
  EXPECT_EQ(run.stats.back().degraded_links, 0u);
  EXPECT_EQ(run.stats.back().faults_detected, 0u);
}

// PR 3's external-mutation self-heal under concurrent wire faults: the
// recursive driver mutates the partition behind the refiner's back in the
// same round a buffer is dropped (all attempts). Both recovery mechanisms —
// the diff-scan resync and the reship fallback — must compose.
TEST(ChaosSelfHeal, ExternalMutationPlusDroppedBufferSameRound) {
  const BipartiteGraph g = TestGraph();
  FaultSchedule schedule;
  for (int attempt = 0; attempt < 3; ++attempt) {
    schedule.events.push_back(
        {FaultKind::kDropBuffer, /*epoch=*/3, -1, -1, attempt, 0});
  }
  const TwinRun run = RunTwins(g, /*workers=*/3, schedule, /*iterations=*/6,
                               /*mutate_at=*/3);
  EXPECT_GT(run.counters.faults_detected, 0u);
  EXPECT_GT(run.counters.reship_recoveries, 0u);
  EXPECT_TRUE(run.stats[3].full_rebuild)
      << "the external mutation must trigger the diff-scan self-heal";
}

TEST(Chaos, FaultFreeScheduleLeavesCountersZero) {
  // An engine with no schedule must never report fault activity — the
  // counters are the bench gate's evidence that fault-free runs take the
  // zero-overhead path.
  const BipartiteGraph g = TestGraph();
  const TwinRun run = RunTwins(g, 3, FaultSchedule{}, 4);
  EXPECT_EQ(run.counters.faults_detected, 0u);
  EXPECT_EQ(run.counters.retransmits, 0u);
  EXPECT_EQ(run.counters.reship_recoveries, 0u);
  EXPECT_EQ(run.counters.workers_recovered, 0u);
  EXPECT_EQ(run.counters.stalled_workers, 0u);
  EXPECT_EQ(run.faulty_assignment, run.clean_assignment)
      << "two identically seeded fault-free runs are bit-identical";
}

}  // namespace
}  // namespace shp
