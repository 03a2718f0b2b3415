// Serving-loop tests: bounded-budget epochs, dual-read migration, the
// worker-kill restore path, and determinism of the whole loop
// (sharding/serving_loop.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/shp_bsp.h"
#include "graph/gen_powerlaw.h"
#include "sharding/serving_loop.h"

namespace shp {
namespace {

BipartiteGraph TestGraph() {
  PowerLawConfig config;
  config.num_queries = 4000;
  config.num_data = 3000;
  config.target_edges = 26000;
  config.seed = 21;
  return GeneratePowerLaw(config);
}

ServingLoopConfig TestConfig() {
  ServingLoopConfig config;
  config.num_epochs = 2;
  config.requests_per_phase = 3000;
  config.iterations_per_epoch = 4;
  config.move_budget_per_epoch = 400;
  config.cluster.num_servers = 8;
  config.seed = 99;
  return config;
}

TEST(ServingLoop, MovesPerEpochRespectBudget) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.move_budget_per_epoch = 150;  // tight: the refiner wants far more
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  ASSERT_EQ(report.epochs.size(), config.num_epochs);
  for (const EpochReport& epoch : report.epochs) {
    EXPECT_LE(epoch.executed_moves, config.move_budget_per_epoch);
    // The tight budget binds: the refiner uses everything it is given.
    EXPECT_GT(epoch.executed_moves, 0u);
  }
  EXPECT_EQ(loop.pending_migrations(), 0u);
}

TEST(ServingLoop, SkewedTrafficP99ImprovesAcrossRun) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.scenario = TrafficScenario::kPowerLaw;
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  // The whole point of repartitioning online: the settled post-repartition
  // tail beats the random-assignment starting point.
  EXPECT_LT(report.p99_end, report.p99_start);
  // Fanout drops too (the latency win is not a sampling artifact).
  EXPECT_LT(report.epochs.back().after.average_fanout,
            report.epochs.front().before.average_fanout);
}

TEST(ServingLoop, DeterministicInSeed) {
  const BipartiteGraph graph = TestGraph();
  const ServingLoopConfig config = TestConfig();
  ServingLoop a(graph, config);
  ServingLoop b(graph, config);
  const ServingReport ra = a.Run();
  const ServingReport rb = b.Run();
  ASSERT_EQ(ra.epochs.size(), rb.epochs.size());
  for (size_t e = 0; e < ra.epochs.size(); ++e) {
    EXPECT_EQ(ra.epochs[e].executed_moves, rb.epochs[e].executed_moves);
    EXPECT_EQ(ra.epochs[e].migrated_records, rb.epochs[e].migrated_records);
    EXPECT_DOUBLE_EQ(ra.epochs[e].before.p99, rb.epochs[e].before.p99);
    EXPECT_DOUBLE_EQ(ra.epochs[e].during_migration.p99,
                     rb.epochs[e].during_migration.p99);
    EXPECT_DOUBLE_EQ(ra.epochs[e].after.p99, rb.epochs[e].after.p99);
  }
  EXPECT_EQ(ra.final_assignment, rb.final_assignment);
  EXPECT_EQ(ra.total_migration_bytes, rb.total_migration_bytes);
}

TEST(ServingLoop, MigrationAccountingConsistent) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.record_bytes = 768;
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  EXPECT_GT(report.total_migrated_records, 0u);
  EXPECT_EQ(report.total_migration_bytes,
            report.total_migrated_records * config.record_bytes);
  // Dual reads happened while copies were in flight, and every one of them
  // went through the serveability invariant.
  EXPECT_GT(report.total_dual_read_queries, 0u);
  EXPECT_GT(report.serveability_checks, 0u);
  // Steady-state replay never grew the multiget scratch.
  EXPECT_EQ(report.scratch_grow_events, 0u);
}

TEST(ServingLoop, WorkerKillRehomesAndKeepsServing) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.num_epochs = 3;
  const BucketId killed = 2;
  config.kill_events = {{/*epoch=*/1, killed}};
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  // The kill epoch rehomed every record the dead server held.
  EXPECT_GT(report.epochs[1].recovered_records, 0u);
  // No record ends up on the dead server, and every record has a home.
  for (BucketId b : report.final_assignment) {
    EXPECT_GE(b, 0);
    EXPECT_NE(b, killed);
  }
  // Dual-read serveability held throughout (the loop aborts otherwise; the
  // counter proves the checked path actually ran during the kill epoch).
  EXPECT_GT(report.serveability_checks, 0u);
  EXPECT_EQ(loop.pending_migrations(), 0u);
}

TEST(ServingLoop, KillEpochStillRespectsBudget) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.num_epochs = 3;
  config.move_budget_per_epoch = 200;
  config.kill_events = {{/*epoch=*/1, /*server=*/0}};
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  for (const EpochReport& epoch : report.epochs) {
    // Emergency restores are not refinement moves; the refiner's budget
    // still binds in the kill epoch.
    EXPECT_LE(epoch.executed_moves, config.move_budget_per_epoch);
  }
}

TEST(ServingLoop, BspEngineDropsIn) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.refiner_factory = [](const BipartiteGraph& g,
                              const RefinerOptions& options) {
    BspConfig bsp;
    bsp.num_workers = 2;
    return std::unique_ptr<RefinerInterface>(
        new BspRefiner(g, options, bsp));
  };
  ServingLoop loop(graph, config);
  const ServingReport report = loop.Run();
  for (const EpochReport& epoch : report.epochs) {
    EXPECT_LE(epoch.executed_moves, config.move_budget_per_epoch);
  }
  EXPECT_LT(report.p99_end, report.p99_start);
}

// Exact per-phase statistics of two whole runs, pinned bit for bit: the
// replay paths (settled profile between migrations, dual-read while copies
// are in flight) must reproduce these draws and latencies exactly. Rows are
// {served, empty, dual_read_queries, p50, p99, mean, average_fanout} for
// each epoch's before, during and after phase.
struct GoldenPhase {
  uint64_t served, empty, dual_read_queries;
  double p50, p99, mean, average_fanout;
};

void ExpectGolden(const ServingReport& report,
                  const std::vector<GoldenPhase>& golden,
                  uint64_t serveability_checks) {
  ASSERT_EQ(report.epochs.size() * 3, golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    const EpochReport& epoch = report.epochs[i / 3];
    const PhaseStats& got = i % 3 == 0   ? epoch.before
                            : i % 3 == 1 ? epoch.during_migration
                                         : epoch.after;
    const GoldenPhase& want = golden[i];
    SCOPED_TRACE(::testing::Message() << "epoch " << i / 3 << " phase "
                                      << i % 3);
    EXPECT_EQ(got.served, want.served);
    EXPECT_EQ(got.empty, want.empty);
    EXPECT_EQ(got.dual_read_queries, want.dual_read_queries);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.average_fanout, want.average_fanout);
  }
  EXPECT_EQ(report.serveability_checks, serveability_checks);
}

TEST(ServingLoop, GoldenPowerLawPhases) {
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.scenario = TrafficScenario::kPowerLaw;
  ServingLoop loop(graph, config);
  const std::vector<GoldenPhase> golden = {
      {3000, 0, 0, 0x1.1ffb86fed6f41p+1, 0x1.f01d466e95e6p+3,
       0x1.93a0e1e4a2fcdp+1, 0x1.9333333333333p+1},
      {3000, 0, 24, 0x1.1a60a464a4f6bp+1, 0x1.f8e740d3f12edp+3,
       0x1.8cf9167258e65p+1, 0x1.83b645a1cac08p+1},
      {3000, 0, 0, 0x1.13362d74d4626p+1, 0x1.caa456f396447p+3,
       0x1.810bbe54e3dc1p+1, 0x1.8083126e978d5p+1},
      {3000, 0, 0, 0x1.0d69dbe7daf2ap+1, 0x1.b97e44e1e0265p+3,
       0x1.7a1671a21f96bp+1, 0x1.7fea27983c132p+1},
      {3000, 0, 1, 0x1.1b076aefe90f6p+1, 0x1.c5286493c7d09p+3,
       0x1.820e41c60ac12p+1, 0x1.74bc6a7ef9db2p+1},
      {3000, 0, 0, 0x1.09397181a4df4p+1, 0x1.ceb11113c2879p+3,
       0x1.7be83d11c9aeep+1, 0x1.70624dd2f1aap+1},
  };
  ExpectGolden(loop.Run(), golden, /*serveability_checks=*/126913u);
}

TEST(ServingLoop, GoldenHotKeyWithKillPhases) {
  // The kill epoch's before phase runs entirely on the dual-read path
  // (restore copies pending); its during phase switches to the settled
  // profile once the copier drains.
  const BipartiteGraph graph = TestGraph();
  ServingLoopConfig config = TestConfig();
  config.scenario = TrafficScenario::kHotKey;
  config.num_epochs = 3;
  config.kill_events = {{/*epoch=*/1, /*server=*/2}};
  ServingLoop loop(graph, config);
  const std::vector<GoldenPhase> golden = {
      {3000, 0, 0, 0x1.1152579ff9e11p+1, 0x1.f1f551fd39eb4p+3,
       0x1.8498aad0336f3p+1, 0x1.6f1a9fbe76c8bp+1},
      {3000, 0, 24, 0x1.0ffbd93e35cbp+1, 0x1.cd4bd8a18e971p+3,
       0x1.76ec9222771b6p+1, 0x1.606d3a06d3a07p+1},
      {3000, 0, 0, 0x1.04fd4eafe77f5p+1, 0x1.d4fdc3b7a9914p+3,
       0x1.719a1898d70e7p+1, 0x1.5e60f04c756b3p+1},
      {3000, 0, 0, 0x1.2b2a1468fc51ep+1, 0x1.d8998ee61e7ep+3,
       0x1.996d4084f279ep+1, 0x1.5ced916872b02p+1},
      {3000, 0, 34, 0x1.ff7dff70c7ecep+0, 0x1.ca0ac0702189p+3,
       0x1.66280d6ab41b4p+1, 0x1.40b9af72015d8p+1},
      {3000, 0, 0, 0x1.03e7328f3698cp+1, 0x1.e488798f4b9dap+3,
       0x1.6e92128204afp+1, 0x1.3f0fb38a94d24p+1},
      {3000, 0, 0, 0x1.f02e4c12a1644p+0, 0x1.8977f331a7d6fp+3,
       0x1.5fb3ec8ee7dd4p+1, 0x1.3f513cc1e098fp+1},
      {3000, 0, 1, 0x1.fee605c761e18p+0, 0x1.b2b3d2a064cc1p+3,
       0x1.629124d842f4ap+1, 0x1.335ee402bb0dp+1},
      {3000, 0, 0, 0x1.f1b0f677d4b06p+0, 0x1.d45b3c0f2cc82p+3,
       0x1.64f0aaee01675p+1, 0x1.33ece2a53490cp+1},
  };
  ExpectGolden(loop.Run(), golden, /*serveability_checks=*/137634u);
}

}  // namespace
}  // namespace shp
