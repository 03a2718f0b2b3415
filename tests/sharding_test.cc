// Storage-sharding simulator tests: latency model tail behavior, kv cluster
// semantics, traffic replay accounting, and the end-to-end claim that lower
// fanout means lower latency (Fig. 4 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/recursive.h"
#include "core/shp.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "sharding/kv_cluster.h"
#include "sharding/latency_model.h"
#include "sharding/multiget_sim.h"
#include "sharding/traffic_replay.h"

namespace shp {
namespace {

TEST(LatencyModel, MultiGetLatencyMonotoneInFanout) {
  // E[max of n draws] grows with n — the "tail at scale" effect.
  const LatencyModel model(LatencyModelConfig{});
  Rng rng(1);
  auto mean_at = [&](uint32_t fanout) {
    double total = 0;
    for (int i = 0; i < 5000; ++i) total += model.SampleMultiGet(fanout, &rng);
    return total / 5000;
  };
  const double f1 = mean_at(1);
  const double f5 = mean_at(5);
  const double f20 = mean_at(20);
  EXPECT_LT(f1, f5);
  EXPECT_LT(f5, f20);
}

TEST(LatencyModel, ZeroFanoutIsFree) {
  const LatencyModel model(LatencyModelConfig{});
  Rng rng(2);
  EXPECT_DOUBLE_EQ(model.SampleMultiGet(0, &rng), 0.0);
}

TEST(LatencyModel, AllDistributionsArePositive) {
  for (auto dist : {LatencyDistribution::kLognormal,
                    LatencyDistribution::kExponential,
                    LatencyDistribution::kPareto}) {
    LatencyModelConfig config;
    config.distribution = dist;
    const LatencyModel model(config);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_GT(model.SampleRequest(&rng), 0.0);
    }
  }
}

TEST(LatencyModel, SizedRequestsChargePerRecord) {
  LatencyModelConfig config;
  config.shape = 1e-6;  // nearly deterministic service time
  config.overhead = 0.0;
  const LatencyModel model(config);
  Rng rng(4);
  const uint32_t light[2] = {1, 1};
  const uint32_t heavy[2] = {100, 100};
  const double light_latency =
      model.SampleMultiGetSized(light, 2, 0.1, &rng);
  const double heavy_latency =
      model.SampleMultiGetSized(heavy, 2, 0.1, &rng);
  EXPECT_NEAR(heavy_latency - light_latency, 9.9, 0.5);
}

TEST(MultiGetSweep, PercentilesOrderedAndGrowing) {
  MultiGetSweepConfig config;
  config.max_fanout = 20;
  config.samples_per_fanout = 4000;
  const auto rows = RunMultiGetSweep(config);
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& row : rows) {
    EXPECT_LE(row.p50, row.p90);
    EXPECT_LE(row.p90, row.p95);
    EXPECT_LE(row.p95, row.p99);
  }
  EXPECT_LT(rows[0].mean, rows[19].mean);
  // Paper headline: fanout 40 vs 10 halves mean latency; at 20 vs 5 the
  // ratio is already well above 1.2.
  EXPECT_GT(rows[19].mean / rows[4].mean, 1.2);
}

TEST(KvCluster, FanoutEqualsDistinctServers) {
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1, 2, 3});
  const BipartiteGraph g = b.Build();
  KvClusterConfig config;
  config.num_servers = 3;
  const KvClusterSim cluster(config, {0, 0, 1, 2});
  ServerProfile profile;
  profile.Refresh(g, cluster);
  MultiGetScratch scratch;
  Rng rng(5);
  const QueryTrace trace = cluster.IssueSettled(g, profile, 0, &rng, &scratch);
  EXPECT_EQ(trace.fanout, 3u);
  EXPECT_GT(trace.latency, 0.0);
  // Records per contacted server, ascending server order.
  const std::span<const uint32_t> records = profile.records(0);
  EXPECT_EQ(std::vector<uint32_t>(records.begin(), records.end()),
            (std::vector<uint32_t>{2, 1, 1}));
}

TEST(KvCluster, FanoutBoundedByDegreeAndServerCount) {
  SocialGraphConfig social;
  social.num_users = 600;
  social.avg_degree = 12;
  const BipartiteGraph g = GenerateSocialGraph(social);
  KvClusterConfig config;
  config.num_servers = 4;
  const KvClusterSim cluster(
      config, Partition::Random(g.num_data(), 4, 7).assignment());
  Rng rng(6);
  ServerProfile profile;
  profile.Refresh(g, cluster);
  MultiGetScratch scratch;
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    const QueryTrace trace =
        cluster.IssueSettled(g, profile, q, &rng, &scratch);
    EXPECT_LE(trace.fanout,
              std::min<uint32_t>(g.QueryDegree(q), config.num_servers));
    EXPECT_GE(trace.fanout, g.QueryDegree(q) > 0 ? 1u : 0u);
  }
}

// Power-law queries plus zero-degree queries and one hub query holding every
// record (so it spans every server), for the settled-vs-dual comparison.
BipartiteGraph ProfileTestGraph() {
  PowerLawConfig power;
  power.num_queries = 1500;
  power.num_data = 1200;
  power.target_edges = 12000;
  power.seed = 5;
  const BipartiteGraph base = GeneratePowerLaw(power);
  const VertexId nq = base.num_queries();
  const VertexId nd = base.num_data();
  GraphBuilder b(nq + 3, nd);
  for (VertexId q = 0; q < nq; ++q) {
    const std::span<const VertexId> pins = base.QueryNeighbors(q);
    b.AddHyperedge(q, std::vector<VertexId>(pins.begin(), pins.end()));
  }
  // Queries nq and nq + 2 stay empty; nq + 1 is the hub.
  std::vector<VertexId> all(nd);
  for (VertexId v = 0; v < nd; ++v) all[v] = v;
  b.AddHyperedge(nq + 1, all);
  GraphBuilder::Options keep_all;
  keep_all.drop_trivial_queries = false;
  keep_all.compact_queries = false;
  return b.Build(keep_all);
}

// Every query through both paths on one continuing pair of streams: the
// traces must match bit for bit and the Rngs stay in the same state. Neither
// path grows its scratch (the dual path's is prepared).
void ExpectSettledMatchesDual(const BipartiteGraph& g,
                              const KvClusterSim& cluster,
                              const ServerProfile& profile, uint64_t seed) {
  Rng settled_rng(seed), dual_rng(seed);
  MultiGetScratch settled_scratch, dual_scratch;
  dual_scratch.Prepare(g);
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    const QueryTrace settled =
        cluster.IssueSettled(g, profile, q, &settled_rng, &settled_scratch);
    const QueryTrace dual =
        cluster.IssueQueryDual(g, q, &dual_rng, DualReadView{}, &dual_scratch);
    ASSERT_EQ(settled.fanout, dual.fanout) << "query " << q;
    ASSERT_EQ(settled.latency, dual.latency) << "query " << q;
    ASSERT_EQ(settled.dual_records, dual.dual_records) << "query " << q;
    ASSERT_TRUE(settled_rng == dual_rng) << "query " << q;
  }
  EXPECT_EQ(settled_scratch.serveability_checks,
            dual_scratch.serveability_checks);
  EXPECT_EQ(settled_scratch.serveability_checks, g.num_edges());
  EXPECT_EQ(settled_scratch.grow_events, 0u);
  EXPECT_EQ(dual_scratch.grow_events, 0u);
}

TEST(KvCluster, SettledProfileMatchesDualRead) {
  const BipartiteGraph g = ProfileTestGraph();
  const VertexId hub = g.num_queries() - 2;
  ASSERT_EQ(g.QueryDegree(hub), g.num_data());
  ASSERT_EQ(g.QueryDegree(hub - 1), 0u);
  ASSERT_EQ(g.QueryDegree(hub + 1), 0u);
  for (uint32_t servers : {2u, 24u, 64u}) {
    SCOPED_TRACE(servers);
    KvClusterConfig config;
    config.num_servers = servers;
    KvClusterSim cluster(
        config, Partition::BalancedRandom(g.num_data(),
                                          static_cast<BucketId>(servers), 17)
                    .assignment());
    ServerProfile profile;
    EXPECT_EQ(profile.version(), 0u);
    EXPECT_TRUE(profile.Refresh(g, cluster));
    EXPECT_FALSE(profile.Refresh(g, cluster));  // same version: kept
    EXPECT_EQ(profile.version(), cluster.version());
    EXPECT_EQ(profile.records(hub).size(), servers);
    EXPECT_TRUE(profile.records(hub - 1).empty());
    ExpectSettledMatchesDual(g, cluster, profile, 900 + servers);

    // Re-homing one record makes the profile stale; the rebuild moves one
    // record of the hub from its old server to the new one.
    const VertexId v = 0;
    const BucketId from = cluster.record_server(v);
    const BucketId to = (from + 1) % static_cast<BucketId>(servers);
    const uint32_t from_before = profile.records(hub)[from];
    const uint32_t to_before = profile.records(hub)[to];
    const uint64_t old_version = profile.version();
    cluster.SetRecordServer(v, to);
    EXPECT_NE(cluster.version(), old_version);
    EXPECT_TRUE(profile.Refresh(g, cluster));
    EXPECT_EQ(profile.version(), cluster.version());
    ASSERT_EQ(profile.records(hub).size(), servers);
    EXPECT_EQ(profile.records(hub)[from], from_before - 1);
    EXPECT_EQ(profile.records(hub)[to], to_before + 1);
    ExpectSettledMatchesDual(g, cluster, profile, 1900 + servers);
  }
}

TEST(KvCluster, StaleProfileFailsDebugCheck) {
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1, 2, 3});
  const BipartiteGraph g = b.Build();
  KvClusterConfig config;
  config.num_servers = 3;
  KvClusterSim cluster(config, {0, 0, 1, 2});
  ServerProfile profile;
  profile.Refresh(g, cluster);
  cluster.SetRecordServer(3, 1);
  // A profile built from another cluster at the same assignment is stale
  // too: versions are unique across clusters.
  const KvClusterSim twin(config, {0, 0, 1, 2});
  ServerProfile twin_profile;
  twin_profile.Refresh(g, twin);
  MultiGetScratch scratch;
  Rng rng(9);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEBUG_DEATH(cluster.IssueSettled(g, profile, 0, &rng, &scratch),
                     "server profile built at assignment version");
  EXPECT_DEBUG_DEATH(cluster.IssueSettled(g, twin_profile, 0, &rng, &scratch),
                     "server profile built at assignment version");
}

TEST(KvCluster, DualReadContactsBothLocations) {
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1});
  const BipartiteGraph g = b.Build();
  KvClusterConfig config;
  config.num_servers = 3;
  KvClusterSim cluster(config, {0, 0});
  MultiGetScratch scratch;
  scratch.Prepare(g);
  // Record 1 is migrating from server 0 to server 2: the query must fan out
  // to both and report one dual-read record.
  const std::vector<BucketId> secondary = {-1, 2};
  DualReadView view;
  view.secondary = secondary.data();
  Rng rng(7);
  const QueryTrace trace = cluster.IssueQueryDual(g, 0, &rng, view, &scratch);
  EXPECT_EQ(trace.fanout, 2u);
  EXPECT_EQ(trace.dual_records, 1u);
  EXPECT_EQ(scratch.serveability_checks, 2u);

  // After the cutover the secondary alone serves: primary unassigned is
  // legal while the view still names a live home.
  cluster.SetRecordServer(1, -1);
  const std::vector<BucketId> restore = {-1, 2};
  view.secondary = restore.data();
  const QueryTrace after = cluster.IssueQueryDual(g, 0, &rng, view, &scratch);
  EXPECT_EQ(after.fanout, 2u);  // server 0 (record 0) + server 2 (record 1)
  EXPECT_EQ(after.dual_records, 0u);
}

TEST(KvCluster, MigrationInterferenceRaisesLatency) {
  GraphBuilder b;
  b.AddHyperedge(0, {0, 1});
  const BipartiteGraph g = b.Build();
  KvClusterConfig config;
  config.num_servers = 2;
  config.latency.shape = 1e-6;  // nearly deterministic service time
  const KvClusterSim cluster(config, {0, 1});
  MultiGetScratch scratch;
  scratch.Prepare(g);
  const std::vector<BucketId> secondary = {-1, -1};
  const std::vector<int32_t> idle = {0, 0};
  const std::vector<int32_t> streaming = {1, 0};
  DualReadView view;
  view.secondary = secondary.data();
  view.interference = 5.0;
  view.copy_streams = idle.data();
  Rng rng_a(8), rng_b(8);
  const QueryTrace quiet = cluster.IssueQueryDual(g, 0, &rng_a, view, &scratch);
  view.copy_streams = streaming.data();
  const QueryTrace busy = cluster.IssueQueryDual(g, 0, &rng_b, view, &scratch);
  EXPECT_NEAR(busy.latency - quiet.latency, 5.0, 1.0);
}

TEST(Replay, CountsAndAveragesConsistent) {
  SocialGraphConfig social;
  social.num_users = 800;
  social.avg_degree = 10;
  const BipartiteGraph g = GenerateSocialGraph(social);
  KvClusterConfig config;
  config.num_servers = 10;
  const auto assignment =
      Partition::Random(g.num_data(), 10, 3).assignment();
  const KvClusterSim cluster(config, assignment);
  ReplayConfig replay;
  replay.num_requests = 20000;
  const ReplayReport report = ReplayTraffic(g, cluster, replay);
  // Documented denominator: every issued request is either served (counted
  // in exactly one fanout bucket) or empty — nothing silently dropped.
  uint64_t total = 0;
  for (uint64_t c : report.count_by_fanout) total += c;
  EXPECT_EQ(total + report.empty_queries, replay.num_requests);
  EXPECT_GT(report.average_fanout, 1.0);
  EXPECT_GT(report.average_latency, 0.0);
}

TEST(Replay, EmptyQueriesCountedNotDropped) {
  // Query 2 is isolated (degree 0): with trivial-query dropping disabled it
  // survives into the graph and replays as an empty query.
  GraphBuilder b(/*num_queries=*/3, /*num_data=*/4);
  b.AddHyperedge(0, {0, 1});
  b.AddHyperedge(1, {2, 3});
  GraphBuilder::Options keep_all;
  keep_all.drop_trivial_queries = false;
  keep_all.compact_queries = false;
  const BipartiteGraph g = b.Build(keep_all);
  ASSERT_EQ(g.num_queries(), 3);
  KvClusterConfig config;
  config.num_servers = 2;
  const KvClusterSim cluster(config, {0, 0, 1, 1});
  ReplayConfig replay;
  replay.num_requests = 9000;
  replay.popularity_skew = 0.0;  // uniform: the isolated query gets traffic
  const ReplayReport report = ReplayTraffic(g, cluster, replay);
  EXPECT_GT(report.empty_queries, 0u);
  uint64_t served = 0;
  for (uint64_t c : report.count_by_fanout) served += c;
  EXPECT_EQ(served + report.empty_queries, replay.num_requests);
  // Latency averages are over served queries only.
  EXPECT_GT(report.average_latency, 0.0);
}

TEST(Replay, DeterministicInSeed) {
  SocialGraphConfig social;
  social.num_users = 500;
  social.avg_degree = 8;
  const BipartiteGraph g = GenerateSocialGraph(social);
  KvClusterConfig config;
  config.num_servers = 6;
  const KvClusterSim cluster(
      config, Partition::Random(g.num_data(), 6, 11).assignment());
  ReplayConfig replay;
  replay.num_requests = 15000;
  replay.seed = 1234;
  const ReplayReport a = ReplayTraffic(g, cluster, replay);
  const ReplayReport b = ReplayTraffic(g, cluster, replay);
  EXPECT_EQ(a.count_by_fanout, b.count_by_fanout);
  EXPECT_EQ(a.empty_queries, b.empty_queries);
  EXPECT_DOUBLE_EQ(a.average_latency, b.average_latency);
  EXPECT_DOUBLE_EQ(a.average_fanout, b.average_fanout);
  for (size_t f = 0; f < a.p99_latency_by_fanout.size(); ++f) {
    EXPECT_DOUBLE_EQ(a.p99_latency_by_fanout[f], b.p99_latency_by_fanout[f]);
  }
  // A different seed samples different traffic.
  replay.seed = 4321;
  const ReplayReport c = ReplayTraffic(g, cluster, replay);
  EXPECT_NE(a.count_by_fanout, c.count_by_fanout);
}

TEST(Replay, ShpShardingBeatsRandomEndToEnd) {
  // The Fig. 4b headline: SHP sharding produces both lower fanout and lower
  // average latency than random sharding on the same traffic.
  SocialGraphConfig social;
  social.num_users = 2000;
  social.avg_degree = 16;
  const BipartiteGraph g = GenerateSocialGraph(social);

  RecursiveOptions options;
  options.k = 16;
  const auto shp_assignment = RecursivePartitioner(options).Run(g).assignment;
  const auto random_assignment =
      Partition::Random(g.num_data(), 16, 9).assignment();

  KvClusterConfig config;
  config.num_servers = 16;
  ReplayConfig replay;
  replay.num_requests = 30000;
  const ReplayReport shp_report =
      ReplayTraffic(g, KvClusterSim(config, shp_assignment), replay);
  const ReplayReport random_report =
      ReplayTraffic(g, KvClusterSim(config, random_assignment), replay);

  EXPECT_LT(shp_report.average_fanout, random_report.average_fanout * 0.85);
  EXPECT_LT(shp_report.average_latency, random_report.average_latency);
}

TEST(Replay, LatencyIncreasesWithObservedFanout) {
  SocialGraphConfig social;
  social.num_users = 1500;
  social.avg_degree = 14;
  const BipartiteGraph g = GenerateSocialGraph(social);
  KvClusterConfig config;
  config.num_servers = 12;
  const auto assignment =
      Partition::Random(g.num_data(), 12, 1).assignment();
  ReplayConfig replay;
  replay.num_requests = 40000;
  const ReplayReport report =
      ReplayTraffic(g, KvClusterSim(config, assignment), replay);
  // Compare a low and a high fanout bucket that both have mass.
  int low = -1, high = -1;
  for (size_t f = 1; f < report.count_by_fanout.size(); ++f) {
    if (report.count_by_fanout[f] > 200) {
      if (low == -1) low = static_cast<int>(f);
      high = static_cast<int>(f);
    }
  }
  ASSERT_NE(low, -1);
  ASSERT_GT(high, low);
  EXPECT_LT(report.mean_latency_by_fanout[static_cast<size_t>(low)],
            report.mean_latency_by_fanout[static_cast<size_t>(high)]);
}

}  // namespace
}  // namespace shp
