// Online repartitioning under live traffic (paper §5(i), "Incremental
// partitioning ... the new assignment should be close to the original one,
// since changing a bucket causes data migration in the storage system").
//
// The serving loop closes the gap between the partitioner benchmarks
// (optimize a static assignment, then measure) and what §5 actually calls
// for: a cluster that keeps serving multiget traffic *while* the assignment
// improves. Each epoch:
//
//   1. `before` phase — replay traffic against the current serving
//      assignment and snapshot p50/p99/mean fanout-latency.
//   2. refine — run Algorithm 1 iterations against the *target* partition,
//      with the refiner's executed moves capped by the epoch's move budget
//      (RefinerInterface::SetMoveBudget). Every net move becomes a record
//      migration: the record enters a dual-read window where both its old
//      (serving) and new (target) location are contacted, a background
//      copier streams it over at a bounded records-per-request rate, and
//      the per-record cutover retires the old location once the copy lands.
//      Servers running copy streams charge an interference surcharge to
//      foreground requests, so migration cost is visible in the latency
//      percentiles, and every copied byte is accounted (migration_bytes).
//   3. `during` phase — replay while the copier drains; runs until the
//      migration queue is empty, so an epoch always ends settled.
//   4. `after` phase — replay against the settled new assignment.
//
// Replay hot path: a request that arrives while no copy is in flight is
// served from a per-query server profile (KvClusterSim::IssueSettled),
// rebuilt only when the serving assignment changed since it was built —
// about once per epoch, after the copier drains, and after kills. Only
// requests that arrive while copies are in flight take the gather+sort
// dual-read path. Both give the same draws and latencies bit for bit.
//
// Traffic scenarios: power-law skew (the Fig. 4b replay), hot-key (a small
// hot set absorbing a fixed mass), and diurnal shift (the popularity center
// rotates across epochs — the §5 case where yesterday's partition degrades
// and a bounded-budget repartition recovers it). A worker-kill scenario
// reuses the PR 7 fault semantics at serving level: a killed server's
// records are emergency-rehomed to the least-loaded live servers (restore
// copies ride the same dual-read machinery with the primary transiently
// unassigned) and the killed bucket's capacity drops to zero so refinement
// never routes records back to it.
//
// Checked invariants, enforced every query / epoch:
//   * a record is always serveable from at least one assignment
//     (KvClusterSim::IssueQueryDual per in-flight request and
//     ServerProfile::Refresh per settled assignment abort otherwise),
//   * executed moves per epoch never exceed the configured budget,
//   * the serving assignment equals the target partition at epoch end.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/refiner.h"
#include "sharding/kv_cluster.h"

namespace shp {

enum class TrafficScenario {
  kPowerLaw,  ///< static skew: q ∝ u^(1+skew) toward low ids
  kHotKey,    ///< hot set of hot_fraction·nq queries absorbs hot_mass
  kDiurnal,   ///< power-law whose center rotates by nq/diurnal_phases per epoch
};

/// Kill server `server` at the start of epoch `epoch` (before the `before`
/// phase), triggering emergency rehoming of its records.
struct ServerKillEvent {
  uint64_t epoch = 0;
  BucketId server = 0;
};

struct ServingLoopConfig {
  uint64_t num_epochs = 4;
  /// Queries replayed in the before / after phases (the during phase runs
  /// at least this long, extended until the migration queue drains).
  uint64_t requests_per_phase = 20000;
  /// Max executed (post-repair) refinement moves per epoch; 0 = unlimited.
  /// The §5(i) stability knob — bounds migration volume per epoch.
  uint64_t move_budget_per_epoch = 0;
  /// Refinement iterations attempted per epoch (stops early once the
  /// epoch's budget is exhausted).
  uint64_t iterations_per_epoch = 4;
  /// Balance slack for the move topology.
  double epsilon = 0.05;
  /// Cluster shape + latency model; cluster.num_servers is the partition k.
  KvClusterConfig cluster;
  RefinerOptions refine;
  /// Optional engine override (e.g. a BspRefiner factory); defaults to the
  /// threaded in-memory Refiner.
  RefinerFactory refiner_factory;

  TrafficScenario scenario = TrafficScenario::kPowerLaw;
  double popularity_skew = 0.8;
  /// kHotKey: fraction of queries forming the hot set, and the probability
  /// mass the hot set absorbs.
  double hot_fraction = 0.01;
  double hot_mass = 0.5;
  /// kDiurnal: epochs per full rotation of the popularity center.
  uint64_t diurnal_phases = 4;

  /// Copier rate: records copied over per replayed during-phase query.
  uint32_t copy_records_per_request = 4;
  /// Size of one record on the wire (migration_bytes accounting).
  uint64_t record_bytes = 512;
  /// Latency surcharge on every request to a server with ≥ 1 active copy
  /// stream (KvClusterSim dual-read interference).
  double migration_interference = 0.25;

  std::vector<ServerKillEvent> kill_events;
  uint64_t seed = 404;
};

/// Latency snapshot of one replay phase.
struct PhaseStats {
  uint64_t served = 0;            ///< queries with fanout ≥ 1
  uint64_t empty = 0;             ///< zero-fanout queries (counted, not dropped)
  uint64_t dual_read_queries = 0; ///< queries that touched a migrating record
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double average_fanout = 0.0;
};

struct EpochReport {
  PhaseStats before;
  PhaseStats during_migration;
  PhaseStats after;
  /// Executed refinement moves this epoch (tests assert ≤ budget).
  uint64_t executed_moves = 0;
  uint64_t refine_iterations = 0;
  uint64_t migrated_records = 0;
  uint64_t migration_bytes = 0;
  /// Records emergency-rehomed off a killed server this epoch.
  uint64_t recovered_records = 0;
};

struct ServingReport {
  std::vector<EpochReport> epochs;
  /// Whole-run aggregates: first epoch's before phase vs last epoch's after
  /// phase, and the worst during-migration p99 across epochs.
  double p99_start = 0.0;
  double p99_during_worst = 0.0;
  double p99_end = 0.0;
  uint64_t total_moves = 0;
  uint64_t total_migrated_records = 0;
  uint64_t total_migration_bytes = 0;
  uint64_t total_recovered_records = 0;
  uint64_t total_dual_read_queries = 0;
  /// Serveability checks performed (every record of every query in every
  /// phase; see MultiGetScratch) — all passed, or the run would have
  /// aborted.
  uint64_t serveability_checks = 0;
  /// Scratch growths across all replay phases (0 = the zero-allocation
  /// steady-state guarantee held).
  uint64_t scratch_grow_events = 0;
  /// Final serving assignment (== final target partition).
  std::vector<BucketId> final_assignment;
};

/// Drives the epoch loop described in the file comment. The graph must
/// outlive the loop.
class ServingLoop {
 public:
  ServingLoop(const BipartiteGraph& graph, const ServingLoopConfig& config);

  /// Runs all epochs and returns the full report. Call once.
  ServingReport Run();

  /// Records still queued for migration (0 outside Run / at epoch ends).
  uint64_t pending_migrations() const { return pending_migrations_; }

 private:
  // ---- migration state machine (see docs/serving.md) ----
  void StartMigration(VertexId v, BucketId target);
  void CancelMigration(VertexId v);
  /// Copies up to `budget` queued records (cutover on landing); stale
  /// cancelled queue entries are skipped for free.
  void AdvanceCopier(uint32_t budget, EpochReport* epoch);
  void AddStream(BucketId server);
  void RemoveStream(BucketId server);

  /// Diffs the target partition against the last-seen shadow and turns
  /// every net move into a migration (or cancel / retarget).
  void EnqueueRefinementMoves(EpochReport* epoch);

  /// Applies kill events scheduled for `epoch`: emergency-rehomes the dead
  /// server's records and zeroes its capacity in the move topology.
  void ApplyKills(uint64_t epoch, EpochReport* report);

  /// Samples one query id for the scenario at `epoch`.
  VertexId SampleQuery(uint64_t epoch);

  PhaseStats ReplayPhase(uint64_t min_requests, bool advance_copier,
                         uint64_t epoch, EpochReport* report);

  BucketId LeastLoadedLiveServer() const;
  void RebuildTopology();

  const BipartiteGraph& graph_;
  ServingLoopConfig config_;
  Partition partition_;            ///< target assignment the refiner drives
  KvClusterSim cluster_;           ///< serving state (primaries)
  std::unique_ptr<RefinerInterface> refiner_;
  MoveTopology topo_;
  Rng rng_;

  std::vector<BucketId> target_shadow_;  ///< partition as of last diff
  std::vector<BucketId> secondary_;      ///< copy target per record (-1 none)
  std::vector<BucketId> copy_src_;       ///< copy source per record (-1 none)
  std::vector<uint8_t> queued_;          ///< record has a queue entry
  std::vector<VertexId> queue_;          ///< FIFO copy queue
  size_t queue_head_ = 0;
  uint64_t pending_migrations_ = 0;      ///< live (non-cancelled) entries
  std::vector<int32_t> active_streams_;  ///< copy streams per server
  std::vector<uint8_t> dead_;            ///< killed servers
  std::vector<uint64_t> load_;           ///< rehoming scratch (ApplyKills)
  MultiGetScratch scratch_;
  ServerProfile profile_;                ///< settled replay (no copy in flight)
  std::vector<double> latencies_;        ///< per-phase sample buffer
  uint64_t refine_seed_ = 0;
  uint64_t iteration_counter_ = 0;
};

}  // namespace shp
