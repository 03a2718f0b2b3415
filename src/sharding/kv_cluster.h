// Fig. 4b experiment substrate: a simulated memory-backed key-value cluster
// ("40 servers storing a subset of the Facebook friendship graph ... one
// data record per user") serving multi-get queries under a given sharding.
//
// Each query's requests go to the distinct servers holding its records;
// a request's service time is a stochastic draw plus a per-record cost, so
// concentrating a query's records on few servers both lowers fanout and
// grows the largest request — the trade-off §5 discusses.
//
// Replay has two paths. While no copy is in flight the assignment is fixed,
// so each query's records-per-server profile is fixed too (the
// pin-count-per-block Φ(e, V_i) Mt-KaHyPar keeps per hyperedge): a
// ServerProfile holds it for every query, built once per assignment version,
// and IssueSettled serves a request from it without touching the adjacency.
// IssueQueryDual gathers and sorts the query's locations per request; the
// serving loop takes it only while copies are in flight.
//
// The dual path supports the serving loop's live-migration view
// (sharding/serving_loop.h): a record may have a secondary location while
// its copy is in flight (dual-read — both locations are contacted until the
// cutover), the primary may be transiently unassigned after a server kill
// (the restore copy then serves alone), and servers running copy streams
// charge a latency surcharge to foreground requests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "objective/neighbor_data.h"
#include "sharding/latency_model.h"

namespace shp {

struct KvClusterConfig {
  uint32_t num_servers = 40;
  LatencyModelConfig latency;
  /// Added service time per record fetched from one server.
  double per_record_cost = 0.02;
  uint64_t seed = 202;
};

/// Result of replaying one query.
struct QueryTrace {
  uint32_t fanout = 0;
  double latency = 0.0;
  /// Records read from two locations this query (dual-read path only) —
  /// the per-query migration tax the serving loop aggregates.
  uint32_t dual_records = 0;
};

/// Reusable per-caller (or per-thread) workspace for IssueQueryDual, plus the
/// counters both replay paths keep. Prepare() reserves for the worst case up
/// front, after which the dual path performs zero per-query allocations —
/// grow_events counts any capacity growth past Prepare (the regression
/// tests pin it at 0). IssueSettled touches only serveability_checks.
struct MultiGetScratch {
  std::vector<BucketId> servers;        ///< one entry per record location
  std::vector<BucketId> distinct;       ///< deduplicated contacted servers
  std::vector<uint32_t> records;        ///< records per contacted server
  std::vector<double> surcharges;       ///< per contacted server (dual path)
  uint64_t grow_events = 0;             ///< capacity growths since Prepare
  /// Records checked for a serving location: per record per request on the
  /// dual path; on the settled path the profile build checked every primary
  /// and each request adds its query's degree.
  uint64_t serveability_checks = 0;

  /// Reserves for the worst query of `graph`: a dual-read can contact two
  /// locations per record, so capacity is 2 × max query degree.
  void Prepare(const BipartiteGraph& graph);
};

/// Per-record migration overlay for IssueQueryDual, owned by the serving
/// loop; the cluster only reads it.
struct DualReadView {
  /// Secondary server per record (-1 = settled, serve the primary alone).
  /// Must outlive the call; size = num records.
  const BucketId* secondary = nullptr;
  /// Active copy streams per server (nullable = no interference modeled):
  /// any server with a nonzero count adds `interference` to its requests.
  const int32_t* copy_streams = nullptr;
  /// Latency surcharge per request to a server with an active copy stream.
  double interference = 0.0;
};

class KvClusterSim;

/// Settled per-query server profile of one graph under one assignment
/// version: a CSR over queries holding each query's record count per
/// contacted server, in ascending server order. Sized exactly — one pass
/// counts the distinct servers per query, a second fills the counts.
class ServerProfile {
 public:
  /// Rebuilds from `cluster`'s assignment unless already built at its
  /// current version; returns whether it rebuilt. Checked invariant
  /// (SHP_CHECK): every record of `graph` has a primary — a settled
  /// assignment serves every record from one location.
  bool Refresh(const BipartiteGraph& graph, const KvClusterSim& cluster);

  /// Assignment version built at (0 = never built).
  uint64_t version() const { return version_; }
  VertexId num_queries() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  /// Records per contacted server of query q, ascending server order; its
  /// size is q's fanout.
  std::span<const uint32_t> records(VertexId q) const {
    return {counts_.data() + offsets_[q], counts_.data() + offsets_[q + 1]};
  }

 private:
  std::vector<EdgeIndex> offsets_;  ///< num_queries + 1
  std::vector<uint32_t> counts_;
  uint64_t version_ = 0;
};

class KvClusterSim {
 public:
  /// `assignment` maps each data record (data vertex) to a server; values
  /// must be < config.num_servers.
  KvClusterSim(const KvClusterConfig& config,
               std::vector<BucketId> assignment);

  /// Settled replay of query q from `profile` (the replay hot path): one
  /// request per distinct server holding q's records, drawn in ascending
  /// server order. Gives the QueryTrace and Rng stream of IssueQueryDual
  /// under an empty view bit for bit — Debug re-issues every request
  /// through it on a copy of the Rng and checks. The profile must be built
  /// for `graph` at this cluster's current version (SHP_DCHECK).
  QueryTrace IssueSettled(const BipartiteGraph& graph,
                          const ServerProfile& profile, VertexId q, Rng* rng,
                          MultiGetScratch* scratch) const;

  /// Dual-read replay under live migration: each record is served from its
  /// primary (this cluster's assignment) and/or its secondary (the view) —
  /// both are contacted while a copy is in flight. Checked invariant: a
  /// record with neither a valid primary nor a valid secondary is a
  /// migration state-machine bug and aborts (SHP_CHECK), never a silent
  /// wrong answer; every check is counted into scratch->serveability_checks.
  QueryTrace IssueQueryDual(const BipartiteGraph& graph, VertexId q, Rng* rng,
                            const DualReadView& view,
                            MultiGetScratch* scratch) const;

  /// Re-homes one record (the serving loop's cutover / kill-purge edit) and
  /// bumps the assignment version, so every ServerProfile goes stale.
  /// -1 marks the primary unassigned — legal only while a DualReadView
  /// supplies a valid secondary for the record.
  void SetRecordServer(VertexId v, BucketId server);
  BucketId record_server(VertexId v) const { return assignment_[v]; }

  const KvClusterConfig& config() const { return config_; }
  const std::vector<BucketId>& assignment() const { return assignment_; }
  /// Identifies the current assignment: unique across all clusters of the
  /// process, renewed by every SetRecordServer.
  uint64_t version() const { return version_; }

 private:
  KvClusterConfig config_;
  std::vector<BucketId> assignment_;
  LatencyModel model_;
  uint64_t version_;
};

}  // namespace shp
