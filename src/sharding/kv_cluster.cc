#include "sharding/kv_cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace shp {
namespace {

// Appends `value` without ever reallocating in steady state: Prepare()
// reserved worst-case capacity, so a growth here means the reservation was
// wrong — counted so the zero-allocation regression test can pin it at 0.
template <typename T>
void PushCounted(std::vector<T>* vec, T value, uint64_t* grow_events) {
  if (vec->size() == vec->capacity()) ++(*grow_events);
  vec->push_back(value);
}

}  // namespace

void MultiGetScratch::Prepare(const BipartiteGraph& graph) {
  // Worst case: every record of the largest query is mid-migration, so it
  // contributes two locations (primary + secondary).
  const size_t cap = 2 * static_cast<size_t>(graph.MaxQueryDegree());
  servers.reserve(cap);
  distinct.reserve(cap);
  records.reserve(cap);
  surcharges.reserve(cap);
  grow_events = 0;
  serveability_checks = 0;
}

KvClusterSim::KvClusterSim(const KvClusterConfig& config,
                           std::vector<BucketId> assignment)
    : config_(config),
      assignment_(std::move(assignment)),
      model_(config.latency) {
  for (BucketId b : assignment_) {
    SHP_CHECK(b >= 0 && b < static_cast<BucketId>(config.num_servers))
        << "record assigned to nonexistent server";
  }
}

void KvClusterSim::SetRecordServer(VertexId v, BucketId server) {
  SHP_CHECK(static_cast<size_t>(v) < assignment_.size())
      << "record id out of range";
  SHP_CHECK(server >= -1 && server < static_cast<BucketId>(config_.num_servers))
      << "record rehomed to nonexistent server";
  assignment_[v] = server;
}

QueryTrace KvClusterSim::IssueQuery(const BipartiteGraph& graph, VertexId q,
                                    Rng* rng, MultiGetScratch* scratch) const {
  scratch->servers.clear();
  for (VertexId v : graph.QueryNeighbors(q)) {
    PushCounted(&scratch->servers, assignment_[v], &scratch->grow_events);
  }
  std::sort(scratch->servers.begin(), scratch->servers.end());

  // Run-length encode: records per contacted server.
  scratch->records.clear();
  const std::vector<BucketId>& servers = scratch->servers;
  for (size_t i = 0; i < servers.size();) {
    size_t j = i;
    while (j < servers.size() && servers[j] == servers[i]) ++j;
    PushCounted(&scratch->records, static_cast<uint32_t>(j - i),
                &scratch->grow_events);
    i = j;
  }

  QueryTrace trace;
  trace.fanout = static_cast<uint32_t>(scratch->records.size());
  trace.latency = model_.SampleMultiGetSized(
      scratch->records.data(), trace.fanout, config_.per_record_cost, rng);
  return trace;
}

QueryTrace KvClusterSim::IssueQuery(const BipartiteGraph& graph, VertexId q,
                                    Rng* rng) const {
  MultiGetScratch scratch;
  return IssueQuery(graph, q, rng, &scratch);
}

QueryTrace KvClusterSim::IssueQueryDual(const BipartiteGraph& graph,
                                        VertexId q, Rng* rng,
                                        const DualReadView& view,
                                        MultiGetScratch* scratch) const {
  scratch->servers.clear();
  uint32_t dual_records = 0;
  for (VertexId v : graph.QueryNeighbors(q)) {
    const BucketId primary = assignment_[v];
    const BucketId secondary =
        view.secondary != nullptr ? view.secondary[v] : BucketId{-1};
    // The migration state machine must never leave a record with no home:
    // settled records have a primary, in-flight records have at least the
    // copy target, and a killed primary is only cleared once the restore
    // copy can serve. Anything else is a bug worth crashing on.
    ++scratch->serveability_checks;
    SHP_CHECK(primary >= 0 || secondary >= 0)
        << "record " << v << " serveable from neither assignment";
    if (primary >= 0) {
      PushCounted(&scratch->servers, primary, &scratch->grow_events);
    }
    if (secondary >= 0 && secondary != primary) {
      PushCounted(&scratch->servers, secondary, &scratch->grow_events);
      if (primary >= 0) ++dual_records;
    }
  }
  std::sort(scratch->servers.begin(), scratch->servers.end());

  scratch->distinct.clear();
  scratch->records.clear();
  scratch->surcharges.clear();
  const std::vector<BucketId>& servers = scratch->servers;
  for (size_t i = 0; i < servers.size();) {
    size_t j = i;
    while (j < servers.size() && servers[j] == servers[i]) ++j;
    const BucketId server = servers[i];
    PushCounted(&scratch->distinct, server, &scratch->grow_events);
    PushCounted(&scratch->records, static_cast<uint32_t>(j - i),
                &scratch->grow_events);
    const bool streaming =
        view.copy_streams != nullptr && view.copy_streams[server] > 0;
    PushCounted(&scratch->surcharges, streaming ? view.interference : 0.0,
                &scratch->grow_events);
    i = j;
  }

  QueryTrace trace;
  trace.fanout = static_cast<uint32_t>(scratch->records.size());
  trace.dual_records = dual_records;
  trace.latency = model_.SampleMultiGetSizedSurcharged(
      scratch->records.data(), scratch->surcharges.data(), trace.fanout,
      config_.per_record_cost, rng);
  return trace;
}

}  // namespace shp
