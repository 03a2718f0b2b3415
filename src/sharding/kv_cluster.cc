#include "sharding/kv_cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/logging.h"

namespace shp {
namespace {

// Process-wide, so a profile built from one cluster is stale for every
// other cluster too. Starts at 1: 0 marks a profile that was never built.
uint64_t NextAssignmentVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

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
      model_(config.latency),
      version_(NextAssignmentVersion()) {
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
  version_ = NextAssignmentVersion();
}

bool ServerProfile::Refresh(const BipartiteGraph& graph,
                            const KvClusterSim& cluster) {
  if (version_ == cluster.version()) return false;
  const VertexId nq = graph.num_queries();
  const std::vector<BucketId>& assignment = cluster.assignment();
  const size_t num_servers = cluster.config().num_servers;

  // Pass 1: distinct servers per query (last query seen per server), and
  // the serveability check of every record.
  std::vector<VertexId> seen(num_servers, nq);
  offsets_.resize(static_cast<size_t>(nq) + 1);
  offsets_[0] = 0;
  for (VertexId q = 0; q < nq; ++q) {
    EdgeIndex distinct = 0;
    for (VertexId v : graph.QueryNeighbors(q)) {
      const BucketId server = assignment[v];
      SHP_CHECK(server >= 0)
          << "record " << v << " has no primary in a settled assignment";
      if (seen[server] != q) {
        seen[server] = q;
        ++distinct;
      }
    }
    offsets_[q + 1] = offsets_[q] + distinct;
  }

  // Exact size: release the old table first so the two never coexist.
  counts_.clear();
  counts_.shrink_to_fit();
  counts_.resize(offsets_[nq]);

  // Pass 2: per-server counts, emitted in ascending server order by walking
  // a bitset of the servers the query touched.
  std::vector<uint32_t> per_server(num_servers, 0);
  std::vector<uint64_t> touched((num_servers + 63) / 64, 0);
  for (VertexId q = 0; q < nq; ++q) {
    for (VertexId v : graph.QueryNeighbors(q)) {
      const BucketId server = assignment[v];
      ++per_server[server];
      touched[server >> 6] |= uint64_t{1} << (server & 63);
    }
    uint32_t* out = counts_.data() + offsets_[q];
    for (size_t word = 0; word < touched.size(); ++word) {
      for (uint64_t bits = touched[word]; bits != 0; bits &= bits - 1) {
        const size_t server = word * 64 + std::countr_zero(bits);
        *out++ = per_server[server];
        per_server[server] = 0;
      }
      touched[word] = 0;
    }
  }
  version_ = cluster.version();
  return true;
}

QueryTrace KvClusterSim::IssueSettled(const BipartiteGraph& graph,
                                      const ServerProfile& profile,
                                      VertexId q, Rng* rng,
                                      MultiGetScratch* scratch) const {
  SHP_DCHECK(profile.version() == version_)
      << "server profile built at assignment version " << profile.version()
      << ", cluster is at " << version_;
  SHP_DCHECK(profile.num_queries() == graph.num_queries())
      << "server profile built for another graph";
#ifndef NDEBUG
  Rng oracle_rng = *rng;
#endif
  const std::span<const uint32_t> records = profile.records(q);
  scratch->serveability_checks += graph.QueryDegree(q);
  QueryTrace trace;
  trace.fanout = static_cast<uint32_t>(records.size());
  trace.latency = model_.SampleMultiGetSized(
      records.data(), trace.fanout, config_.per_record_cost, rng);
#ifndef NDEBUG
  // Oracle: the gather+sort path under an empty view makes the same draws
  // in the same order and adds a zero surcharge (x + 0.0 == x).
  MultiGetScratch oracle_scratch;
  const QueryTrace oracle =
      IssueQueryDual(graph, q, &oracle_rng, DualReadView{}, &oracle_scratch);
  SHP_DCHECK(oracle.fanout == trace.fanout &&
             oracle.latency == trace.latency && oracle.dual_records == 0 &&
             oracle_rng == *rng)
      << "settled replay of query " << q << " diverged from the dual path";
#endif
  return trace;
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
