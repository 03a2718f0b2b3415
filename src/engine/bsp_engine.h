// Minimal BSP (Pregel/Giraph-style) execution scaffolding for the simulated
// cluster: worker sharding, superstep phases with barriers, and per-superstep
// accounting (paper §3.2 Fig. 3).
//
// A "phase" is a function executed once per worker, in parallel; the call
// returns when all workers finish — that return is the synchronization
// barrier. Phases also report abstract work units (loop operations), which
// the CostModel converts into simulated machine time independently of host
// scheduling noise.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/message_router.h"
#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

struct BspConfig {
  int num_workers = 4;  ///< simulated machines (paper's experiments use 4-16)
  uint64_t shard_seed = 0x5ca1ab1e;  ///< vertex -> worker hashing seed

  // Fault-tolerant superstep protocol (docs/distributed.md). Superstep-2
  // delta records always cross the wire in the grouped varint codec inside
  // the self-verifying envelope (engine/wire_format.h); these knobs bound
  // the link protocol's retries and backoff.
  /// Retransmissions per (src, dst) link per epoch after the first delivery
  /// attempt; 1 + max_link_retries failed attempts declare the link failed
  /// for this epoch.
  int max_link_retries = 2;
  /// Consecutive failed epochs on a link before it degrades to backoff.
  int link_degrade_threshold = 2;
  /// Initial backoff length in epochs for a degraded link; doubles per
  /// further failure up to link_backoff_max. While any link is backing off,
  /// the engine runs full-reship bootstraps instead of delta exchange.
  int link_backoff_epochs = 2;
  int link_backoff_max = 16;
  /// Declarative fault schedule driving the deterministic FaultInjector;
  /// nullptr = fault-free (zero-overhead in the hot loop). Not owned; must
  /// outlive the refiner.
  const FaultSchedule* fault_schedule = nullptr;

  // Epoch checkpointing (engine/checkpoint.h).
  /// Directory for epoch checkpoints; empty = checkpointing off.
  std::string checkpoint_dir;
  /// Write a checkpoint every N epochs (only when checkpoint_dir is set).
  int checkpoint_interval = 1;
  /// Checkpoints retained on disk (older ones pruned).
  int checkpoint_keep = 2;

  /// Epoch-boundary hook: invoked after every completed iteration (all four
  /// supersteps done, moves executed and repaired, checkpoint written if
  /// due) with the engine's epoch id and the round's post-repair executed
  /// move count. The serving loop hangs its migration bookkeeping and
  /// budget accounting off this boundary; it runs on the driver thread, so
  /// callbacks may inspect the partition the caller passed to RunIteration.
  std::function<void(uint64_t epoch, uint64_t executed_moves)> on_epoch_end;
};

/// Accounting for one executed superstep.
struct SuperstepStats {
  std::string label;      ///< e.g. "collect-neighbor-data"
  uint64_t superstep = 0;
  RouteStats traffic;
  /// Envelope framing overhead (header varints + CRC) of this superstep's
  /// remote deliveries. Kept out of traffic.remote_bytes so the payload byte
  /// series stays comparable across the protocol change; gated separately
  /// (≤ 4% of the varint payload) by the bench harness.
  uint64_t envelope_bytes = 0;
  /// Full-frame bytes re-sent by link-level retransmissions (fault runs only).
  uint64_t retry_bytes = 0;
  /// Work units per worker (max over workers drives simulated time).
  std::vector<uint64_t> work_units;

  uint64_t MaxWork() const {
    uint64_t best = 0;
    for (uint64_t w : work_units) best = std::max(best, w);
    return best;
  }
  uint64_t TotalWork() const {
    uint64_t total = 0;
    for (uint64_t w : work_units) total += w;
    return total;
  }
};

/// Hash-sharding of vertices over workers (Giraph random distribution).
class VertexSharding {
 public:
  VertexSharding(int num_workers, uint64_t seed)
      : num_workers_(num_workers), seed_(seed) {}

  int num_workers() const { return num_workers_; }

  /// Worker owning data vertex v. Data and query id spaces are disjoint
  /// sides of the bipartite graph, so they use distinct salts.
  int DataWorker(VertexId v) const;
  int QueryWorker(VertexId q) const;

  /// Local data/query vertex lists per worker, built once per graph.
  static std::vector<std::vector<VertexId>> BuildDataShards(
      const VertexSharding& sharding, VertexId num_data);
  static std::vector<std::vector<VertexId>> BuildQueryShards(
      const VertexSharding& sharding, VertexId num_queries);

 private:
  int num_workers_;
  uint64_t seed_;
};

/// Runs `phase(worker)` once per worker in parallel and blocks (= barrier).
/// Returns per-worker work units as reported by the phase's return value.
std::vector<uint64_t> RunPhase(
    int num_workers, ThreadPool* pool,
    const std::function<uint64_t(int worker)>& phase);

}  // namespace shp
