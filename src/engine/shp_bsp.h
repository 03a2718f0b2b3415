// SHP as a vertex-centric BSP program — the faithful counterpart of the
// paper's Giraph implementation (§3.2, Fig. 3). One refinement iteration is
// four supersteps with synchronization barriers; RunIteration calls one
// private method per superstep in order (docs/distributed.md maps each
// method to its Fig. 3 superstep):
//
//   1. data → query (AnnounceAndFold): current bucket (delta messages; a
//      vertex that did not move "does not send messages on superstep 1 for
//      the next iteration"). Queries fold the deltas into their sparse
//      neighbor data.
//   2. query → data: two exchange modes, selected by
//      RefinerOptions::sweep_mode (the same switch that picks the threaded
//      Refiner's scan direction):
//        * pull (kPull, and the fallback whenever push is unsupported) —
//          dirty queries send their neighbor data, restricted to buckets
//          active in the current move topology, ONE combined message per
//          destination worker (Giraph's machine-pair message combining);
//          receiving data vertices re-gather move gains. The reference path.
//        * delta exchange + push sweep (kPush/kAuto with a nonzero pow
//          base, full-k AND grouped recursion topologies) — dirty queries
//          ship only the sparse (q, bucket, old, new) NeighborDelta records
//          produced while folding superstep 1, O(moved pins) on the wire
//          instead of O(Σ deg(dirty q) × touched workers), encoded with the
//          grouped varint codec inside a self-verifying envelope
//          (engine/wire_format.h). Each data worker keeps its own
//          AffinitySweep accumulator replica, built and patched by the same
//          vertex-major Build / ApplyDeltas as the threaded Refiner's: an
//          owned vertex keeps its group's window ([0, k) under direct
//          k-way), every other vertex an empty one, so the windows are the
//          ownership filter. A bootstrap (first round, or a new group
//          structure) ships what the pull path ships and builds the
//          replicas from it; later rounds patch them from the incoming
//          records, and the vertices that received an in-window record
//          (inside ApplyDeltas, right after their patch), plus last
//          round's movers, re-propose. Proposals are one
//          sequential scan of the vertex's own accumulator
//          (GainComputer::FindBestTargetPush, or FindBestTargetPushGrouped
//          under SHP-2/r recursion — shared tie-break and fallback with the
//          pull scan).
//      ExchangeNeighborData moves the data and marks the recompute set;
//      ProposeMoves re-proposes it. In either mode, clean vertices keep
//      their cached proposal — their gains cannot have changed.
//   3. data → master (UploadHistograms): per-worker (bucket-pair, gain-bin)
//      histograms. The histograms are maintained *incrementally* from the
//      compact changed-proposal list (this round's recomputed vertices), so
//      the accumulation work is O(blast radius), not O(n); each worker
//      still ships its full live histogram (that is what the master's
//      matching needs) — bytes are O(active pairs × bins), independent of n.
//   4. master → data (DrawAndExecute): per-pair-and-bin move probabilities;
//      vertices draw and move (proposals whose probability row is all zero
//      skip the draw — the trajectory-preserving draw floor); the drawn
//      movers are collected into compact per-worker lists, so move
//      execution, balance repair, and the next superstep 1 all touch
//      O(moved) state instead of rescanning n-sized arrays.
//
// The implementation plugs into the SHP drivers through RefinerInterface, so
// SHP-k and SHP-2/r run unmodified on top of it. All message and byte counts
// are exact; engine/cost_model.h converts them into simulated cluster time.
// docs/distributed.md documents the delta-exchange wire format and the
// replica-consistency invariants.
//
// Fault-tolerant superstep protocol (docs/distributed.md "Failure model &
// recovery"): in delta-exchange mode every remote (src, dst) superstep-2
// buffer crosses the simulated fabric as one self-verifying enveloped frame
// (engine/wire_format.h) — CRC32C integrity, epoch id, per-link monotonic
// sequence number — delivered through the deterministic FaultInjector. A
// detected anomaly (corruption, truncation, stale epoch, gap, duplicate)
// triggers a bounded same-sequence retransmission; an unrecoverably failed
// link invalidates the accumulator replicas and falls into the bootstrap
// reship path within the same iteration, which doubles as the protocol
// resync point (receive sequences jump to the send sequences). Repeatedly
// failing links degrade to backoff: while any link is backing off the engine
// runs full-reship bootstraps instead of delta exchange. A worker killed at
// an iteration boundary has its query replicas rebuilt from the
// authoritative partition state and the accumulator replicas re-bootstrapped.
// Optional per-epoch checkpoints (engine/checkpoint.h) enable rollback-and-
// replay via RestoreLatestCheckpoint. Every recovery path re-converges to
// the fault-free trajectory — the replica and proposal cross-checks below
// DCHECK that in Debug builds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/checkpoint.h"

#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/proposal.h"
#include "core/refiner.h"
#include "engine/bsp_engine.h"
#include "engine/message_router.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"

namespace shp {

/// Superstep-1 wire record: one bucket-count delta of one query's neighbor
/// data, combined per (source worker, query, bucket) before the wire
/// (Giraph's combiner). Folding these at the query owner is what produces
/// the NeighborDelta records superstep 2 ships in delta-exchange mode.
struct BucketDeltaMsg {
  VertexId query;
  BucketId bucket;
  int32_t delta;
};

class BspRefiner : public RefinerInterface {
 public:
  /// `log`, if given, receives the SuperstepStats of every executed
  /// superstep (appended in order) and must outlive the refiner.
  BspRefiner(const BipartiteGraph& graph, const RefinerOptions& options,
             const BspConfig& config,
             std::vector<SuperstepStats>* log = nullptr);

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool = nullptr,
                              const std::vector<BucketId>* anchor = nullptr,
                              double anchor_penalty = 0.0) override;

  /// Per-round executed-move cap (0 = unlimited): the master trims the
  /// drawn superstep-4 movers to the budget, highest gain first, before
  /// execution — same contract as the threaded broker's
  /// max_moves_per_round (the serving loop's epoch budget hook).
  void SetMoveBudget(uint64_t max_moves) override {
    options_.broker.max_moves_per_round = max_moves;
  }

  /// Estimated bytes of distributed state on the most loaded worker right
  /// now: its adjacency shard, its query replicas' neighbor data, and its
  /// accumulator replica (entries of its own sweep).
  uint64_t MaxWorkerStateBytes() const;

  /// Accumulator-replica bootstrap reships performed so far (delta-exchange
  /// mode): one per group structure the instance runs under, plus one per
  /// recovery or high-churn drop of the replicas.
  uint64_t num_bootstrap_reships() const { return num_bootstraps_; }

  /// Data worker w's accumulator replica (delta-exchange mode): its own
  /// vertices' group windows, empty windows everywhere else.
  const AffinitySweep& sweep(int worker) const {
    return sweeps_[static_cast<size_t>(worker)];
  }

  /// Adjacency reads of the most recent bootstrap, summed over the workers'
  /// builds: each pin is read once (graph.num_edges() when every vertex is
  /// refined), whatever the worker count.
  uint64_t last_bootstrap_adjacency_reads() const;

  /// Cumulative fault/recovery counters since construction (per-iteration
  /// values are in IterationStats).
  struct FaultCounters {
    uint64_t faults_detected = 0;
    uint64_t retransmits = 0;
    uint64_t reship_recoveries = 0;
    uint64_t workers_recovered = 0;
    uint64_t stalled_workers = 0;
    uint64_t checkpoints_written = 0;
    uint64_t rollbacks = 0;
  };
  const FaultCounters& fault_counters() const { return counters_; }

  /// Rolls the engine back to the newest valid checkpoint: *partition is
  /// replaced with the checkpointed assignment and every piece of
  /// incremental state is invalidated, so the next RunIteration bootstraps
  /// from the restored epoch and replay is indistinguishable from a run
  /// that never crashed. NotFound when checkpointing is off or no valid
  /// checkpoint exists.
  Status RestoreLatestCheckpoint(Partition* partition);

 private:
  /// Per-iteration flags and superstep accounting, handed from superstep to
  /// superstep in Fig. 3 order.
  struct RoundState {
    uint64_t epoch = 0;  ///< protocol epoch (see epoch_)
    /// Superstep 2 runs delta exchange + push sweep (constant per instance).
    bool push = false;
    /// Superstep 1 announced through the O(n) diff scan (cold start, or
    /// the partition was mutated behind the engine's back).
    bool full_scan = false;
    /// Superstep 2 ships every query's restricted neighbor data and
    /// rebuilds the accumulator replicas from it (push mode only).
    bool bootstrap = false;
    /// Every data vertex re-proposes and the histograms rebuild.
    bool recompute_all = false;
    SuperstepStats s1, s2, s3, s4;
    IterationStats stats;
  };

  // ---- the four supersteps (Fig. 3), one method each ----

  /// Superstep 1: each data worker announces its vertices' bucket changes
  /// (last round's pending movers, or a diff scan of its whole shard) to
  /// the query owners, which fold them into their neighbor-data replicas
  /// and, when valid accumulator replicas will consume them, emit the
  /// NeighborDelta records into s1_records_. A diff scan under a grouped
  /// topology drops the replicas (their windows may be stale).
  void AnnounceAndFold(const MoveTopology& topo, const Partition& partition,
                       ThreadPool* pool, RoundState* round);

  /// Superstep 2, exchange: ships the delta records through the enveloped
  /// transfer (falling into a bootstrap reship when a link fails) or the
  /// restricted neighbor-data lists, patches or rebuilds the accumulator
  /// replicas, and marks the vertices to re-propose into recompute_lists_.
  /// A patch also proposes for each patched vertex (under `anchor` /
  /// `anchor_penalty`) inside ApplyDeltas; those lead their worker's list,
  /// prescanned_ counting them. `degraded`: some link is in backoff, so
  /// push mode must reship.
  void ExchangeNeighborData(const MoveTopology& topo,
                            const Partition& partition,
                            const std::vector<BucketId>* anchor,
                            double anchor_penalty, bool degraded,
                            ThreadPool* pool, RoundState* round);

  /// Superstep 2, proposals: recomputes the cached proposal of every marked
  /// vertex past the prescanned prefix (every shard vertex on a
  /// recompute-all round).
  void ProposeMoves(const MoveTopology& topo, const Partition& partition,
                    const std::vector<BucketId>* anchor, double anchor_penalty,
                    ThreadPool* pool, RoundState* round);

  /// Superstep 3: updates each worker's pair histograms from its changed
  /// proposals and returns the master's merge of all of them.
  std::unordered_map<uint64_t, DirectedGainHistogram> UploadHistograms(
      const Partition& partition, ThreadPool* pool, RoundState* round);

  /// Superstep 4: the master's probabilities go out, proposals draw, and
  /// the drawn movers execute with balance repair.
  void DrawAndExecute(
      const MoveTopology& topo,
      const std::unordered_map<uint64_t, DirectedGainHistogram>& histograms,
      uint64_t seed, uint64_t iteration, Partition* partition,
      ThreadPool* pool, RoundState* round);

  // ---- bodies shared by several superstep paths ----

  /// Announces v's move to `now` from worker w (no-op when its queries
  /// already saw `now`); charges 2 work units per adjacent query. Returns
  /// whether v moved.
  bool Announce(int w, VertexId v, BucketId now, uint64_t* work);

  /// Sets (*mask)[dst] for every worker owning a data neighbor of q.
  void MarkDestinations(VertexId q, std::vector<uint8_t>* mask) const;

  /// Marks worker w's not-yet-marked vertices among `vertices` for
  /// re-proposal; returns how many it marked.
  uint64_t MarkForRecompute(int w, std::span<const VertexId> vertices);

  /// Pull scans read each query's neighbor data from its replica.
  auto QueryReplicas() const {
    return [this](VertexId q) {
      return std::span<const BucketCount>(query_ndata_[q]);
    };
  }

  /// Writes the epoch checkpoint when one is due; a write failure degrades
  /// durability (older checkpoints remain), never the run.
  void MaybeCheckpoint(uint64_t epoch, const IterationStats& stats,
                       const Partition& partition);

  // ---- fault-tolerant superstep protocol ----

  size_t LinkIndex(int src, int dst) const {
    return static_cast<size_t>(src) * config_.num_workers + dst;
  }

  /// Rebuilds the query replicas owned by a killed worker from the
  /// authoritative partition state its queries last saw. Returns the
  /// recovery work units charged to that worker.
  uint64_t RecoverKilledWorker(int worker);

  /// Delivers every remote `router` buffer as an enveloped frame through the
  /// fault injector with bounded same-sequence retransmission, filling
  /// s2_inbox_ (src-ascending per destination, locals copied verbatim) and
  /// link_payload_bytes_. Returns true when every link delivered; false when
  /// some link exhausted its retries (the caller then falls into the
  /// bootstrap reship path).
  bool TransferEnveloped(uint64_t epoch,
                         const MessageRouter<NeighborDelta>& router,
                         SuperstepStats* s2, IterationStats* stats);

  /// Protocol resync at a bootstrap: the full reship bypasses the enveloped
  /// link protocol, so receive sequences jump to the send sequences and the
  /// stale-frame history is dropped.
  void ResyncLinks();

  const BipartiteGraph& graph_;
  RefinerOptions options_;
  BspConfig config_;
  GainComputer gain_;
  VertexSharding sharding_;
  std::vector<std::vector<VertexId>> data_shards_;
  std::vector<std::vector<VertexId>> query_shards_;
  std::vector<int32_t> data_owner_;  ///< data vertex -> owning worker

  // Distributed state. Each query's neighbor data lives on its owner worker
  // and is updated only by that worker (single-writer); the flat vectors
  // below are the simulation's stand-in for that per-worker memory.
  std::vector<std::vector<BucketCount>> query_ndata_;
  std::vector<uint8_t> query_dirty_;
  std::vector<BucketId> known_assignment_;  ///< last state sent upstream
  /// Net executed moves of the previous superstep 4, still to be announced
  /// on the next superstep 1 — the compact replacement for the per-vertex
  /// "did I move" rescan.
  std::vector<VertexMove> pending_announce_;
  /// Last round's net movers: always recomputed in superstep 2. A mover's
  /// `from` changed even when offsetting moves cancel all of its queries'
  /// count deltas (A→B and B→A among one query's pins), in which case no
  /// dirty flag or delta record would ever reach it.
  std::vector<VertexId> last_movers_;
  bool state_valid_ = false;  ///< known_assignment_/query_ndata_ live

  // Data-worker accumulator replicas (delta-exchange mode), one windowed
  // sweep per worker, and each worker's vertices patched by the last
  // ApplyDeltas.
  std::vector<AffinitySweep> sweeps_;
  std::vector<std::vector<VertexId>> patched_lists_;
  bool sweep_valid_ = false;
  uint64_t num_bootstraps_ = 0;  ///< bootstrap reships (diagnostics/tests)

  // Fault-tolerant superstep protocol state. epoch_ is the engine's own
  // monotonic iteration counter (the caller's `iteration` parameter restarts
  // under recursion drivers, so it cannot key the wire protocol). The link_*
  // vectors are W×W, indexed by LinkIndex.
  uint64_t epoch_ = 0;
  FaultInjector injector_;
  std::vector<uint64_t> link_send_seq_;
  std::vector<uint64_t> link_recv_seq_;
  /// Last successfully delivered frame per link — what a reordering network
  /// would deliver in place of the current one (stale-epoch injection).
  std::vector<std::vector<uint8_t>> link_last_wire_;
  std::vector<int> link_fail_streak_;       ///< consecutive failed epochs
  std::vector<uint64_t> link_backoff_until_;  ///< in backoff while epoch <
  std::vector<int> link_backoff_len_;       ///< next backoff length (epochs)
  std::vector<uint64_t> link_payload_bytes_;  ///< per-epoch payload sizes
  FaultCounters counters_;
  std::unique_ptr<CheckpointManager> checkpoints_;

  // Cached per-vertex proposals (clean vertices re-propose unchanged).
  std::vector<BucketId> cached_target_;
  std::vector<double> cached_gain_;
  bool proposals_valid_ = false;

  // Context the cached proposals depend on beyond the replicas. The scan
  // direction is fixed at construction, so it is not part of it.
  ProposalContext context_;

  // Incrementally maintained superstep-3 histograms, one per worker over its
  // shard, plus each vertex's contribution.
  std::vector<PairHistograms> worker_hist_;
  std::vector<PairHistograms::Contribution> hist_contrib_;
  bool hist_valid_ = false;

  // Reusable per-iteration scratch: each keeps its capacity across
  // iterations, so steady-state supersteps allocate nothing here.
  /// Superstep-1 combiner: flat (key, delta) cells, sorted at the flush.
  MessageCombiner<int32_t> s1_combiner_;
  /// NeighborDelta records the superstep-1 fold emits, per query owner, in
  /// the merged (query, bucket) order superstep 2 ships them in.
  std::vector<std::vector<NeighborDelta>> s1_records_;
  std::vector<std::vector<NeighborDelta>> s2_inbox_;    ///< per data worker
  std::vector<uint8_t> recompute_;  ///< per-vertex mark, zeroed after use
  std::vector<std::vector<VertexId>> recompute_lists_;  ///< per data worker
  /// Per data worker: leading recompute_lists_ entries already proposed
  /// inside ApplyDeltas this round (0 on a recompute-all round).
  std::vector<size_t> prescanned_;
  std::vector<std::vector<VertexId>> mover_lists_;      ///< per data worker
  std::vector<VertexId> movers_;       ///< merged, ascending
  std::vector<BucketId> original_;     ///< pre-move bucket (mover slots only)
  std::vector<std::vector<double>> pull_affinity_;   ///< per-worker scratch
  std::vector<std::vector<BucketId>> pull_touched_;  ///< per-worker scratch

  std::vector<SuperstepStats>* log_;
};

}  // namespace shp
