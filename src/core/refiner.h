// One local-refinement iteration of Algorithm 1, threaded.
//
// The iteration mirrors the four supersteps of paper Fig. 3:
//   1-2. maintain query neighbor data and compute per-vertex move gains
//        (parallel over queries, then over data vertices),
//   3.   aggregate proposals at the "master" (MoveBroker),
//   4.   execute probabilistic moves and repair balance.
//
// Supersteps 1-2 are *incremental* across iterations (the paper's Giraph
// implementation amortizes this state the same way): the neighbor data is
// built once and then patched with each round's executed move list, and a
// vertex's proposal is recomputed only when the neighbor data of one of its
// queries changed (push: its accumulator was patched — and then inside the
// patch kernel, while the accumulator is cache-hot), it moved, or its
// exploration draw fires. In steady state — moved fraction of a few
// percent — per-iteration work is proportional to the
// blast radius of the moves, not to |E|. A full rebuild happens only when
// the caller hands in an assignment, topology, or anchor the refiner has not
// seen (detected, never assumed), and debug builds cross-check the
// incremental state against a from-scratch rebuild every iteration.
//
// Superstep 2 has two scan directions (RefinerOptions::sweep_mode):
//
//  * pull — each recomputed vertex gathers the entry lists of all its
//    adjacent queries (GainComputer::FindBestTarget). Exact reference path;
//    bit-identical between the incremental and rebuild-everything variants.
//  * push — the affinity sweep (objective/affinity_sweep.h): per-vertex
//    affinity accumulators are built by one vertex-major gather and then
//    patched from the bucket-count delta records ApplyMoves emits, so a
//    steady-state recompute is one sequential scan of the vertex's own
//    accumulator instead of a random-access gather.
//    Push changes float summation order, so its proposals match pull only
//    up to accumulation error: same targets modulo gain ties ≤ ~1e-9,
//    gains within rtol ~1e-6 (debug builds verify this per iteration; see
//    docs/refinement.md for the tolerance story).
//
// Gains honor the MoveTopology constraint: direct k-way search uses the
// sparse-affinity best-target scan (k-independent per-vertex cost); grouped
// recursion either evaluates each sibling candidate directly against the
// neighbor data (pull, O(r · deg(v))) or scans a windowed sweep
// (GainComputer::FindBestTargetPushGrouped) whose accumulators hold only
// each vertex's group window. A new group structure rebuilds that sweep; the
// recursion drivers build one refiner per level anyway. The BSP engine keeps
// the same sweep, partitioned by vertex owner (engine/shp_bsp.h), and runs
// the same superstep-2 proposal stage (core/proposal.h: ComputeProposal, the
// ExplorationDraw, the Debug CheckProposals), so every RefinerOptions field
// that changes a result means the same on both engines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/proposal.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"

namespace shp {

class ThreadPool;

struct RefinerOptions {
  /// Fanout probability p ∈ (0, 1]; p = 1 optimizes fanout directly,
  /// p → 0 optimizes the clique-net objective (Lemmas 1-2).
  double p = 0.5;
  /// §3.4 future-split objective: optimize the projected p-fanout after the
  /// bucket splits into this many leaves (1 = plain p-fanout).
  uint32_t future_splits = 1;
  /// Propose the best target even when its gain is ≤ 0 (the histogram
  /// matcher can still pair it profitably). Plain strategy ignores them.
  bool propose_nonpositive = true;
  /// With this probability a vertex proposes a uniformly random bucket
  /// (with its true gain) instead of the argmax target. Deterministic
  /// argmax proposals herd onto few buckets, which starves the pairwise
  /// min(S_ij, S_ji) matching when buckets hold few vertices; a small
  /// exploration rate diversifies the proposal matrix. 0 disables
  /// (Algorithm 1 verbatim); the k-way driver defaults to a small value.
  /// Both engines draw the explorers through one ExplorationDraw
  /// (core/proposal.h): ≈ n·exploration_probability of them, up front, into
  /// a compact firing list, so the steady-state pass iterates only blast
  /// radius ∪ last round's explorers ∪ this round's firing list, never the
  /// clean vertices.
  double exploration_probability = 0.0;
  /// Superstep-2 scan direction. kPush (the default) runs push whenever the
  /// pow base is nonzero (p < 1 or future_splits > 1) and falls back to pull
  /// in the p = 1, t = 1 limit. Grouped recursion windows run push over a
  /// windowed sweep: each vertex keeps only its group's accumulator window
  /// (move_topology.h GroupWindow). kPull forces the pull reference.
  /// The BSP engine (engine/shp_bsp.h) keys its superstep-2 *exchange* off
  /// the same switch: kPull reships dirty queries' full neighbor data (the
  /// reference), kPush ships sparse NeighborDelta records and runs the
  /// accumulator push sweep on the data workers (docs/distributed.md).
  enum class SweepMode { kPull, kPush };
  SweepMode sweep_mode = SweepMode::kPush;
  /// Maintain neighbor data and proposals incrementally across iterations
  /// (see the file comment). false forces the rebuild-everything path — the
  /// quality/latency reference the benchmarks compare against.
  bool incremental = true;
  /// High-churn fallback: when a round moves more than this fraction of the
  /// data vertices, patching the carried state costs more than the counting-
  /// sort rebuild, so the refiner drops it and rebuilds next iteration.
  /// Purely a cost decision — results are identical either way. 1.0 always
  /// patches.
  double incremental_rebuild_fraction = 0.15;
  MoveBrokerOptions broker;
};

struct IterationStats {
  uint64_t num_proposals = 0;
  uint64_t num_moved = 0;
  uint64_t num_reverted = 0;
  double gain_moved = 0.0;
  /// num_moved / num_data — the convergence signal (paper Fig. 7b).
  double moved_fraction = 0.0;
  /// True when this iteration rebuilt the neighbor data from scratch rather
  /// than patching it (first iteration, or assignment/topology/anchor
  /// drift). The BSP engine reports its announce-everything superstep-1
  /// scans here (it patches replicas instead of rebuilding).
  bool full_rebuild = false;
  /// True when superstep 2 ran the push sweep this iteration
  /// (for the BSP engine: delta exchange + accumulator push).
  bool push_sweep = false;
  /// Data vertices whose proposal was recomputed this iteration (equals
  /// num_data on a full rebuild; the incremental win is this shrinking).
  uint64_t num_recomputed = 0;
  /// NeighborDelta records consumed by the affinity sweep (push only) —
  /// proxy for the steady-state patch volume. The BSP engine counts each
  /// record once at its emitting query owner; the superstep-2 wire volume
  /// is larger by the destination fan-out (records × touched workers, see
  /// SuperstepStats traffic).
  uint64_t num_delta_records = 0;
  /// Superstep-4 probability draws actually evaluated. Proposals whose
  /// (from, target) probability-table row is all zero skip the draw (it can
  /// never fire), so on a converged instance this drops below
  /// num_proposals while the move trajectory is unchanged.
  uint64_t num_draws = 0;

  // ---- fault-tolerant superstep protocol (BSP engine only; all zero on
  // fault-free runs and on the in-memory Refiner) ----
  /// Wire anomalies detected this iteration (CRC/truncation/decode failures,
  /// stale epochs, sequence gaps and duplicates).
  uint64_t faults_detected = 0;
  /// Link-level retransmissions performed this iteration.
  uint64_t retransmits = 0;
  /// 1 when an unrecoverable link forced the replica-invalidation +
  /// full-reship recovery path this iteration.
  uint64_t reship_recoveries = 0;
  /// Links currently degraded to backoff (full-reship mode while > 0).
  uint64_t degraded_links = 0;
  /// Workers killed at this iteration's boundary and rebuilt from the
  /// authoritative partition state.
  uint64_t workers_recovered = 0;
  /// Workers stalled (straggling) this iteration.
  uint64_t stalled_workers = 0;

  bool operator==(const IterationStats&) const = default;
};

/// Interface over refinement iteration engines. The threaded in-memory
/// Refiner below is the default; the BSP message-passing implementation in
/// engine/shp_bsp.h is a drop-in replacement used for the distributed
/// experiments.
class RefinerInterface {
 public:
  virtual ~RefinerInterface() = default;

  /// Runs one iteration of Algorithm 1. `anchor`/`anchor_penalty` implement
  /// incremental repartitioning (paper §5(i)): a move away from anchor[v] is
  /// charged `anchor_penalty`, a move back is credited the same amount.
  virtual IterationStats RunIteration(const MoveTopology& topo,
                                      Partition* partition, uint64_t seed,
                                      uint64_t iteration,
                                      ThreadPool* pool = nullptr,
                                      const std::vector<BucketId>* anchor =
                                          nullptr,
                                      double anchor_penalty = 0.0) = 0;

  /// Caps executed (post-repair) moves of subsequent iterations at
  /// `max_moves` (0 = unlimited). The serving loop's per-epoch stability
  /// budget: it hands each iteration the remaining epoch budget so a live
  /// repartition migrates records at a bounded rate. Both engines forward
  /// this to MoveBrokerOptions::max_moves_per_round; the default is a
  /// no-op so third-party engines without move caps still satisfy the
  /// interface.
  virtual void SetMoveBudget(uint64_t max_moves) { (void)max_moves; }
};

/// Factory installed into driver options to swap the iteration engine.
using RefinerFactory = std::function<std::unique_ptr<RefinerInterface>(
    const BipartiteGraph& graph, const RefinerOptions& options)>;

class Refiner : public RefinerInterface {
 public:
  /// The graph must outlive the refiner.
  Refiner(const BipartiteGraph& graph, const RefinerOptions& options);

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool = nullptr,
                              const std::vector<BucketId>* anchor = nullptr,
                              double anchor_penalty = 0.0) override;

  void SetMoveBudget(uint64_t max_moves) override {
    options_.broker.max_moves_per_round = max_moves;
    broker_.set_max_moves_per_round(max_moves);
  }

  /// Neighbor data from the most recent iteration (for diagnostics/tests).
  const QueryNeighborData& neighbor_data() const { return ndata_; }

  /// Affinity accumulators from the most recent push iteration, windowed
  /// under a grouped topology (diagnostics/tests; content is stale while
  /// running in pull mode).
  const AffinitySweep& affinity_sweep() const { return sweep_; }

  /// Cached proposals, indexed by vertex (targets()[v] = -1 for "no
  /// proposal"). For diagnostics and the pull-vs-push equivalence harness.
  /// After a push RunIteration that patched the accumulators, every vertex
  /// the patch reached already holds its next-round proposal (computed
  /// inside ApplyDeltas against the post-move partition), so the cache is
  /// current for every vertex outside that iteration's exploration draw.
  /// In pull mode, and after a high-churn round, it holds the proposals
  /// the broker saw.
  const std::vector<BucketId>& targets() const { return targets_; }
  const std::vector<double>& gains() const { return gains_; }

  /// From-scratch neighbor-data builds performed so far (diagnostics; an
  /// incremental steady state holds this at 1 per warm start).
  uint64_t num_full_rebuilds() const { return num_full_rebuilds_; }

  /// Full accumulator builds performed so far (push mode; an
  /// incremental steady state holds this at 1 per warm start).
  uint64_t num_sweep_builds() const { return num_sweep_builds_; }

 private:
  const BipartiteGraph& graph_;
  RefinerOptions options_;
  GainComputer gain_;
  MoveBroker broker_;

  // ---- state carried across iterations (valid while shadow matches) ----
  QueryNeighborData ndata_;
  bool ndata_valid_ = false;
  AffinitySweep sweep_;       ///< push-mode affinity accumulators
  bool sweep_valid_ = false;  ///< sweep_ reflects ndata_ (patched or built)
  std::vector<BucketId> shadow_assignment_;  ///< assignment ndata_ reflects
  std::vector<BucketId> targets_;   ///< cached proposal targets
  std::vector<double> gains_;       ///< cached proposal gains
  bool proposals_valid_ = false;
  std::vector<VertexId> dirty_list_;  ///< pull: queries changed last round
  /// Push only: vertices that received a (member) delta record in the
  /// last ApplyDeltas — their proposals were recomputed there — and last
  /// round's movers.
  std::vector<VertexId> patched_;
  std::vector<VertexId> movers_;
  std::vector<NeighborDelta> deltas_;  ///< delta records of last ApplyMoves
  std::vector<uint8_t> recompute_;    ///< per-vertex recompute mark
  ExplorationDraw draw_;  ///< this round's explorers, last round's stale ones

  // Per-iteration work-list scratch (reused across iterations).
  std::vector<VertexId> recompute_list_;  ///< compact steady-state work list
  std::vector<std::vector<VertexId>> collect_;  ///< per-worker claim lists

  ProposalContext context_;  ///< context the cached proposals depend on

  std::vector<ProposalScratch> scratch_;  ///< one per pool worker
  uint64_t num_full_rebuilds_ = 0;
  uint64_t num_sweep_builds_ = 0;
};

}  // namespace shp
