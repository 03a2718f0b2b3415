// Superstep 2's proposal stage, shared by both refinement engines — the
// threaded Refiner (core/refiner.h) and the BSP engine's BspRefiner
// (engine/shp_bsp.h): the context a cached proposal depends on beyond the
// neighbor data, the exploration draw, the proposal function itself (push,
// pull or grouped scan, or an exploration proposal), the patch-time proposal
// ApplyDeltas runs, and the Debug cross-check of a proposal cache.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/move_topology.h"
#include "core/partition.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"

namespace shp {

class ThreadPool;

/// The context cached proposals were computed under: the move topology's
/// group structure and the §5(i) anchor. Capacity is a broker concern;
/// proposals do not depend on it.
class ProposalContext {
 public:
  /// True iff proposals computed under the last Snapshot are still valid
  /// under (topo, anchor, anchor_penalty).
  bool Matches(const MoveTopology& topo, const std::vector<BucketId>* anchor,
               double anchor_penalty) const;
  /// True iff the last Snapshot saw the same group structure as `topo`.
  bool MatchesTopology(const MoveTopology& topo) const;
  void Snapshot(const MoveTopology& topo, const std::vector<BucketId>* anchor,
                double anchor_penalty);

 private:
  bool has_topo_ = false;
  MoveTopology topo_;
  bool has_anchor_ = false;
  std::vector<BucketId> anchor_;
  double anchor_penalty_ = 0.0;
};

/// One round's exploration draw (RefinerOptions::exploration_probability):
/// ≈ n·probability explorers drawn up front into a compact firing list, so
/// a steady-state round never hashes the other vertices. The list is a pure
/// hash of (seed, iteration, i, n) — sampling with replacement over hashed
/// indices, duplicates collapsing, statistically indistinguishable from a
/// per-vertex Bernoulli draw at these rates — so it does not depend on the
/// worker count. Only direct k-way rounds explore.
class ExplorationDraw {
 public:
  /// Draws this round's explorers and their uniformly hashed targets in
  /// [0, k). Call once per round, after the previous round's EndRound.
  void Draw(const MoveTopology& topo, double probability, VertexId n,
            uint64_t seed, uint64_t iteration);

  /// v's exploration target this round (-1 when v does not fire).
  BucketId Target(VertexId v) const {
    return target_.empty() ? -1 : target_[v];
  }

  /// True iff v's proposal this round is an exploration proposal: v fires
  /// with a target other than its bucket `from` and has a neighbor. Such a
  /// proposal depends on the draw, so it is the one proposal a cache must
  /// not serve next round.
  bool Explores(VertexId v, BucketId from, uint32_t degree) const {
    const BucketId target = Target(v);
    return target >= 0 && target != from && degree > 0;
  }

  /// This round's explorers, in draw order.
  const std::vector<VertexId>& firing() const { return firing_; }

  /// Last round's explorers whose proposal was an exploration proposal:
  /// their cached proposal is stale, so this round recomputes them.
  const std::vector<VertexId>& stale() const { return stale_; }

  /// Ends the round, on the partition its proposals were computed against:
  /// this round's exploration proposals become next round's stale list,
  /// and every target resets to -1.
  void EndRound(const BipartiteGraph& graph, const Partition& partition);

 private:
  std::vector<BucketId> target_;  ///< per vertex; -1 outside firing_
  std::vector<VertexId> firing_;
  std::vector<VertexId> stale_;
};

/// One worker's reusable scan scratch: the zero-filled k-way affinity array
/// and touched list of the full-k pull scan, sized on first use.
struct ProposalScratch {
  std::vector<double> affinity;
  std::vector<BucketId> touched;
};

/// Everything one engine's superstep 2 reads to propose for a vertex.
struct ProposalInputs {
  const BipartiteGraph& graph;
  const GainComputer& gain;
  const QueryNeighborData& ndata;
  const AffinitySweep& sweep;  ///< read only when `push`
  const MoveTopology& topo;
  const Partition& partition;
  const std::vector<BucketId>* anchor;
  double anchor_penalty;
  bool propose_nonpositive;
  /// Scan v's accumulator (push) instead of gathering its queries (pull).
  bool push;
  const ExplorationDraw& draw;  ///< this round's explorers (may be empty)
};

/// Work units of a push scan of v in refined bucket `from`: its live
/// accumulator entries — a windowed sweep's empty slots are not counted —
/// plus the sibling candidates under a grouped topology.
uint64_t PushScanWork(const AffinitySweep& sweep, const MoveTopology& topo,
                      BucketId from, VertexId v);

/// v's superstep-2 proposal (bucket -1 = none): none for an isolated vertex
/// or one outside the refined buckets; an exploration proposal (the draw's
/// target, with its true gain) when in.draw.Explores(v, ...); else the
/// push scan of v's accumulator, the full-k pull scan or the grouped pull
/// scan; finalized by FinalizeProposal. Every proposal but an exploration
/// proposal is a function of the neighbor data, v's bucket and the
/// ProposalContext, so it can be cached. `work`, if non-null, is increased
/// by the scan's work units (the BSP engine's superstep-2 charge):
/// PushScanWork for a push scan, the gain scans' entry or lookup counts for
/// a pull scan; an exploration proposal costs the push scan in push mode,
/// 2·deg(v) count lookups in pull mode.
GainComputer::BestTarget ComputeProposal(const ProposalInputs& in, VertexId v,
                                         ProposalScratch* scratch,
                                         uint64_t* work = nullptr);

/// Turns v's best-target scan result into its proposal: the incremental-
/// update penalty of paper §5(i) (a move away from anchor[v] is charged
/// `anchor_penalty`, a move back is credited the same amount), then the
/// nonpositive filter. A bucket of -1 means "no proposal" and carries gain 0.
GainComputer::BestTarget FinalizeProposal(GainComputer::BestTarget best,
                                          VertexId v, BucketId from,
                                          const std::vector<BucketId>* anchor,
                                          double anchor_penalty,
                                          bool propose_nonpositive);

/// The push scan both engines run over a vertex's accumulator `entries`
/// (its full-k accumulator or its group window) in refined bucket `from`:
/// the [0, k) argmax under direct k-way, else the scan over from's sibling
/// buckets. Returns the raw best target, before FinalizeProposal.
GainComputer::BestTarget PushScan(const GainComputer& gain,
                                  const MoveTopology& topo, BucketId from,
                                  std::span<const AffinityEntry> entries,
                                  double degree);

/// The proposal both engines compute for v right after ApplyDeltas patched
/// its accumulator (their PatchVisitor body): none when v's bucket is not
/// being refined, else FinalizeProposal(PushScan(...)) over the patched
/// `entries`.
GainComputer::BestTarget PatchedProposal(
    const GainComputer& gain, const MoveTopology& topo,
    const Partition& partition, VertexId v,
    std::span<const AffinityEntry> entries, double degree,
    const std::vector<BucketId>* anchor, double anchor_penalty,
    bool propose_nonpositive);

/// Debug cross-check of a proposal cache after superstep 2, over every data
/// vertex: (a) each cached proposal (`targets`, `gains`) equals a fresh
/// ComputeProposal; in push mode also (b) it honors the tolerance contract
/// against its pull recompute (docs/refinement.md: the same target, or a
/// target whose pull-frame gain ties within 1e-9; gains within 1e-9 + rtol
/// 1e-6; one side filtered only when both gains are zero within that
/// tolerance) and (c) the patched accumulators equal a fresh Build over the
/// windows the current partition derives, up to summation order.
void CheckProposals(const ProposalInputs& in,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, ThreadPool* pool);

}  // namespace shp
