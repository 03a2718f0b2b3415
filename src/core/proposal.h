// Superstep-2 pieces shared by both refinement engines — the threaded
// Refiner (core/refiner.h) and the BSP engine's BspRefiner
// (engine/shp_bsp.h): the context a cached proposal depends on beyond the
// neighbor data, the push scan and the finalization of a best-target scan
// into a proposal, and the Debug check of the push-vs-pull tolerance
// contract.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/move_topology.h"
#include "objective/gain.h"

namespace shp {

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

/// Debug check that v's push proposal honors the tolerance contract against
/// its pull recompute (docs/refinement.md): the same target, or a target
/// whose pull-frame gain ties within 1e-9; gains within 1e-9 + rtol 1e-6;
/// and one side filtered only when both gains are zero within that
/// tolerance. `pull_gain_to(b)` is the raw pull-frame gain of moving v to b.
void CheckPushMatchesPull(VertexId v, GainComputer::BestTarget pull,
                          GainComputer::BestTarget push,
                          const std::function<double(BucketId)>& pull_gain_to);

}  // namespace shp
