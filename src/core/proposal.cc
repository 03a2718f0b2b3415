#include "core/proposal.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace shp {

bool ProposalContext::Matches(const MoveTopology& topo,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty) const {
  if (!MatchesTopology(topo)) return false;
  const bool has_anchor = anchor != nullptr && anchor_penalty != 0.0;
  if (has_anchor != has_anchor_) return false;
  return !has_anchor ||
         (anchor_penalty_ == anchor_penalty && anchor_ == *anchor);
}

bool ProposalContext::MatchesTopology(const MoveTopology& topo) const {
  return has_topo_ && topo_.k == topo.k && topo_.full_k == topo.full_k &&
         topo_.group_of_bucket == topo.group_of_bucket &&
         topo_.group_children == topo.group_children;
}

void ProposalContext::Snapshot(const MoveTopology& topo,
                               const std::vector<BucketId>* anchor,
                               double anchor_penalty) {
  has_topo_ = true;
  topo_ = topo;
  has_anchor_ = anchor != nullptr && anchor_penalty != 0.0;
  anchor_ = has_anchor_ ? *anchor : std::vector<BucketId>{};
  anchor_penalty_ = has_anchor_ ? anchor_penalty : 0.0;
}

GainComputer::BestTarget FinalizeProposal(GainComputer::BestTarget best,
                                          VertexId v, BucketId from,
                                          const std::vector<BucketId>* anchor,
                                          double anchor_penalty,
                                          bool propose_nonpositive) {
  if (best.bucket < 0) return {};
  if (anchor != nullptr && anchor_penalty != 0.0) {
    const BucketId home = (*anchor)[v];
    if (from == home && best.bucket != home) best.gain -= anchor_penalty;
    if (from != home && best.bucket == home) best.gain += anchor_penalty;
  }
  if (!propose_nonpositive && best.gain <= 0.0) return {};
  return best;
}

GainComputer::BestTarget PushScan(const GainComputer& gain,
                                  const MoveTopology& topo, BucketId from,
                                  std::span<const AffinityEntry> entries,
                                  double degree) {
  if (topo.full_k) {
    return gain.FindBestTargetPush(entries, from, 0, topo.k, degree);
  }
  const int32_t group = topo.group_of_bucket[static_cast<size_t>(from)];
  SHP_DCHECK(group >= 0) << "push scan in unrefined bucket " << from;
  return gain.FindBestTargetPushGrouped(
      entries, from, topo.group_children[static_cast<size_t>(group)], degree);
}

GainComputer::BestTarget PatchedProposal(
    const GainComputer& gain, const MoveTopology& topo,
    const Partition& partition, VertexId v,
    std::span<const AffinityEntry> entries, double degree,
    const std::vector<BucketId>* anchor, double anchor_penalty,
    bool propose_nonpositive) {
  const BucketId from = partition.bucket_of(v);
  if (topo.group_of_bucket[static_cast<size_t>(from)] < 0) return {};
  return FinalizeProposal(PushScan(gain, topo, from, entries, degree), v, from,
                          anchor, anchor_penalty, propose_nonpositive);
}

void CheckPushMatchesPull(
    VertexId v, GainComputer::BestTarget pull, GainComputer::BestTarget push,
    const std::function<double(BucketId)>& pull_gain_to) {
  const double gtol =
      1e-9 + 1e-6 * std::max(std::fabs(pull.gain), std::fabs(push.gain));
  if (pull.bucket == push.bucket) {
    SHP_CHECK(std::fabs(pull.gain - push.gain) <= gtol)
        << "pull/push gain divergence for v=" << v << ": pull " << pull.gain
        << " vs push " << push.gain;
  } else if (pull.bucket >= 0 && push.bucket >= 0) {
    // Different targets are legal only on a gain tie: evaluate both in the
    // pull frame and require them equal within the tie tolerance.
    const double g_pull_choice = pull_gain_to(pull.bucket);
    const double g_push_choice = pull_gain_to(push.bucket);
    SHP_CHECK(std::fabs(g_pull_choice - g_push_choice) <= 1e-9)
        << "pull/push target divergence beyond tie tolerance for v=" << v
        << ": pull -> " << pull.bucket << " (" << g_pull_choice
        << ") vs push -> " << push.bucket << " (" << g_push_choice << ")";
  } else {
    // One path proposed, the other filtered (propose_nonpositive): only
    // legal when the surviving gain straddles zero within tolerance.
    SHP_CHECK(std::fabs(pull.gain) <= gtol && std::fabs(push.gain) <= gtol)
        << "pull/push proposal presence mismatch for v=" << v;
  }
}

}  // namespace shp
