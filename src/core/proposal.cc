#include "core/proposal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace shp {

namespace {

/// Debug check that v's push proposal honors the tolerance contract against
/// its pull recompute (see CheckProposals). `pull_gain_to(b)` is the raw
/// pull-frame gain of moving v to b.
template <typename PullGainTo>
void CheckPushMatchesPull(VertexId v, GainComputer::BestTarget pull,
                          GainComputer::BestTarget push,
                          const PullGainTo& pull_gain_to) {
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

}  // namespace

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

void ExplorationDraw::Draw(const MoveTopology& topo, double probability,
                           VertexId n, uint64_t seed, uint64_t iteration) {
  if (!topo.full_k || probability <= 0.0) return;
  if (target_.size() < n) target_.assign(n, -1);
  const uint64_t draws =
      static_cast<uint64_t>(static_cast<double>(n) * probability + 0.5);
  for (uint64_t i = 0; i < draws; ++i) {
    const VertexId v = static_cast<VertexId>(
        HashToBounded(seed ^ 0xe791, iteration * 0x10001 + 1, i, n));
    if (target_[v] != -1) continue;
    target_[v] = static_cast<BucketId>(HashToBounded(
        seed ^ 0x77aa, iteration, v, static_cast<uint64_t>(topo.k)));
    firing_.push_back(v);
  }
}

void ExplorationDraw::EndRound(const BipartiteGraph& graph,
                               const Partition& partition) {
  stale_.clear();
  for (const VertexId v : firing_) {
    if (Explores(v, partition.bucket_of(v), graph.DataDegree(v))) {
      stale_.push_back(v);
    }
    target_[v] = -1;
  }
  firing_.clear();
}

uint64_t PushScanWork(const AffinitySweep& sweep, const MoveTopology& topo,
                      BucketId from, VertexId v) {
  const uint64_t entries = sweep.LiveEntries(v);
  if (topo.full_k) return entries;
  const int32_t group = topo.group_of_bucket[static_cast<size_t>(from)];
  return entries + topo.group_children[static_cast<size_t>(group)].size();
}

GainComputer::BestTarget ComputeProposal(const ProposalInputs& in, VertexId v,
                                         ProposalScratch* scratch,
                                         uint64_t* work) {
  const uint32_t deg = in.graph.DataDegree(v);
  if (deg == 0) return {};  // isolated: nothing to gain
  const BucketId from = in.partition.bucket_of(v);
  const int32_t group = in.topo.group_of_bucket[static_cast<size_t>(from)];
  if (group < 0) return {};  // bucket not refined at this level
  const double degree = static_cast<double>(deg);

  const bool explore = in.draw.Explores(v, from, deg);
  if (work != nullptr && (in.push || explore)) {
    *work += in.push ? PushScanWork(in.sweep, in.topo, from, v)
                   : 2 * uint64_t{deg};
  }
  GainComputer::BestTarget best;
  if (explore) {
    // Exploration proposal: random target with its true gain.
    const BucketId to = in.draw.Target(v);
    best = {to, in.push
                    ? in.gain.MoveGainPush(in.sweep, v, from, to, degree)
                    : in.gain.MoveGain(in.graph, in.ndata, v, from, to)};
  } else if (in.push) {
    // One scan of v's accumulator — windowed to its group under recursion,
    // where it holds one slot per sibling bucket.
    best = PushScan(in.gain, in.topo, from, in.sweep.Entries(v), degree);
  } else if (in.topo.full_k) {
    // FindBestTarget requires a zero-filled scratch and restores it, so
    // (re)sizing is the only moment the fill is paid.
    if (scratch->affinity.size() < static_cast<size_t>(in.topo.k)) {
      scratch->affinity.assign(static_cast<size_t>(in.topo.k), 0.0);
    }
    best = in.gain.FindBestTarget(in.graph, in.ndata, v, from, 0, in.topo.k,
                                  &scratch->affinity, &scratch->touched, work);
  } else {
    best = in.gain.FindBestTargetGrouped(
        in.graph, in.ndata, v, from,
        in.topo.group_children[static_cast<size_t>(group)], work);
  }
  return FinalizeProposal(best, v, from, in.anchor, in.anchor_penalty,
                          in.propose_nonpositive);
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

void CheckProposals(const ProposalInputs& in,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, ThreadPool* pool) {
  ProposalInputs pull = in;
  pull.push = false;
  std::vector<ProposalScratch> scratch(
      std::max<size_t>(1, pool->num_threads()));
  pool->ParallelFor(in.graph.num_data(), [&](size_t begin, size_t end,
                                             size_t w) {
    for (size_t vi = begin; vi < end; ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const GainComputer::BestTarget cached{targets[v], gains[v]};
      const GainComputer::BestTarget fresh =
          ComputeProposal(in, v, &scratch[w]);
      SHP_CHECK(fresh.bucket == cached.bucket && fresh.gain == cached.gain)
          << "stale cached proposal for v=" << v << ": cached ("
          << cached.bucket << ", " << cached.gain << ") vs fresh ("
          << fresh.bucket << ", " << fresh.gain << ")";
      if (!in.push) continue;
      const BucketId from = in.partition.bucket_of(v);
      CheckPushMatchesPull(v, ComputeProposal(pull, v, &scratch[w]), cached,
                           [&](BucketId to) {
                             return in.gain.MoveGain(in.graph, in.ndata, v,
                                                     from, to);
                           });
    }
  });
  if (!in.push) return;
  BucketWindows windows = in.topo.GroupWindows(in.partition);
  SHP_CHECK(windows == in.sweep.windows())
      << "a vertex left the accumulator window of its group";
  AffinitySweep fresh;
  fresh.Build(in.graph, in.ndata, in.gain.pow_table(), pool,
              std::move(windows));
  SHP_CHECK(in.sweep.ApproxEquals(fresh, 1e-9, 1e-9))
      << "patched affinity accumulators diverged from a fresh build";
}

}  // namespace shp
