// Move topology: which buckets a vertex may move to, and each bucket's
// capacity.
//
// Direct k-way SHP uses one group containing all k buckets. Recursive
// partitioning constrains each vertex to the children of its current
// subtree node (paper §3.3: "data vertices are constrained as to which
// buckets they are allowed to be moved to"); every subtree being split
// contributes one group whose members are its child bucket ids.
//
// Bucket ids are final-leaf ids (see core/partition.h), so they are sparse
// within [0, k) during recursion; group membership is resolved through
// group_of_bucket.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "objective/neighbor_data.h"

namespace shp {

struct MoveTopology {
  BucketId k = 0;
  /// Fast path: a single group over the contiguous bucket range [0, k).
  bool full_k = false;
  /// Per group: the bucket ids a member vertex may occupy (size ≥ 2),
  /// ascending. During recursion a group's members are the child-node ids of
  /// one split subtree — sparse within the subtree's leaf range, but no
  /// other group's buckets fall inside that range.
  std::vector<std::vector<BucketId>> group_children;
  /// bucket id -> group index, or -1 if the bucket is not being refined.
  std::vector<int32_t> group_of_bucket;
  /// Hard size cap per bucket id ( (1+ε)·n·leaves(bucket)/k ).
  std::vector<uint64_t> capacity;

  /// Half-open bucket-id window [begin, end) spanning group g's members —
  /// the slice of a sorted sparse accumulator that the group-restricted
  /// push scan reads. The threaded Refiner stores only this window per
  /// vertex (a windowed AffinitySweep, rebuilt for a new group structure).
  /// The BSP engine's accumulator replicas are topology-free: a
  /// recursion-level change re-slices this window, never rebuilds them.
  std::pair<BucketId, BucketId> GroupWindow(int32_t g) const {
    const std::vector<BucketId>& members =
        group_children[static_cast<size_t>(g)];
    return {members.front(), static_cast<BucketId>(members.back() + 1)};
  }

  /// Topology for direct k-way partitioning of n vertices.
  static MoveTopology FullK(BucketId k, uint64_t n, double epsilon) {
    MoveTopology topo;
    topo.k = k;
    topo.full_k = true;
    topo.group_children.resize(1);
    topo.group_children[0].reserve(static_cast<size_t>(k));
    for (BucketId b = 0; b < k; ++b) topo.group_children[0].push_back(b);
    topo.group_of_bucket.assign(static_cast<size_t>(k), 0);
    topo.capacity.assign(static_cast<size_t>(k),
                         BucketCapacity(n, k, /*leaves=*/1, epsilon));
    return topo;
  }

  /// Topology for an explicit group structure (tests and drivers that build
  /// recursion windows by hand): `groups` lists each group's member buckets
  /// (normalized to ascending). Each member's capacity covers the final
  /// leaves it owns,
  /// inferred from the recursion invariant that a bucket id is its node's
  /// lowest leaf id: bucket b spans the leaves up to the next member bucket
  /// (or k).
  static MoveTopology Grouped(BucketId k, uint64_t n, double epsilon,
                              std::vector<std::vector<BucketId>> groups) {
    MoveTopology topo;
    topo.k = k;
    topo.full_k = false;
    topo.group_of_bucket.assign(static_cast<size_t>(k), -1);
    topo.capacity.assign(static_cast<size_t>(k), 0);
    topo.group_children = std::move(groups);
    std::vector<BucketId> members;
    for (size_t g = 0; g < topo.group_children.size(); ++g) {
      // group_children must be ascending — GroupWindow and the grouped push
      // scan's candidate merge rely on it — so normalize hand-built input.
      std::sort(topo.group_children[g].begin(), topo.group_children[g].end());
      for (BucketId b : topo.group_children[g]) {
        topo.group_of_bucket[static_cast<size_t>(b)] =
            static_cast<int32_t>(g);
        members.push_back(b);
      }
    }
    std::sort(members.begin(), members.end());
    for (size_t i = 0; i < members.size(); ++i) {
      const BucketId next = i + 1 < members.size() ? members[i + 1] : k;
      topo.capacity[static_cast<size_t>(members[i])] =
          BucketCapacity(n, k, next - members[i], epsilon);
    }
    return topo;
  }

  /// Hard capacity of a bucket owning `leaves` of the k final leaves:
  /// floor((1+ε)·n·leaves/k), clamped below by ceil(n·leaves/k) so a
  /// perfectly even split always fits (tiny instances may then exceed ε —
  /// the paper's constraint is likewise infeasible at ε = 0 there).
  static uint64_t BucketCapacity(uint64_t n, BucketId k, BucketId leaves,
                                 double epsilon) {
    const double share =
        static_cast<double>(n) * static_cast<double>(leaves) /
        static_cast<double>(k);
    const uint64_t cap =
        static_cast<uint64_t>(std::floor((1.0 + epsilon) * share + 1e-9));
    const uint64_t feasible =
        static_cast<uint64_t>(std::ceil(share - 1e-9));
    return std::max(cap, feasible);
  }
};

}  // namespace shp
