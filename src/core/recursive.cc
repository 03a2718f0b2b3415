#include "core/recursive.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/move_topology.h"
#include "core/partition.h"

namespace shp {

namespace {

/// A bucket-tree node: final-leaf range [lo, hi); bucket id = lo.
struct Node {
  BucketId lo;
  BucketId hi;
  BucketId size() const { return hi - lo; }
};

/// Splits [lo, hi) into ≤ r child ranges differing in size by at most 1.
std::vector<Node> SplitNode(const Node& node, int r) {
  const BucketId size = node.size();
  const int children = std::min<int>(r, size);
  std::vector<Node> out;
  out.reserve(static_cast<size_t>(children));
  BucketId cursor = node.lo;
  for (int c = 0; c < children; ++c) {
    const BucketId span = size / children + (c < size % children ? 1 : 0);
    out.push_back({cursor, cursor + span});
    cursor += span;
  }
  SHP_DCHECK(cursor == node.hi);
  return out;
}

}  // namespace

RecursivePartitioner::RecursivePartitioner(const RecursiveOptions& options)
    : options_(options) {
  SHP_CHECK_GT(options.k, 1);
  SHP_CHECK_GE(options.branching, 2);
  SHP_CHECK_GT(options.p, 0.0);
  SHP_CHECK_LE(options.p, 1.0);
}

uint32_t RecursivePartitioner::NumLevels() const {
  uint32_t levels = 0;
  BucketId reach = 1;
  while (reach < options_.k) {
    reach = static_cast<BucketId>(
        std::min<int64_t>(static_cast<int64_t>(reach) * options_.branching,
                          options_.k));
    ++levels;
  }
  return levels;
}

RecursiveResult RecursivePartitioner::Run(const BipartiteGraph& graph,
                                          ThreadPool* pool) const {
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId n = graph.num_data();
  const BucketId k = options_.k;
  const uint32_t total_levels = NumLevels();

  RecursiveResult result;
  result.k = k;

  Partition partition(n, k);  // everything starts in bucket 0 = root node
  std::vector<Node> active{{0, k}};

  RefinerOptions refiner_options = options_.refiner;
  refiner_options.p = options_.p;

  for (uint32_t level = 1; !active.empty(); ++level) {
    // 1. Split every active node; compute the new node set and topology.
    std::vector<Node> next_active;
    MoveTopology topo;
    topo.k = k;
    topo.full_k = false;
    topo.group_of_bucket.assign(static_cast<size_t>(k), -1);
    topo.capacity.assign(static_cast<size_t>(k), 0);

    // ε for this level (§3.4: scale by completed-split fraction).
    const double eps_level =
        options_.scale_epsilon_by_depth
            ? options_.epsilon * static_cast<double>(level) /
                  static_cast<double>(total_levels)
            : options_.epsilon;

    // Future-split factor: leaves per child bucket after this level.
    BucketId max_child_leaves = 1;

    std::vector<std::pair<Node, std::vector<Node>>> splits;
    for (const Node& node : active) {
      std::vector<Node> children = SplitNode(node, options_.branching);
      SHP_DCHECK(children.size() >= 2);
      auto& group = topo.group_children.emplace_back();
      for (const Node& child : children) {
        group.push_back(child.lo);
        topo.group_of_bucket[static_cast<size_t>(child.lo)] =
            static_cast<int32_t>(topo.group_children.size() - 1);
        // Capacity proportional to the child's share of final leaves.
        topo.capacity[static_cast<size_t>(child.lo)] =
            MoveTopology::BucketCapacity(n, k, child.size(), eps_level);
        max_child_leaves = std::max(max_child_leaves, child.size());
        if (child.size() > 1) next_active.push_back(child);
      }
      splits.emplace_back(node, std::move(children));
    }

    // 2. Random initial distribution of each node's vertices over its
    // children, with *exact* quotas proportional to child leaf counts:
    // vertices are hash-shuffled within their node and dealt to children by
    // quota. Distributionally this matches the paper's independent random
    // draws at scale, but it is feasible (within capacity) even for tiny
    // nodes, where independent draws can violate ε outright.
    struct ChildDist {
      std::vector<BucketId> child_lo;
      std::vector<BucketId> child_leaves;
      BucketId total_leaves = 0;
    };
    std::vector<ChildDist> dist_of(static_cast<size_t>(k));
    for (const auto& [node, children] : splits) {
      ChildDist& dist = dist_of[static_cast<size_t>(node.lo)];
      for (const Node& child : children) {
        dist.child_lo.push_back(child.lo);
        dist.child_leaves.push_back(child.size());
        dist.total_leaves += child.size();
      }
    }
    // Group vertices per split node.
    std::vector<std::vector<VertexId>> members(static_cast<size_t>(k));
    for (VertexId v = 0; v < n; ++v) {
      const BucketId current = partition.bucket_of(v);
      if (dist_of[static_cast<size_t>(current)].total_leaves > 0) {
        members[static_cast<size_t>(current)].push_back(v);
      }
    }
    for (const auto& [node, children] : splits) {
      auto& list = members[static_cast<size_t>(node.lo)];
      const ChildDist& dist = dist_of[static_cast<size_t>(node.lo)];
      // Hash-shuffle (deterministic per seed and level).
      std::sort(list.begin(), list.end(), [&](VertexId a, VertexId b) {
        const uint64_t ha = HashCombine(options_.seed ^ 0x2ec5,
                                        level * 0x9e3779b9ULL + a, 0);
        const uint64_t hb = HashCombine(options_.seed ^ 0x2ec5,
                                        level * 0x9e3779b9ULL + b, 0);
        if (ha != hb) return ha < hb;
        return a < b;
      });
      // Deal by quota (largest remainder handled by the trailing child).
      size_t cursor = 0;
      for (size_t c = 0; c < dist.child_lo.size(); ++c) {
        size_t quota =
            list.size() * dist.child_leaves[c] / dist.total_leaves;
        if (c + 1 == dist.child_lo.size()) quota = list.size() - cursor;
        for (size_t i = 0; i < quota && cursor < list.size(); ++i) {
          partition.Move(list[cursor++], dist.child_lo[c]);
        }
      }
    }

    // 3. Refine this level: all sibling groups concurrently, one Refiner
    // pass per iteration, per-vertex moves constrained to siblings. One
    // refiner per level: its incremental state (neighbor data, accumulators
    // windowed to this level's sibling groups, cached proposals) lives
    // exactly as long as the level's group structure.
    refiner_options.future_splits =
        options_.future_split_objective
            ? static_cast<uint32_t>(max_child_leaves)
            : 1;
    const std::unique_ptr<RefinerInterface> refiner =
        options_.refiner_factory
            ? options_.refiner_factory(graph, refiner_options)
            : std::make_unique<Refiner>(graph, refiner_options);

    RecursiveLevelRecord record;
    record.level = level;
    record.active_groups = static_cast<uint32_t>(topo.group_children.size());
    for (uint32_t iter = 0; iter < options_.iterations_per_level; ++iter) {
      const IterationStats stats = refiner->RunIteration(
          topo, &partition, options_.seed + level, iter, pool);
      result.history.push_back(
          {static_cast<uint32_t>(result.history.size()), stats});
      ++record.iterations_run;
      record.total_moved += stats.num_moved;
      if (stats.moved_fraction < options_.min_move_fraction) break;
    }
    result.level_history.push_back(record);
    ++result.levels_run;
    active = std::move(next_active);
  }

  result.assignment = partition.assignment();
  return result;
}

}  // namespace shp
