// Multilevel hypergraph partitioner: the in-repo comparator standing in for
// Zoltan / Parkway / Mondriaan / hMetis (none of them ships with this
// repository). Classic three phases per bisection:
//
//   coarsen   — heavy-edge matching on the clique-net expansion until the
//               hypergraph is small,
//   initial   — balanced greedy split of the coarsest level + FM,
//   uncoarsen — project the bisection up the hierarchy, FM-refining at
//               every level.
//
// k-way partitions come from recursive bisection over induced subgraphs.
//
// The whole coarsening hierarchy must be resident, which is precisely the
// scalability wall the paper identifies for this family ("even the coarsest
// hypergraph might not fit the memory of a single machine", §2). The
// `memory_budget_bytes` option models that: a run whose hierarchy exceeds
// the budget fails with StatusCode::kOutOfRange, which the Table 3 bench
// reports the way the paper reports Zoltan/Parkway failures.
#pragma once

#include <cstdint>
#include <memory>

#include "baseline/coarsener.h"
#include "baseline/fm_refiner.h"
#include "core/shp.h"

namespace shp {

struct MultilevelOptions {
  /// Stop coarsening when the hypergraph has at most this many data
  /// vertices (or coarsening stalls).
  VertexId coarsest_size = 200;
  uint32_t max_levels = 40;
  double epsilon = 0.05;
  FmOptions fm;
  CoarsenOptions coarsen;
  uint64_t seed = 41;
  /// 0 = unlimited. Otherwise the peak hierarchy footprint allowed.
  uint64_t memory_budget_bytes = 0;
  /// Charge the modeled un-sampled expansion (Zoltan/Parkway-faithful
  /// accounting) against the budget instead of the sampled footprint this
  /// implementation actually allocates.
  bool full_expansion_accounting = true;
};

std::unique_ptr<Partitioner> MakeMultilevelPartitioner(
    const MultilevelOptions& options = {});

/// Peak memory the hierarchy would need (measured during a trial coarsen);
/// exposed for the scalability experiments.
uint64_t EstimateMultilevelMemory(const BipartiteGraph& graph,
                                  const MultilevelOptions& options);

}  // namespace shp
