// Move-gain computation (paper Eq. 1) and its §3.4 future-split variant.
//
// Sign convention: we define the gain of moving data vertex v from bucket i
// to bucket j as the *decrease* of the p-fanout objective,
//
//   gain_j(v) = p · Σ_{q ∈ N(v)} ( B^{n_i(q)-1} − B^{n_j(q)} ),   B = 1 − p
//
// so positive gain = improvement. (The paper states Eq. 1 as the objective
// delta and maximizes the negated value; the algebra is identical.)
//
// Future-split generalization (paper §3.4): when the current buckets will
// each later split into t leaves, the projected final contribution of a
// (query, bucket) pair with r neighbors is t·(1 − (1 − p/t)^r); the gain
// formula keeps the same shape with base B = 1 − p/t and leading factor p.
// t = 1 recovers plain p-fanout. The fanout limit p→1 and the clique-net
// limit p→0 are obtained by setting p accordingly (Lemmas 1-2).
//
// Two scan directions compute the same gains: the pull scans gather the
// neighbor data of v's adjacent queries from the QueryNeighborData store
// both refinement engines keep; the push scans read v's maintained
// accumulator (objective/affinity_sweep.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/neighbor_data.h"
#include "objective/pow_table.h"

namespace shp {

class GainComputer {
 public:
  /// Affinities within this absolute distance are treated as tied; ties
  /// resolve to the lower bucket id in *both* the pull and push scans, so
  /// the two paths pick the same target whenever their (float-order-
  /// divergent) affinities agree to well above this epsilon.
  static constexpr double kAffinityTieEpsilon = 1e-15;
  /// p in (0, 1]; future_splits t ≥ 1 (§3.4 projected-final objective).
  /// max_query_degree bounds the pow table (pass graph.MaxQueryDegree()).
  GainComputer(double p, uint32_t max_query_degree, uint32_t future_splits = 1);

  double p() const { return p_; }
  double pow_base() const { return pow_table_.base(); }
  /// The B^n table shared with the affinity sweep (AffinitySweep::Build /
  /// ApplyDeltas must use the same base as the gain formulas).
  const PowTable& pow_table() const { return pow_table_; }

  /// B^n for the configured base.
  double Pow(uint32_t n) const { return pow_table_.Pow(n); }

  // ---- pull scans ----

  /// Gain (objective decrease) of moving v from `from` to `to`, given current
  /// neighbor data. O(deg(v) · log fanout). from must be v's current bucket.
  double MoveGain(const BipartiteGraph& graph, const QueryNeighborData& ndata,
                  VertexId v, BucketId from, BucketId to) const;

  /// Result of a best-target search.
  struct BestTarget {
    BucketId bucket = -1;
    double gain = 0.0;  ///< improvement; may be ≤ 0 if no positive move
  };

  /// Finds the target bucket in [bucket_begin, bucket_end) \ {from} with the
  /// maximum gain for v. `affinity_scratch` must have ≥ bucket_end entries
  /// and be zero-filled; it is restored to zero before returning (touched-
  /// list reset), so callers can reuse it across vertices. O(Σ_{q∈N(v)}
  /// fanout(q)) — independent of k, per the sparse neighbor-data design.
  /// `entries_scanned`, if non-null, is increased by that Σ (the BSP
  /// engine's superstep-2 work unit).
  BestTarget FindBestTarget(const BipartiteGraph& graph,
                            const QueryNeighborData& ndata, VertexId v,
                            BucketId from, BucketId bucket_begin,
                            BucketId bucket_end,
                            std::vector<double>* affinity_scratch,
                            std::vector<BucketId>* touched_scratch,
                            uint64_t* entries_scanned = nullptr) const;

  /// Grouped pull scan for recursion windows: evaluates every sibling
  /// candidate ≠ from directly (MoveGain) and keeps the first maximum over
  /// the ascending candidates — the pick the grouped push scan's fallback
  /// reproduces. O(|candidates| · deg(v) · log fanout). `lookups`, if
  /// non-null, is increased by the two count lookups per adjacent query and
  /// candidate.
  BestTarget FindBestTargetGrouped(const BipartiteGraph& graph,
                                   const QueryNeighborData& ndata, VertexId v,
                                   BucketId from,
                                   std::span<const BucketId> candidates,
                                   uint64_t* lookups = nullptr) const;

  /// True iff the push-path gain formulas below are available: they divide
  /// by the pow base B to recover Σ B^{n_from−1} from the maintained
  /// affinity, so B must be nonzero (p < 1 or future_splits > 1). The p = 1,
  /// t = 1 fanout limit must use the pull path.
  bool SupportsPush() const { return pow_table_.base() > 0.0; }

  /// Push-path best-target scan: one sequential pass over v's maintained
  /// accumulator `entries` (AffinitySweep::Entries(v), or the copy an
  /// ApplyDeltas visitor receives; O(|occupied buckets of N(v)|), no arena
  /// gather). Same candidate window, tie-break, and empty-bucket fallback
  /// semantics as FindBestTarget; gains agree with the pull path up to float
  /// summation order. Requires SupportsPush(); `degree` =
  /// graph.DataDegree(v).
  BestTarget FindBestTargetPush(std::span<const AffinityEntry> entries,
                                BucketId from, BucketId bucket_begin,
                                BucketId bucket_end, double degree) const;

  /// Group-restricted push scan for recursion windows: candidates are the
  /// sibling buckets of v's group (ascending, containing `from`), and
  /// `window` is v's accumulator on a sweep windowed to v's group
  /// (MoveTopology::GroupWindows): slot i holds candidates[i], an
  /// unoccupied one at affinity 0.0 that never beats an empty bucket. One
  /// scalar scan over the slots, with the full-k scan's tie-break; the
  /// empty-window fallback is the lowest sibling ≠ from, matching the
  /// grouped pull path's first-candidate-wins argmax. O(|candidates|).
  /// Requires SupportsPush().
  BestTarget FindBestTargetPushGrouped(std::span<const AffinityEntry> window,
                                       BucketId from,
                                       std::span<const BucketId> candidates,
                                       double degree) const;

  /// Push-path gain of moving v from `from` to a specific `to` (exploration
  /// proposals). O(log entries). Requires SupportsPush().
  double MoveGainPush(const AffinitySweep& sweep, VertexId v, BucketId from,
                      BucketId to, double degree) const;

 private:
  /// Candidate when no bucket in [begin, end) \ {from} holds any neighbor
  /// of v: every such bucket is as good as empty, so the pull and push scans
  /// both pick the lowest non-`from` bucket in the window — the shared
  /// deterministic fallback. -1 when the window holds no bucket but `from`.
  static BucketId EmptyWindowFallback(BucketId from, BucketId begin,
                                      BucketId end) {
    const BucketId b = begin == from ? begin + 1 : begin;
    return b < end ? b : -1;
  }

  double p_;
  PowTable pow_table_;
};

}  // namespace shp
