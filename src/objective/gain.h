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
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
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
  // Each pull scan gathers the neighbor data of v's adjacent queries through
  // an entries source: a QueryNeighborData (the threaded Refiner), or any
  // callable mapping a query id to its bucket-sorted
  // std::span<const BucketCount> (the BSP engine's query replicas). The
  // source is a template parameter so the hot loops inline it.

  /// Entries source over a QueryNeighborData.
  static auto EntriesOf(const QueryNeighborData& ndata) {
    return [&ndata](VertexId q) { return ndata.Entries(q); };
  }

  /// Gain (objective decrease) of moving v from `from` to `to`, given current
  /// neighbor data. O(deg(v) · log fanout). from must be v's current bucket.
  double MoveGain(const BipartiteGraph& graph, const QueryNeighborData& ndata,
                  VertexId v, BucketId from, BucketId to) const {
    return MoveGain(graph, EntriesOf(ndata), v, from, to);
  }
  template <typename Entries>
  double MoveGain(const BipartiteGraph& graph, const Entries& entries,
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
                            std::vector<BucketId>* touched_scratch) const {
    return FindBestTarget(graph, EntriesOf(ndata), v, from, bucket_begin,
                          bucket_end, affinity_scratch, touched_scratch);
  }
  template <typename Entries>
  BestTarget FindBestTarget(const BipartiteGraph& graph,
                            const Entries& entries, VertexId v,
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
  template <typename Entries>
  BestTarget FindBestTargetGrouped(const BipartiteGraph& graph,
                                   const Entries& entries, VertexId v,
                                   BucketId from,
                                   std::span<const BucketId> candidates,
                                   uint64_t* lookups = nullptr) const;

  /// True iff the push-path gain formulas below are available: they divide
  /// by the pow base B to recover Σ B^{n_from−1} from the maintained
  /// affinity, so B must be nonzero (p < 1 or future_splits > 1). The p = 1,
  /// t = 1 fanout limit must use the pull path.
  bool SupportsPush() const { return pow_table_.base() > 0.0; }

  /// Push-path best-target scan: one sequential pass over v's maintained
  /// accumulator (O(|occupied buckets of N(v)|), no arena gather). Same
  /// candidate window, tie-break, and empty-bucket fallback semantics as
  /// FindBestTarget; gains agree with the pull path up to float summation
  /// order. Requires SupportsPush(); `degree` = graph.DataDegree(v).
  BestTarget FindBestTargetPush(const AffinitySweep& sweep, VertexId v,
                                BucketId from, BucketId bucket_begin,
                                BucketId bucket_end, double degree) const;

  /// Group-restricted push scan for recursion windows: candidates are the
  /// sibling buckets of v's group (ascending, containing `from`), and
  /// `window` is v's accumulator — on a sweep windowed to v's group
  /// (move_topology.h GroupWindow), exactly the window spanning them, so
  /// the scan is one kernel argmax; wider lists are merged against the
  /// candidates. Same tie-break as the full-k scan; the empty-window
  /// fallback is the lowest sibling ≠ from, matching the grouped pull
  /// path's first-candidate-wins argmax. O(|candidates| + window).
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

template <typename Entries>
double GainComputer::MoveGain(const BipartiteGraph& graph,
                              const Entries& entries, VertexId v,
                              BucketId from, BucketId to) const {
  if (from == to) return 0.0;
  double gain = 0.0;
  for (VertexId q : graph.DataNeighbors(v)) {
    const std::span<const BucketCount> list = entries(q);
    const uint32_t n_from = CountIn(list, from);
    const uint32_t n_to = CountIn(list, to);
    SHP_DCHECK(n_from >= 1);
    gain += pow_table_.Pow(n_from - 1) - pow_table_.Pow(n_to);
  }
  return p_ * gain;
}

template <typename Entries>
GainComputer::BestTarget GainComputer::FindBestTarget(
    const BipartiteGraph& graph, const Entries& entries, VertexId v,
    BucketId from, BucketId bucket_begin, BucketId bucket_end,
    std::vector<double>* affinity_scratch,
    std::vector<BucketId>* touched_scratch, uint64_t* entries_scanned) const {
  SHP_DCHECK(bucket_begin < bucket_end);
  SHP_DCHECK(affinity_scratch->size() >= static_cast<size_t>(bucket_end));
  std::vector<double>& affinity = *affinity_scratch;
  std::vector<BucketId>& touched = *touched_scratch;
  touched.clear();

  // Σ_q B^{n_j(q)} = deg(v) − Σ_{q : n_j(q)>0} (1 − B^{n_j(q)}). We
  // accumulate the sparse second term ("affinity") per candidate bucket; an
  // untouched bucket has affinity 0. Larger affinity = better target.
  // `from` always contains v, so every adjacent query holds a `from` entry
  // and the base term Σ_q B^{n_from(q)−1} is complete.
  double base = 0.0;
  double degree = 0.0;
  for (VertexId q : graph.DataNeighbors(v)) {
    degree += 1.0;
    const std::span<const BucketCount> list = entries(q);
    if (entries_scanned != nullptr) *entries_scanned += list.size();
    for (const BucketCount& entry : list) {
      if (entry.bucket == from) {
        base += pow_table_.Pow(entry.count - 1);
        continue;
      }
      if (entry.bucket < bucket_begin || entry.bucket >= bucket_end) continue;
      const size_t b = static_cast<size_t>(entry.bucket);
      if (affinity[b] == 0.0) touched.push_back(entry.bucket);
      affinity[b] += 1.0 - pow_table_.Pow(entry.count);
    }
  }

  // Best touched bucket. Ties (within kAffinityTieEpsilon) must resolve to
  // the lower bucket id on both scan paths, so scan candidates in ascending
  // bucket order — `touched` is in first-encounter order, which depends on
  // the adjacency layout, not the bucket ids.
  std::sort(touched.begin(), touched.end());
  double best_affinity = 0.0;  // affinity of an empty bucket
  BucketId best_bucket = -1;
  for (BucketId b : touched) {
    if (affinity[static_cast<size_t>(b)] >
        best_affinity + kAffinityTieEpsilon) {
      best_affinity = affinity[static_cast<size_t>(b)];
      best_bucket = b;
    }
  }
  for (BucketId b : touched) affinity[static_cast<size_t>(b)] = 0.0;
  if (best_bucket == -1) {
    // All candidates are as good as an empty bucket (the fallback's gain is
    // the empty-bucket gain).
    best_bucket = EmptyWindowFallback(from, bucket_begin, bucket_end);
    if (best_bucket == -1) return BestTarget{-1, 0.0};
  }
  const double sum_pow_to = degree - best_affinity;
  return BestTarget{best_bucket, p_ * (base - sum_pow_to)};
}

template <typename Entries>
GainComputer::BestTarget GainComputer::FindBestTargetGrouped(
    const BipartiteGraph& graph, const Entries& entries, VertexId v,
    BucketId from, std::span<const BucketId> candidates,
    uint64_t* lookups) const {
  BestTarget best;
  bool first = true;
  for (BucketId candidate : candidates) {
    if (candidate == from) continue;
    const double g = MoveGain(graph, entries, v, from, candidate);
    if (lookups != nullptr) *lookups += 2 * graph.DataDegree(v);
    if (first || g > best.gain) {
      best = {candidate, g};
      first = false;
    }
  }
  return best;
}

}  // namespace shp
