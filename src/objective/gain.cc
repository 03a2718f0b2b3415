#include "objective/gain.h"

#include <algorithm>

#include "common/logging.h"
#include "objective/scan_kernels.h"

namespace shp {

namespace {

constexpr auto kBucketLess = [](const AffinityEntry& e, BucketId b) {
  return e.bucket < b;
};

/// Runs `scan` over [begin, end) with the entry at `skip` excised (when it
/// lies inside the range) — the kernels are pure epsilon-max scans, so the
/// caller splits around the `from` entry instead of branch-testing every
/// element.
inline void ScanSkippingFrom(AffinityScanFn scan, const AffinityEntry* begin,
                             const AffinityEntry* end,
                             const AffinityEntry* skip,
                             AffinityScanBest* best) {
  if (skip >= begin && skip < end) {
    scan(begin, skip, GainComputer::kAffinityTieEpsilon, best);
    scan(skip + 1, end, GainComputer::kAffinityTieEpsilon, best);
  } else {
    scan(begin, end, GainComputer::kAffinityTieEpsilon, best);
  }
}

}  // namespace

GainComputer::GainComputer(double p, uint32_t max_query_degree,
                           uint32_t future_splits)
    : p_(p),
      pow_table_(1.0 - p / std::max<uint32_t>(1, future_splits),
                 max_query_degree + 2) {
  SHP_CHECK_GT(p, 0.0);
  SHP_CHECK_LE(p, 1.0);
  SHP_CHECK_GE(future_splits, 1u);
}

double GainComputer::MoveGain(const BipartiteGraph& graph,
                              const QueryNeighborData& ndata, VertexId v,
                              BucketId from, BucketId to) const {
  if (from == to) return 0.0;
  double gain = 0.0;
  for (VertexId q : graph.DataNeighbors(v)) {
    const std::span<const BucketCount> list = ndata.Entries(q);
    const uint32_t n_from = CountIn(list, from);
    const uint32_t n_to = CountIn(list, to);
    SHP_DCHECK(n_from >= 1);
    gain += pow_table_.Pow(n_from - 1) - pow_table_.Pow(n_to);
  }
  return p_ * gain;
}

GainComputer::BestTarget GainComputer::FindBestTarget(
    const BipartiteGraph& graph, const QueryNeighborData& ndata, VertexId v,
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
    const std::span<const BucketCount> list = ndata.Entries(q);
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

GainComputer::BestTarget GainComputer::FindBestTargetGrouped(
    const BipartiteGraph& graph, const QueryNeighborData& ndata, VertexId v,
    BucketId from, std::span<const BucketId> candidates,
    uint64_t* lookups) const {
  BestTarget best;
  bool first = true;
  for (BucketId candidate : candidates) {
    if (candidate == from) continue;
    const double g = MoveGain(graph, ndata, v, from, candidate);
    if (lookups != nullptr) *lookups += 2 * graph.DataDegree(v);
    if (first || g > best.gain) {
      best = {candidate, g};
      first = false;
    }
  }
  return best;
}

GainComputer::BestTarget GainComputer::FindBestTargetPush(
    std::span<const AffinityEntry> entries, BucketId from,
    BucketId bucket_begin, BucketId bucket_end, double degree) const {
  SHP_DCHECK(bucket_begin < bucket_end);
  SHP_DCHECK(SupportsPush());

  // The accumulator already holds the sparse affinity of every occupied
  // bucket, sorted ascending — the argmax is one sequential scan of v's own
  // (contiguous) entries, with the same tie-break and fallback as the pull
  // scan. The `from` entry always exists (v itself keeps each adjacent
  // query's n_from ≥ 1) and yields the base term: affinity_v[from] =
  // deg − Σ_q B^{n_from(q)}, so Σ_q B^{n_from(q)−1} = (deg − affinity)/B.
  // The entry list is bucket-sorted, so `from` and the candidate window are
  // located by binary search and the scan itself runs through the dispatched
  // kernel (note `from` may lie outside [bucket_begin, bucket_end) — its
  // lookup is over the full list, not the window).
  const AffinityEntry* adata = entries.data();
  const AffinityEntry* aend = adata + entries.size();
  const AffinityEntry* from_it =
      std::lower_bound(adata, aend, from, kBucketLess);
  SHP_DCHECK(from_it != aend && from_it->bucket == from)
      << "from-bucket accumulator entry missing (from=" << from << ")";
  const double from_affinity = from_it->affinity;
  const AffinityEntry* lo =
      std::lower_bound(adata, aend, bucket_begin, kBucketLess);
  const AffinityEntry* hi = std::lower_bound(lo, aend, bucket_end, kBucketLess);

  AffinityScanBest best;  // {0.0, -1}: affinity of an empty bucket
  ScanSkippingFrom(ActiveAffinityScan(), lo, hi, from_it, &best);
#ifndef NDEBUG
  {
    AffinityScanBest ref;
    ScanSkippingFrom(&ScanAffinityRunScalar, lo, hi, from_it, &ref);
    SHP_DCHECK(ref.affinity == best.affinity && ref.bucket == best.bucket)
        << "SIMD push scan diverged from scalar (from=" << from << ")";
  }
#endif
  double best_affinity = best.affinity;
  BucketId best_bucket = best.bucket;
  if (best_bucket == -1) {
    best_bucket = EmptyWindowFallback(from, bucket_begin, bucket_end);
    if (best_bucket == -1) return BestTarget{-1, 0.0};
  }

  const double base = (degree - from_affinity) / pow_table_.base();
  const double sum_pow_to = degree - best_affinity;
  return BestTarget{best_bucket, p_ * (base - sum_pow_to)};
}

GainComputer::BestTarget GainComputer::FindBestTargetPushGrouped(
    std::span<const AffinityEntry> window, BucketId from,
    std::span<const BucketId> candidates, double degree) const {
  SHP_DCHECK(!candidates.empty());
  SHP_DCHECK(std::is_sorted(candidates.begin(), candidates.end()))
      << "grouped candidates must ascend (MoveTopology group_children "
         "invariant)";
  SHP_DCHECK(SupportsPush());
  SHP_DCHECK(window.size() == candidates.size())
      << "grouped push scan needs a positional window (one slot per sibling)";

  // The window is positional (AffinitySweep windowed by
  // MoveTopology::GroupWindows): slot i holds candidates[i], an unoccupied
  // sibling at affinity 0.0, which never beats an empty bucket's 0.0. So
  // the argmax is one scan over the slots with the `from` slot excised.
  double from_affinity = -1.0;
  double best_affinity = 0.0;  // affinity of an empty sibling
  BucketId best_bucket = -1;
  for (size_t i = 0; i < window.size(); ++i) {
    const AffinityEntry& entry = window[i];
    SHP_DCHECK(entry.bucket == candidates[i])
        << "window slot " << i << " holds bucket " << entry.bucket
        << ", not sibling " << candidates[i];
    if (entry.bucket == from) {
      from_affinity = entry.affinity;
    } else if (entry.affinity > best_affinity + kAffinityTieEpsilon) {
      best_affinity = entry.affinity;
      best_bucket = entry.bucket;
    }
  }
  SHP_DCHECK(from_affinity >= 0.0)
      << "from-bucket accumulator entry missing in grouped window (from="
      << from << ")";
  if (best_bucket == -1) {
    // Every sibling is as good as empty: lowest sibling ≠ from — the same
    // pick the grouped pull argmax makes (candidates ascend, ties keep the
    // first).
    for (BucketId b : candidates) {
      if (b != from) {
        best_bucket = b;
        break;
      }
    }
    if (best_bucket == -1) return BestTarget{-1, 0.0};
  }

  const double base = (degree - from_affinity) / pow_table_.base();
  const double sum_pow_to = degree - best_affinity;
  return BestTarget{best_bucket, p_ * (base - sum_pow_to)};
}

double GainComputer::MoveGainPush(const AffinitySweep& sweep, VertexId v,
                                  BucketId from, BucketId to,
                                  double degree) const {
  if (from == to) return 0.0;
  SHP_DCHECK(SupportsPush());
  const double base =
      (degree - sweep.AffinityFor(v, from)) / pow_table_.base();
  const double sum_pow_to = degree - sweep.AffinityFor(v, to);
  return p_ * (base - sum_pow_to);
}

}  // namespace shp
