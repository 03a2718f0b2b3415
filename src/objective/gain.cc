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

GainComputer::BestTarget GainComputer::FindBestTargetPush(
    const AffinitySweep& sweep, VertexId v, BucketId from,
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
  const auto all = sweep.Entries(v);
  const AffinityEntry* adata = all.data();
  const AffinityEntry* aend = adata + all.size();
  const AffinityEntry* from_it =
      std::lower_bound(adata, aend, from, kBucketLess);
  SHP_DCHECK(from_it != aend && from_it->bucket == from)
      << "from-bucket accumulator entry missing for v=" << v;
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
        << "SIMD push scan diverged from scalar for v=" << v;
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

  // The candidate list (sibling buckets, ascending, containing `from`) and
  // the accumulator window spanning it are both bucket-sorted. The common
  // case — recursion groups are contiguous bucket ranges and the sweep is
  // windowed to exactly that range — means every window entry IS a
  // sibling, so the scan collapses to the kernel argmax with the `from`
  // entry excised. Sparse candidate sets or wider lists (an unwindowed
  // sweep) fall back to the forward merge, which stays exact for arbitrary
  // groups.
  double from_affinity = -1.0;
  double best_affinity = 0.0;  // affinity of an empty sibling
  BucketId best_bucket = -1;
  const bool contiguous =
      static_cast<size_t>(candidates.back() - candidates.front()) + 1 ==
      candidates.size();
  if (contiguous && !window.empty() &&
      window.front().bucket >= candidates.front() &&
      window.back().bucket <= candidates.back()) {
    const AffinityEntry* wdata = window.data();
    const AffinityEntry* wend = wdata + window.size();
    const AffinityEntry* from_it =
        std::lower_bound(wdata, wend, from, kBucketLess);
    if (from_it != wend && from_it->bucket == from) {
      from_affinity = from_it->affinity;
    } else {
      from_it = wend;  // nothing to excise — from is not in the window
    }
    AffinityScanBest best;  // {0.0, -1}: affinity of an empty sibling
    ScanSkippingFrom(ActiveAffinityScan(), wdata, wend, from_it, &best);
#ifndef NDEBUG
    {
      AffinityScanBest ref;
      ScanSkippingFrom(&ScanAffinityRunScalar, wdata, wend, from_it, &ref);
      SHP_DCHECK(ref.affinity == best.affinity && ref.bucket == best.bucket)
          << "SIMD grouped scan diverged from scalar (from=" << from << ")";
    }
#endif
    best_affinity = best.affinity;
    best_bucket = best.bucket;
  } else {
    size_t c = 0;
    for (const AffinityEntry& entry : window) {
      while (c < candidates.size() && candidates[c] < entry.bucket) ++c;
      if (c == candidates.size()) break;
      if (candidates[c] != entry.bucket) continue;
      if (entry.bucket == from) {
        from_affinity = entry.affinity;
        continue;
      }
      if (entry.affinity > best_affinity + kAffinityTieEpsilon) {
        best_affinity = entry.affinity;
        best_bucket = entry.bucket;
      }
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
