// Signed exponential gain histograms and the bin-matching scheme of paper
// §3.4: "Instead of maintaining two queues for each pair of buckets, we
// maintain two histograms that contain the number of vertices with move
// gains in exponentially sized bins. We then match bins in the two
// histograms for maximal swapping with probability one, and then
// probabilistically pair the remaining vertices in the final matched bins."
//
// Bin layout (num_levels = L): index 0..L-1 are negative gains from most to
// least negative, index L is the near-zero bin (|g| ≤ min_gain), and
// L+1..2L are positive gains from least to most positive. Higher index =
// higher gain, so matching proceeds from the top down. A negative bin can be
// matched against a positive one when the representative gain sum stays
// positive ("a pair of positive and negative histogram bins can swap if the
// sum of the gains is expected to be positive").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shp {

class GainBinning {
 public:
  /// min_gain: width of the zero bin; growth: bin size ratio; num_levels:
  /// bins per sign.
  GainBinning(double min_gain = 1e-8, double growth = 2.0,
              int num_levels = 40);

  int num_bins() const { return 2 * num_levels_ + 1; }
  int zero_bin() const { return num_levels_; }

  /// Bin index of a gain value.
  int BinFor(double gain) const;

  /// Representative (geometric-midpoint) gain of a bin; 0 for the zero bin.
  /// A lookup: the table is built once at construction, so the matching
  /// loop calls no std::pow.
  double Representative(int bin) const {
    return representative_[static_cast<size_t>(bin)];
  }

 private:
  double min_gain_;
  double log_growth_;
  int num_levels_;
  std::vector<double> representative_;
};

/// One directed gain histogram (bucket i -> bucket j) in flat storage:
/// per-bin counts plus a bitmask with bit b set iff counts[b] > 0, so a scan
/// costs the occupied bins rather than num_bins. A null `occupied` is an
/// empty histogram.
struct GainRow {
  const uint32_t* counts = nullptr;
  const uint64_t* occupied = nullptr;
};

/// 64-bit words of an occupied-bin bitmask over `bins` bins.
inline int OccupiedWords(int bins) { return (bins + 63) / 64; }

/// Highest set bit of `occupied` at or below `bin`, or -1 (also for bin < 0).
int PrevOccupiedBin(const uint64_t* occupied, int bin);

/// Matches the two directed histograms of a bucket pair top-down. Bins are
/// matched while the representative gain sum is positive; fully matched bins
/// get probability 1, the final partially matched bin gets a fractional
/// probability, everything else 0. This focuses movement on the highest
/// gains first (the paper's motivation) while keeping expected flow
/// symmetric, preserving balance in expectation.
///
/// Writes the probability of every occupied bin of `forward` into
/// forward_probs[bin] and of `backward` into backward_probs[bin]; the other
/// entries are left untouched (their probability is 0), and an empty side's
/// array is not written at all. Returns the expected number of swapped pairs.
double MatchHistograms(const GainBinning& binning, GainRow forward,
                       GainRow backward, double* forward_probs,
                       double* backward_probs);

}  // namespace shp
