#include "core/gain_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace shp {

GainBinning::GainBinning(double min_gain, double growth, int num_levels)
    : min_gain_(min_gain),
      log_growth_(std::log(growth)),
      num_levels_(num_levels) {
  SHP_CHECK_GT(min_gain, 0.0);
  SHP_CHECK_GT(growth, 1.0);
  SHP_CHECK_GE(num_levels, 1);
  representative_.resize(static_cast<size_t>(num_bins()));
  for (int bin = 0; bin < num_bins(); ++bin) {
    if (bin == zero_bin()) continue;  // 0.0
    const int level = std::abs(bin - zero_bin());
    // Geometric midpoint of [min_gain * growth^(level-1),
    // min_gain * growth^level).
    const double mid = min_gain * std::pow(growth, level - 0.5);
    representative_[static_cast<size_t>(bin)] = bin > zero_bin() ? mid : -mid;
  }
}

int GainBinning::BinFor(double gain) const {
  const double magnitude = std::abs(gain);
  if (!(magnitude > min_gain_)) return zero_bin();  // includes NaN
  int level = 1 + static_cast<int>(
                      std::floor(std::log(magnitude / min_gain_) /
                                 log_growth_));
  level = std::min(level, num_levels_);
  return gain > 0 ? zero_bin() + level : zero_bin() - level;
}

int PrevOccupiedBin(const uint64_t* occupied, int bin) {
  if (bin < 0) return -1;
  int word = bin / 64;
  uint64_t bits = occupied[word] & (~uint64_t{0} >> (63 - bin % 64));
  while (bits == 0) {
    if (--word < 0) return -1;
    bits = occupied[word];
  }
  return word * 64 + 63 - std::countl_zero(bits);
}

namespace {

/// Top-down cursor over one side's occupied bins: the current bin and how
/// many of its proposals are still unmatched.
struct MatchCursor {
  GainRow row;
  int bin;
  uint64_t left;

  MatchCursor(GainRow r, int top)
      : row(r), bin(r.occupied == nullptr ? -1 : PrevOccupiedBin(r.occupied, top)) {
    left = bin < 0 ? 0 : row.counts[bin];
  }
  void Next() {
    bin = PrevOccupiedBin(row.occupied, bin - 1);
    left = bin < 0 ? 0 : row.counts[bin];
  }
  /// Writes the probabilities of the current (partially matched) bin and
  /// of every occupied bin below it (unmatched: 0).
  void Finish(double* probs) {
    if (bin < 0) return;
    const uint32_t total = row.counts[bin];
    probs[bin] = std::min(1.0, static_cast<double>(total - left) /
                                   static_cast<double>(total));
    for (int b = PrevOccupiedBin(row.occupied, bin - 1); b >= 0;
         b = PrevOccupiedBin(row.occupied, b - 1)) {
      probs[b] = 0.0;
    }
  }
};

}  // namespace

double MatchHistograms(const GainBinning& binning, GainRow forward,
                       GainRow backward, double* forward_probs,
                       double* backward_probs) {
  // Two-pointer matching over the remaining counts, in integers: counts are
  // integers and each step takes the smaller remainder off both cursors, so
  // every remainder and matched total is an exact integer — the quotients
  // below are the same doubles a floating-point tally would produce. Each
  // step exhausts at least one cursor bin, which then gets probability 1.
  const int top = binning.num_bins() - 1;
  MatchCursor a(forward, top);
  MatchCursor b(backward, top);
  uint64_t swaps = 0;
  // Swap only while the expected pair gain is positive.
  while (a.bin >= 0 && b.bin >= 0 &&
         binning.Representative(a.bin) + binning.Representative(b.bin) > 0.0) {
    const uint64_t matched = std::min(a.left, b.left);
    a.left -= matched;
    b.left -= matched;
    swaps += matched;
    if (a.left == 0) {
      forward_probs[a.bin] = 1.0;
      a.Next();
    }
    if (b.left == 0) {
      backward_probs[b.bin] = 1.0;
      b.Next();
    }
  }
  a.Finish(forward_probs);
  b.Finish(backward_probs);
  return static_cast<double>(swaps);
}

}  // namespace shp
