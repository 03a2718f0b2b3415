// Deterministic pseudo-random number generation.
//
// The partitioner is randomized in three places (initial assignment, move
// probabilities, tie-breaking); reproducible experiments require that every
// random decision be a pure function of (seed, vertex id, iteration). We use
// SplitMix64 as a stateless hash-style generator for that purpose, and
// xoshiro256** as a fast sequential generator for workload synthesis.
#pragma once

#include <cstdint>
#include <limits>

namespace shp {

/// One SplitMix64 mixing step: maps any 64-bit value to a well-distributed
/// 64-bit value. Stateless; usable as a hash.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Mixes several words into one (for per-(seed, vertex, iteration) streams).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}
inline uint64_t HashCombine(uint64_t a, uint64_t b, uint64_t c) {
  return HashCombine(HashCombine(a, b), c);
}

/// Fast sequential PRNG (xoshiro256**, Blackman & Vigna). Not cryptographic.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-seeds all four lanes from SplitMix64(seed) per the reference
  /// initialization, so nearby seeds yield unrelated streams.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& lane : s_) {
      x = SplitMix64(x + 0x9e3779b97f4a7c15ULL);
      lane = x;
    }
    // The all-zero state is invalid for xoshiro; nudge if it happens.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's multiply-shift
  /// reduction (slightly biased for huge bounds; fine for workload synthesis).
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability prob (clamped to [0,1]).
  bool NextBernoulli(double prob) { return NextDouble() < prob; }

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Standard exponential (mean 1).
  double NextExponential();

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() {
    return std::numeric_limits<uint64_t>::max();
  }
  uint64_t operator()() { return Next(); }

  /// Same state, so the same stream of every draw kind from here on.
  bool operator==(const Rng&) const = default;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Stateless uniform double in [0,1) derived from a hash of the inputs.
/// The same (seed, a, b) always yields the same value, independent of thread
/// scheduling — this is what makes the threaded refiner deterministic.
inline double HashToUnitDouble(uint64_t seed, uint64_t a, uint64_t b) {
  return static_cast<double>(HashCombine(seed, a, b) >> 11) * 0x1.0p-53;
}

/// Stateless uniform integer in [0, bound) from a hash of the inputs.
inline uint64_t HashToBounded(uint64_t seed, uint64_t a, uint64_t b,
                              uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(HashCombine(seed, a, b)) * bound) >> 64);
}

}  // namespace shp
