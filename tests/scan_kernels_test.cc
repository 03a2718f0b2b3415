// Push-scan kernel equivalence tests: the AVX2 block-skip kernel must be
// bit-identical to the scalar sequential epsilon-guarded max — including
// tie-at-epsilon adversaries where the order-dependent rule diverges from a
// plain max-reduction — and the dispatched kernel must be one of the two.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "objective/gain.h"
#include "objective/scan_kernels.h"

namespace shp {
namespace {

constexpr double kEps = GainComputer::kAffinityTieEpsilon;

std::vector<AffinityEntry> MakeRun(const std::vector<double>& affinities) {
  std::vector<AffinityEntry> run;
  run.reserve(affinities.size());
  BucketId bucket = 0;
  for (double a : affinities) {
    run.push_back({bucket, 1, a});
    bucket += 1;
  }
  return run;
}

AffinityScanBest RunKernel(AffinityScanFn fn,
                           const std::vector<AffinityEntry>& run) {
  AffinityScanBest best;
  fn(run.data(), run.data() + run.size(), kEps, &best);
  return best;
}

void ExpectSameBest(const AffinityScanBest& a, const AffinityScanBest& b,
                    const char* what) {
  EXPECT_EQ(a.bucket, b.bucket) << what;
  EXPECT_EQ(a.affinity, b.affinity) << what;  // bit-identical, no tolerance
}

TEST(ScanKernels, EmptyRunLeavesStateUntouched) {
  const std::vector<AffinityEntry> run;
  ExpectSameBest(RunKernel(ScanAffinityRunScalar, run),
                 AffinityScanBest{0.0, -1}, "scalar empty");
  if (AffinityScanFn simd = SimdAffinityScan();
      simd != nullptr && SimdScanAvailable()) {
    ExpectSameBest(RunKernel(simd, run), AffinityScanBest{0.0, -1},
                   "simd empty");
  }
}

TEST(ScanKernels, DispatcherPicksACompiledKernel) {
  AffinityScanFn active = ActiveAffinityScan();
  ASSERT_NE(active, nullptr);
  if (SimdScanAvailable()) {
    EXPECT_EQ(active, SimdAffinityScan());
  } else {
    EXPECT_EQ(active, &ScanAffinityRunScalar);
  }
  // Compiled-but-unavailable (old CPU) still reports a kernel pointer.
  if (SimdScanCompiled()) {
    EXPECT_NE(SimdAffinityScan(), nullptr);
  } else {
    EXPECT_EQ(SimdAffinityScan(), nullptr);
    EXPECT_FALSE(SimdScanAvailable());
  }
}

TEST(ScanKernels, SimdMatchesScalarOnRandomizedRuns) {
  if (!SimdScanAvailable()) {
    GTEST_SKIP() << "AVX2 kernel not available on this host/build";
  }
  AffinityScanFn simd = SimdAffinityScan();
  std::mt19937_64 rng(0x51caa);
  std::uniform_real_distribution<double> dist(0.0, 4.0);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = rng() % 37;  // covers empty, sub-block, and tail sizes
    std::vector<double> affs(n);
    for (double& a : affs) a = dist(rng);
    const std::vector<AffinityEntry> run = MakeRun(affs);
    ExpectSameBest(RunKernel(ScanAffinityRunScalar, run),
                   RunKernel(simd, run), "randomized");
  }
}

TEST(ScanKernels, SimdMatchesScalarOnEpsilonTieAdversaries) {
  if (!SimdScanAvailable()) {
    GTEST_SKIP() << "AVX2 kernel not available on this host/build";
  }
  AffinityScanFn simd = SimdAffinityScan();
  // Runs built from values spaced by fractions/multiples of the tie epsilon.
  // The sequential rule is order-dependent here: 1.0 followed by 1.0 + eps/2
  // keeps the first entry, but 1.0 + 2*eps later re-takes — a plain
  // max-then-lowest-bucket reduction gets several of these wrong.
  const double b = 1.0;
  const std::vector<std::vector<double>> adversaries = {
      {b, b + kEps / 2},
      {b, b + kEps, b + kEps / 2},
      {b, b + 2 * kEps, b + 2 * kEps + kEps / 2},
      {b + kEps, b, b + kEps / 2, b + 3 * kEps},
      {b, b + kEps / 4, b + kEps / 2, b + 3 * kEps / 4, b + kEps,
       b + 5 * kEps / 4},
      // A strictly ascending eps/2 staircase: the running best advances only
      // every other entry.
      {b, b + kEps / 2, b + kEps, b + 3 * kEps / 2, b + 2 * kEps,
       b + 5 * kEps / 2, b + 3 * kEps, b + 7 * kEps / 2, b + 4 * kEps},
  };
  for (size_t i = 0; i < adversaries.size(); ++i) {
    const std::vector<AffinityEntry> run = MakeRun(adversaries[i]);
    ExpectSameBest(RunKernel(ScanAffinityRunScalar, run),
                   RunKernel(simd, run), "adversary");
  }
  // Randomized epsilon-neighborhood runs: every value within a few eps of b.
  std::mt19937_64 rng(0x7135);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng() % 24;
    std::vector<double> affs(n);
    for (double& a : affs) {
      a = b + static_cast<double>(rng() % 9) * (kEps / 2);
    }
    const std::vector<AffinityEntry> run = MakeRun(affs);
    ExpectSameBest(RunKernel(ScanAffinityRunScalar, run),
                   RunKernel(simd, run), "randomized adversary");
  }
}

TEST(ScanKernels, ChainedSplitScansEqualOneUnbrokenScan) {
  // Kernels must carry state across split runs exactly like one loop —
  // this is how gain.cc excises the `from` entry.
  std::mt19937_64 rng(0xc4a1);
  std::uniform_real_distribution<double> dist(0.0, 2.0);
  AffinityScanFn simd = SimdScanAvailable() ? SimdAffinityScan() : nullptr;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng() % 30;
    std::vector<double> affs(n);
    for (double& a : affs) a = dist(rng);
    const std::vector<AffinityEntry> run = MakeRun(affs);
    const AffinityScanBest whole = RunKernel(ScanAffinityRunScalar, run);
    const size_t split = rng() % (n + 1);
    AffinityScanBest chained;
    ScanAffinityRunScalar(run.data(), run.data() + split, kEps, &chained);
    ScanAffinityRunScalar(run.data() + split, run.data() + n, kEps, &chained);
    ExpectSameBest(chained, whole, "scalar chained");
    if (simd != nullptr) {
      AffinityScanBest chained_simd;
      simd(run.data(), run.data() + split, kEps, &chained_simd);
      simd(run.data() + split, run.data() + n, kEps, &chained_simd);
      ExpectSameBest(chained_simd, whole, "simd chained");
    }
  }
}

TEST(ScanKernels, EmptyScanWindowFallsBackToLowestSibling) {
  // When the accumulator window holds only the excised `from` entry, the
  // kernel scans an empty range and leaves its {0.0, -1} start state — the
  // grouped push scan must then fall back to the lowest sibling != from, and
  // report -1 when no sibling exists.
  GainComputer gc(/*p=*/0.5, /*max_query_degree=*/8);
  ASSERT_TRUE(gc.SupportsPush());
  const std::vector<AffinityEntry> window = {{5, 2, 0.75}};
  const std::vector<BucketId> siblings = {4, 5, 6};
  const auto best = gc.FindBestTargetPushGrouped(
      window, /*from=*/5, siblings, /*degree=*/3.0);
  EXPECT_EQ(best.bucket, 4);
  const std::vector<BucketId> only_from = {5};
  const auto none = gc.FindBestTargetPushGrouped(
      window, /*from=*/5, only_from, /*degree=*/3.0);
  EXPECT_EQ(none.bucket, -1);
  EXPECT_EQ(none.gain, 0.0);
}

}  // namespace
}  // namespace shp
