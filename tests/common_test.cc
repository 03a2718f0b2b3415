// Unit tests for src/common: status, rng, stats, table, flags, env helpers,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace shp {
namespace {

// ---------------------------------------------------------------- Status
TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "Ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::Corruption("bad header");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.ToString(), "Corruption: bad header");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Status::NotFound("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Status, ReturnIfErrorMacro) {
  auto fails = []() -> Status {
    SHP_RETURN_IF_ERROR(Status::IoError("disk"));
    return Status::Ok();
  };
  EXPECT_EQ(fails().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------- Rng
TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u) << "all values of a small range should appear";
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanOne) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextExponential());
  EXPECT_NEAR(stats.mean(), 1.0, 0.03);
}

TEST(Rng, HashToUnitDoubleIsPureFunction) {
  EXPECT_EQ(HashToUnitDouble(1, 2, 3), HashToUnitDouble(1, 2, 3));
  EXPECT_NE(HashToUnitDouble(1, 2, 3), HashToUnitDouble(1, 2, 4));
}

TEST(Rng, HashToBoundedCoversRange) {
  std::set<uint64_t> seen;
  for (uint64_t v = 0; v < 500; ++v) seen.insert(HashToBounded(9, v, 0, 8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitMixAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (uint64_t x = 0; x < 256; ++x) {
    total += __builtin_popcountll(SplitMix64(x) ^ SplitMix64(x ^ 1));
  }
  EXPECT_NEAR(total / 256.0, 32.0, 4.0);
}

// ----------------------------------------------------------------- Stats
TEST(Stats, PercentileExactOnSortedData) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(Stats, PercentileInPlaceMatchesSortingReference) {
  // The nth_element path must return bit-identical values to the sorting
  // reference for every percentile, on data of every parity and with ties.
  Rng rng(77);
  for (size_t n : {1u, 2u, 3u, 10u, 101u, 1000u}) {
    std::vector<double> samples;
    samples.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Quantized draws force duplicate values into the sample.
      samples.push_back(std::floor(rng.NextDouble() * 50.0) / 5.0);
    }
    for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
      std::vector<double> scratch = samples;
      EXPECT_DOUBLE_EQ(PercentileInPlace(&scratch, p), Percentile(samples, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Stats, PercentileInPlaceEdgeCases) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PercentileInPlace(&empty, 50), 0.0);
  EXPECT_DOUBLE_EQ(PercentileInPlace(nullptr, 50), 0.0);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(&one, 0), 7.0);
  EXPECT_DOUBLE_EQ(PercentileInPlace(&one, 100), 7.0);
  // Out-of-range percentiles clamp instead of reading out of bounds.
  std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PercentileInPlace(&v, -5), 1.0);
  EXPECT_DOUBLE_EQ(PercentileInPlace(&v, 200), 3.0);
}

TEST(Stats, RunningStatsMatchesDirectComputation) {
  RunningStats stats;
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : v) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, RunningStatsMergeEqualsCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, LogLogSlopeRecoversPowerLaw) {
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // slope 2
  }
  EXPECT_NEAR(LogLogSlope(x, y), 2.0, 1e-9);
}

// ----------------------------------------------------------------- Table
TEST(Table, AlignsAndFormats) {
  TablePrinter t({"a", "bb"});
  t.AddRow({"1", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(TablePrinter::FmtCount(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::FmtCount(-1000), "-1,000");
  EXPECT_EQ(TablePrinter::FmtPercent(0.123, 1), "+12.3%");
  EXPECT_EQ(TablePrinter::Fmt(1.005, 2), "1.00");
}

TEST(Table, MarkdownShape) {
  TablePrinter t({"x"});
  t.AddRow({"1"});
  EXPECT_EQ(t.ToMarkdown(), "| x |\n|---|\n| 1 |\n");
}

// ----------------------------------------------------------------- Flags
TEST(Flags, ParsesEqualsAndBooleanForms) {
  const char* argv[] = {"prog", "--k=32", "--p=0.5", "--verbose", "input"};
  auto flags = Flags::Parse(5, argv).value();
  EXPECT_EQ(flags.GetInt("k", 0), 32);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input");
}

TEST(Flags, DefaultsWhenAbsentOrMalformed) {
  const char* argv[] = {"prog", "--k=abc"};
  auto flags = Flags::Parse(2, argv).value();
  EXPECT_EQ(flags.GetInt("k", 7), 7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
}

TEST(Flags, DoubleDashStopsFlagParsing) {
  const char* argv[] = {"prog", "--", "--k=1"};
  auto flags = Flags::Parse(3, argv).value();
  EXPECT_FALSE(flags.Has("k"));
  ASSERT_EQ(flags.positional().size(), 1u);
}

// ------------------------------------------------------------------- Env
TEST(Env, ParsesIntAndFallsBack) {
  ::setenv("SHP_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(GetEnvInt("SHP_TEST_ENV_INT", 0), 42);
  EXPECT_EQ(GetEnvInt("SHP_TEST_ENV_MISSING", 5), 5);
  ::setenv("SHP_TEST_ENV_BAD", "xyz", 1);
  EXPECT_EQ(GetEnvInt("SHP_TEST_ENV_BAD", 5), 5);
}

// ------------------------------------------------------------ ThreadPool
TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForEach(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) pool.Submit([&] { counter++; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelForEach(4, [&](size_t) {
    pool.ParallelForEach(10, [&](size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 40);
}

/// Overwrites the stack region a just-returned ParallelFor frame occupied.
[[gnu::noinline]] void ScribbleStack() {
  volatile unsigned char scratch[4096];
  for (size_t i = 0; i < sizeof(scratch); ++i) {
    scratch[i] = static_cast<unsigned char>(0xa5 ^ i);
  }
}

TEST(ThreadPool, ParallelForReturnsOnlyAfterLastWorkerLetsGo) {
  // ParallelFor keeps its completion mutex and condition variable on the
  // caller's stack. Tiny ranges make the last worker finish right as the
  // caller wakes; the scribble between calls reuses the returned frame, so
  // a worker that still touched the completion state after the caller saw
  // the count reach zero aborts or corrupts memory within a few thousand
  // rounds.
  ThreadPool pool(4);
  std::atomic<uint64_t> items{0};
  uint64_t expected = 0;
  for (int round = 0; round < 100000; ++round) {
    const size_t n = 2 + static_cast<size_t>(round % 2);
    pool.ParallelFor(n, [&](size_t begin, size_t end, size_t) {
      items.fetch_add(end - begin, std::memory_order_relaxed);
    });
    expected += n;
    ScribbleStack();
  }
  EXPECT_EQ(items.load(), expected);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace shp
