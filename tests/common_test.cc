// Unit tests for src/common: status, rng, stats, table, flags, env helpers,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

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
  // The caller returns once the pool's done-counter reaches the chunk
  // count, while `fn` lives on the caller's stack. A helper reads the job
  // (fn, n, chunk size) only between its claim and its increment of that
  // counter; after the increment it touches only pool members (the wake-up
  // of a blocked caller). Tiny ranges make the last helper finish right as
  // the caller returns, and the scribble between calls reuses the returned
  // frame, so a helper that touched the job after its increment would run a
  // dead `fn` or race the next call's job within a few thousand rounds.
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

TEST(ThreadPool, CallerRunsAChunk) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool single(1);
  EXPECT_EQ(single.num_threads(), 1u);
  std::vector<std::tuple<size_t, size_t, size_t, std::thread::id>> calls;
  single.ParallelFor(7, [&](size_t begin, size_t end, size_t w) {
    calls.emplace_back(begin, end, w, std::this_thread::get_id());
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_tuple(size_t{0}, size_t{7}, size_t{0}, caller));

  // Each chunk sleeps, so three helpers cannot take all four chunks before
  // the caller claims one; a few rounds absorb an unlucky schedule.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  bool caller_ran = false;
  for (int round = 0; round < 20 && !caller_ran; ++round) {
    std::atomic<bool> on_caller{false};
    pool.ParallelFor(4, [&](size_t, size_t, size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (std::this_thread::get_id() == caller) on_caller = true;
    });
    caller_ran = on_caller.load();
  }
  EXPECT_TRUE(caller_ran);
}

TEST(ThreadPool, ChunksTileTheRangeWithFixedIndices) {
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (size_t n : {1, 2, 3, 4, 5, 1000}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << ", n " << n);
      std::mutex mu;
      std::vector<std::tuple<size_t, size_t, size_t>> chunks;
      pool.ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end, w);
      });
      std::sort(chunks.begin(), chunks.end());
      // Chunk w is [w·c, min(n, (w + 1)·c)) with c = ⌈n / min(n, N)⌉; a
      // chunk that would start at or past n is not run (n = 5 on four
      // threads runs w = 0, 1, 2 with c = 2).
      const size_t workers = std::min(n, threads);
      const size_t c = (n + workers - 1) / workers;
      ASSERT_EQ(chunks.size(), (n + c - 1) / c);
      EXPECT_LE(chunks.size(), workers);
      for (size_t w = 0; w < chunks.size(); ++w) {
        EXPECT_EQ(chunks[w],
                  std::make_tuple(w * c, std::min(n, (w + 1) * c), w));
      }
    }
  }
}

TEST(ThreadPool, NestedCallFromTheCallersChunkRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(4);
  bool nested_on_caller = false;
  for (int round = 0; round < 20 && !nested_on_caller; ++round) {
    pool.ParallelFor(4, [&](size_t, size_t, size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (std::this_thread::get_id() != caller) return;
      std::vector<std::tuple<size_t, size_t, size_t, std::thread::id>> inner;
      pool.ParallelFor(100, [&](size_t begin, size_t end, size_t w) {
        inner.emplace_back(begin, end, w, std::this_thread::get_id());
      });
      ASSERT_EQ(inner.size(), 1u);
      EXPECT_EQ(inner[0],
                std::make_tuple(size_t{0}, size_t{100}, size_t{0}, caller));
      nested_on_caller = true;
    });
  }
  EXPECT_TRUE(nested_on_caller);
}

TEST(ThreadPool, ConcurrentCallersEachSeeExactCoverage) {
  ThreadPool pool(4);
  constexpr int kCalls = 10000;
  std::vector<std::thread> callers;
  std::vector<int> failures(3, 0);
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&, t] {
      std::vector<int> hits(16);
      for (int call = 0; call < kCalls; ++call) {
        const size_t n = 1 + static_cast<size_t>((call + t) % 16);
        std::fill(hits.begin(), hits.end(), 0);
        pool.ParallelFor(n, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        });
        for (size_t i = 0; i < hits.size(); ++i) {
          if (hits[i] != (i < n ? 1 : 0)) ++failures[t];
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures, std::vector<int>(3, 0));
}

TEST(ThreadPool, DestroysCleanlyWithParkedHelpers) {
  { ThreadPool never_called(4); }
  ThreadPool pool(4);
  std::atomic<size_t> items{0};
  pool.ParallelForEach(64, [&](size_t) { items++; });
  // Let the helpers find the job exhausted and park before the destructor.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(items.load(), 64u);
}

}  // namespace
}  // namespace shp
