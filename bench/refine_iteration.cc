// Steady-state refinement-iteration latency: full-rebuild reference vs the
// incremental pull path vs the query-major push sweep, plus the BSP engine
// in both superstep-2 exchange modes (full-reship pull vs delta exchange +
// push sweep) — on the full-k topology AND on a grouped SHP-2 recursion
// window (sibling pairs), the configuration production recursion runs. The
// grouped series gate the deterministic steady-state superstep-2 byte
// reduction and the rtol 1e-4 fanout contract.
//
// Protocol: run SHP-k on a power-law generator workload until the moved
// fraction decays below a steady-state threshold (default 0.2%, matching
// the paper's reported late-iteration movement on soc-LJ; <= 5% per the
// acceptance criterion), then time the remaining iterations with each
// engine from an identical warm-start assignment. The full-rebuild and
// incremental pull engines execute bit-identical trajectories (the
// incremental path is exact; see core/refiner.h). The push sweep changes
// float summation order, so its trajectory matches pull to tolerance, not
// bits — the run checks the final average fanout agrees within a relative
// 1e-4 (the strict per-proposal harness lives in tests/affinity_sweep_test
// and the Debug-build per-iteration cross-checks). Results go to stdout and
// to BENCH_refine.json for CI trend tracking; the run exits nonzero if
// incremental/full falls below --min_speedup or push/incremental falls
// below --min_push_speedup (both default 0 so ad-hoc runs never fail; CI
// passes gates).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "core/shp_k.h"
#include "engine/shp_bsp.h"
#include "engine/wire_format.h"
#include "graph/gen_powerlaw.h"
#include "objective/gain.h"
#include "objective/objective.h"
#include "objective/scan_kernels.h"
#include "harness.h"

namespace {

struct PathTiming {
  std::vector<double> iteration_ms;
  double mean_ms = 0.0;
  uint64_t rebuilds = 0;
  uint64_t sweep_builds = 0;
  uint64_t recomputed = 0;
  uint64_t delta_records = 0;
};

/// One BSP engine run: per-iteration latency plus per-superstep-2 remote
/// bytes (the delta-exchange acceptance metric). `steady_s2_bytes` excludes
/// iteration 0 — both modes bootstrap there with the same full reship.
struct BspTiming {
  std::vector<double> iteration_ms;
  std::vector<uint64_t> s2_remote_bytes;
  /// The same superstep-2 bytes with every delta-exchange superstep sized as
  /// fixed-width NeighborDelta records (remote_messages ×
  /// wire::kRawDeltaBytes): the yardstick the varint codec is gated
  /// against, reported as the bsp_push / bsp_push_grouped byte series.
  std::vector<uint64_t> fixed_width_s2_bytes;
  double mean_ms = 0.0;
  uint64_t steady_s2_bytes = 0;
  uint64_t steady_fixed_width_s2_bytes = 0;
  /// Envelope framing overhead (header varints + CRC32C) of the steady
  /// superstep-2 exchanges — tracked as its own series, never mixed into
  /// the payload byte series, and gated at <= 4% of the varint payload.
  uint64_t steady_envelope_bytes = 0;
  uint64_t delta_records = 0;
  /// Adjacency pin reads of the one-pass sharded bootstrap (push mode; 0 on
  /// the pull path, which never builds the affinity sweep).
  uint64_t bootstrap_adjacency_reads = 0;
};

/// A run's byte fields as fixed-width records would have put them on the
/// wire — without the envelope, which only the varint stream carries.
BspTiming FixedWidthView(BspTiming timing) {
  timing.s2_remote_bytes = timing.fixed_width_s2_bytes;
  timing.steady_s2_bytes = timing.steady_fixed_width_s2_bytes;
  timing.steady_envelope_bytes = 0;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shp;
  auto flags = Flags::Parse(argc, argv).value();
  bench::PrintBanner(
      "Refinement iteration latency: full rebuild vs incremental pull vs "
      "query-major push sweep",
      flags);

  PowerLawConfig config;
  config.num_queries = static_cast<VertexId>(
      flags.GetInt("queries", 60000) * flags.GetDouble("scale", 1.0));
  config.num_data = static_cast<VertexId>(
      flags.GetInt("data", 40000) * flags.GetDouble("scale", 1.0));
  config.target_edges = static_cast<EdgeIndex>(
      flags.GetInt("edges", 500000) * flags.GetDouble("scale", 1.0));
  config.seed = 7;
  const BipartiteGraph graph = GeneratePowerLaw(config);
  const BucketId k = static_cast<BucketId>(flags.GetInt("k", 32));
  const uint64_t seed = 11;
  const double steady_threshold = flags.GetDouble("steady_fraction", 0.002);
  const uint32_t timed_iterations = static_cast<uint32_t>(
      std::max<int64_t>(1, flags.GetInt("iterations", 20)));
  const double min_speedup = flags.GetDouble("min_speedup", 0.0);
  const double min_push_speedup = flags.GetDouble("min_push_speedup", 0.0);

  std::printf("graph: %u queries, %u data, %llu pins, k=%d\n",
              graph.num_queries(), graph.num_data(),
              static_cast<unsigned long long>(graph.num_edges()), k);

  // Warm-up: refine from random until the moved fraction decays into steady
  // state, then snapshot the assignment all timed runs start from.
  const MoveTopology topo = MoveTopology::FullK(k, graph.num_data(), 0.05);
  RefinerOptions base_options;
  base_options.exploration_probability =
      flags.GetDouble("exploration", 0.0);
  Partition warmup = Partition::BalancedRandom(graph.num_data(), k, seed);
  uint64_t warm_iterations = 0;
  {
    RefinerOptions warm_options = base_options;
    warm_options.sweep_mode = RefinerOptions::SweepMode::kPull;
    Refiner warm_refiner(graph, warm_options);
    for (; warm_iterations < 200; ++warm_iterations) {
      const IterationStats stats =
          warm_refiner.RunIteration(topo, &warmup, seed, warm_iterations);
      if (stats.moved_fraction <= steady_threshold) break;
    }
  }
  std::printf("steady state after %llu warm-up iterations (moved <= %.1f%%)\n",
              static_cast<unsigned long long>(warm_iterations),
              steady_threshold * 100.0);
  const std::vector<BucketId> steady_start = warmup.assignment();

  auto run_path = [&](bool incremental, RefinerOptions::SweepMode mode) {
    RefinerOptions options = base_options;
    options.incremental = incremental;
    options.sweep_mode = mode;
    Refiner refiner(graph, options);
    Partition partition = Partition::FromAssignment(steady_start, k);
    PathTiming timing;
    for (uint32_t i = 0; i < timed_iterations; ++i) {
      Timer timer;
      const IterationStats stats = refiner.RunIteration(
          topo, &partition, seed, warm_iterations + 1 + i);
      timing.iteration_ms.push_back(timer.ElapsedMillis());
      timing.recomputed += stats.num_recomputed;
      timing.delta_records += stats.num_delta_records;
    }
    timing.rebuilds = refiner.num_full_rebuilds();
    timing.sweep_builds = refiner.num_sweep_builds();
    timing.mean_ms = std::accumulate(timing.iteration_ms.begin(),
                                     timing.iteration_ms.end(), 0.0) /
                     static_cast<double>(timing.iteration_ms.size());
    return std::make_pair(timing, partition.assignment());
  };

  const auto [full, full_assignment] =
      run_path(/*incremental=*/false, RefinerOptions::SweepMode::kPull);
  const auto [incremental, incremental_assignment] =
      run_path(/*incremental=*/true, RefinerOptions::SweepMode::kPull);
  const auto [push, push_assignment] =
      run_path(/*incremental=*/true, RefinerOptions::SweepMode::kPush);

  // BSP engine series: the same steady-state iterations through the
  // message-passing engine, full-reship pull vs delta exchange + push —
  // once on the full-k topology and once on a grouped SHP-2 recursion
  // window (sibling pairs), the configuration production recursion runs.
  const int bsp_workers =
      static_cast<int>(flags.GetInt("bsp_workers", 4));
  auto run_bsp = [&](RefinerOptions::SweepMode mode, const MoveTopology& t,
                     const std::vector<BucketId>& start,
                     uint64_t iteration_offset) {
    RefinerOptions options = base_options;
    options.sweep_mode = mode;
    BspConfig config;
    config.num_workers = bsp_workers;
    std::vector<SuperstepStats> log;
    BspRefiner refiner(graph, options, config, &log);
    Partition partition = Partition::FromAssignment(start, k);
    BspTiming timing;
    for (uint32_t i = 0; i < timed_iterations; ++i) {
      Timer timer;
      const IterationStats stats = refiner.RunIteration(
          t, &partition, seed, iteration_offset + 1 + i);
      timing.iteration_ms.push_back(timer.ElapsedMillis());
      timing.delta_records += stats.num_delta_records;
      const SuperstepStats& step = log[i * 4 + 1];
      const uint64_t s2 = step.traffic.remote_bytes;
      const uint64_t fixed_width =
          step.label == "2:ship-deltas+gains"
              ? step.traffic.remote_messages * wire::kRawDeltaBytes
              : s2;
      timing.s2_remote_bytes.push_back(s2);
      timing.fixed_width_s2_bytes.push_back(fixed_width);
      if (i > 0) {
        timing.steady_s2_bytes += s2;
        timing.steady_fixed_width_s2_bytes += fixed_width;
        timing.steady_envelope_bytes += step.envelope_bytes;
      }
    }
    timing.mean_ms = std::accumulate(timing.iteration_ms.begin(),
                                     timing.iteration_ms.end(), 0.0) /
                     static_cast<double>(timing.iteration_ms.size());
    timing.bootstrap_adjacency_reads =
        refiner.last_bootstrap_adjacency_reads();
    return std::make_pair(timing, partition.assignment());
  };
  // The delta exchange has one wire path, the grouped varint codec: the
  // *_varint series report its bytes, and the legacy bsp_push /
  // bsp_push_grouped series the same run sized as fixed-width records, so
  // their steady_s2_remote_bytes trend stays comparable across history.
  const auto [bsp_pull, bsp_pull_assignment] = run_bsp(
      RefinerOptions::SweepMode::kPull, topo, steady_start, warm_iterations);
  const auto [bsp_push_varint, bsp_push_assignment] = run_bsp(
      RefinerOptions::SweepMode::kPush, topo, steady_start, warm_iterations);
  const BspTiming bsp_push = FixedWidthView(bsp_push_varint);

  // Grouped series: a final-level SHP-2 window over the same graph —
  // sibling pairs {2i, 2i+1}. Warm into the grouped steady state from the
  // full-k snapshot with the threaded pull reference, then time both BSP
  // exchange modes from the identical grouped warm start.
  std::vector<std::vector<BucketId>> sibling_pairs;
  for (BucketId b = 0; b + 1 < k; b += 2) sibling_pairs.push_back({b, b + 1});
  const MoveTopology grouped_topo = MoveTopology::Grouped(
      k, graph.num_data(), 0.05, std::move(sibling_pairs));
  Partition grouped_warmup = Partition::FromAssignment(steady_start, k);
  uint64_t grouped_warm_iterations = 0;
  {
    RefinerOptions warm_options = base_options;
    warm_options.sweep_mode = RefinerOptions::SweepMode::kPull;
    Refiner warm_refiner(graph, warm_options);
    for (; grouped_warm_iterations < 100; ++grouped_warm_iterations) {
      const IterationStats stats = warm_refiner.RunIteration(
          grouped_topo, &grouped_warmup, seed, grouped_warm_iterations);
      if (stats.moved_fraction <= steady_threshold) break;
    }
  }
  const std::vector<BucketId> grouped_start = grouped_warmup.assignment();
  const auto [bsp_pull_grouped, bsp_pull_grouped_assignment] =
      run_bsp(RefinerOptions::SweepMode::kPull, grouped_topo, grouped_start,
              grouped_warm_iterations);
  const auto [bsp_push_grouped_varint, bsp_push_grouped_assignment] =
      run_bsp(RefinerOptions::SweepMode::kPush, grouped_topo, grouped_start,
              grouped_warm_iterations);
  const BspTiming bsp_push_grouped = FixedWidthView(bsp_push_grouped_varint);

  if (full_assignment != incremental_assignment) {
    std::fprintf(stderr,
                 "FAIL: incremental and full-rebuild paths diverged\n");
    return 2;
  }
  // Push is tolerance-equivalent, not bit-exact: compare end objectives.
  const double fanout_pull = AverageFanout(graph, incremental_assignment);
  const double fanout_push = AverageFanout(graph, push_assignment);
  const double fanout_rel_diff =
      std::fabs(fanout_pull - fanout_push) / std::max(fanout_pull, 1e-30);
  if (fanout_rel_diff > 1e-4) {
    std::fprintf(stderr,
                 "FAIL: push fanout %.8f vs pull %.8f (rel diff %.2e)\n",
                 fanout_push, fanout_pull, fanout_rel_diff);
    return 2;
  }

  // BSP pull vs delta-exchange push: same tolerance contract as the
  // threaded engines, plus the hard traffic gate — steady-state superstep-2
  // remote bytes of the delta exchange must be strictly below the full
  // reship (this is the whole point of the exchange; it is a deterministic
  // byte count, not a timing, so it always gates).
  const double bsp_fanout_pull = AverageFanout(graph, bsp_pull_assignment);
  const double bsp_fanout_push = AverageFanout(graph, bsp_push_assignment);
  const double bsp_fanout_rel_diff =
      std::fabs(bsp_fanout_pull - bsp_fanout_push) /
      std::max(bsp_fanout_pull, 1e-30);
  if (bsp_fanout_rel_diff > 1e-4) {
    std::fprintf(stderr,
                 "FAIL: BSP push fanout %.8f vs pull %.8f (rel diff %.2e)\n",
                 bsp_fanout_push, bsp_fanout_pull, bsp_fanout_rel_diff);
    return 2;
  }
  // (With --iterations=1 there is no steady-state sample — only the
  // bootstrap iteration, which both modes ship identically — so the gate
  // has nothing to compare.)
  if (bsp_pull.steady_s2_bytes > 0 &&
      bsp_push.steady_s2_bytes >= bsp_pull.steady_s2_bytes) {
    std::fprintf(stderr,
                 "FAIL: delta-exchange superstep-2 bytes %llu not below "
                 "full-reship %llu\n",
                 static_cast<unsigned long long>(bsp_push.steady_s2_bytes),
                 static_cast<unsigned long long>(bsp_pull.steady_s2_bytes));
    return 2;
  }

  // Grouped recursion window: the same two gates — rtol 1e-4 trajectory
  // equivalence and the deterministic steady-state superstep-2 byte
  // comparison (grouped delta exchange strictly below the grouped full
  // reship; the SHP-2/r acceptance criterion).
  const double grouped_fanout_pull =
      AverageFanout(graph, bsp_pull_grouped_assignment);
  const double grouped_fanout_push =
      AverageFanout(graph, bsp_push_grouped_assignment);
  const double grouped_fanout_rel_diff =
      std::fabs(grouped_fanout_pull - grouped_fanout_push) /
      std::max(grouped_fanout_pull, 1e-30);
  if (grouped_fanout_rel_diff > 1e-4) {
    std::fprintf(
        stderr,
        "FAIL: grouped BSP push fanout %.8f vs pull %.8f (rel diff %.2e)\n",
        grouped_fanout_push, grouped_fanout_pull, grouped_fanout_rel_diff);
    return 2;
  }
  if (bsp_pull_grouped.steady_s2_bytes > 0 &&
      bsp_push_grouped.steady_s2_bytes >= bsp_pull_grouped.steady_s2_bytes) {
    std::fprintf(
        stderr,
        "FAIL: grouped delta-exchange superstep-2 bytes %llu not below "
        "grouped full-reship %llu\n",
        static_cast<unsigned long long>(bsp_push_grouped.steady_s2_bytes),
        static_cast<unsigned long long>(bsp_pull_grouped.steady_s2_bytes));
    return 2;
  }

  // Varint wire format: the steady-state superstep-2 bytes must undercut
  // the same records sized at a fixed 16 bytes by >= 25% (the acceptance
  // criterion; the codec lands near 3 bytes/record).
  auto gate_varint = [](const char* what, const BspTiming& raw,
                        const BspTiming& varint) {
    if (raw.steady_s2_bytes > 0 &&
        varint.steady_s2_bytes >
            raw.steady_s2_bytes - raw.steady_s2_bytes / 4) {
      std::fprintf(stderr,
                   "FAIL: %s varint superstep-2 bytes %llu not >=25%% below "
                   "fixed-width %llu\n",
                   what,
                   static_cast<unsigned long long>(varint.steady_s2_bytes),
                   static_cast<unsigned long long>(raw.steady_s2_bytes));
      return false;
    }
    return true;
  };
  if (!gate_varint("full-k", bsp_push, bsp_push_varint) ||
      !gate_varint("grouped", bsp_push_grouped, bsp_push_grouped_varint)) {
    return 2;
  }

  // Self-verifying envelope: the integrity framing must stay a rounding
  // error — <= 4% of the steady varint payload it protects. The pull series
  // never touch the enveloped link protocol, so any overhead there is a
  // protocol leak.
  auto gate_envelope = [](const char* what, const BspTiming& varint) {
    if (varint.steady_s2_bytes > 0 &&
        varint.steady_envelope_bytes * 25 > varint.steady_s2_bytes) {
      std::fprintf(stderr,
                   "FAIL: %s envelope overhead %llu bytes exceeds 4%% of the "
                   "varint payload %llu\n",
                   what,
                   static_cast<unsigned long long>(
                       varint.steady_envelope_bytes),
                   static_cast<unsigned long long>(varint.steady_s2_bytes));
      return false;
    }
    return true;
  };
  if (!gate_envelope("full-k", bsp_push_varint) ||
      !gate_envelope("grouped", bsp_push_grouped_varint)) {
    return 2;
  }
  for (const auto& [name, t] :
       {std::make_pair("bsp_pull", &bsp_pull),
        std::make_pair("bsp_pull_grouped", &bsp_pull_grouped)}) {
    if (t->steady_envelope_bytes != 0) {
      std::fprintf(stderr,
                   "FAIL: pull series %s reported %llu envelope bytes (the "
                   "full reship must bypass the link protocol)\n",
                   name,
                   static_cast<unsigned long long>(t->steady_envelope_bytes));
      return 2;
    }
  }

  // One-pass sharded bootstrap: the push-mode engine builds the affinity
  // sweep once at iteration 0; the binned bootstrap reads each adjacency pin
  // exactly once regardless of the worker count (the old layout read W×|E|).
  if (bsp_push.bootstrap_adjacency_reads != graph.num_edges()) {
    std::fprintf(stderr,
                 "FAIL: sharded bootstrap read %llu adjacency pins, expected "
                 "exactly |E| = %llu (W=%d)\n",
                 static_cast<unsigned long long>(
                     bsp_push.bootstrap_adjacency_reads),
                 static_cast<unsigned long long>(graph.num_edges()),
                 bsp_workers);
    return 2;
  }
  const double bootstrap_passes =
      static_cast<double>(bsp_push.bootstrap_adjacency_reads) /
      static_cast<double>(std::max<uint64_t>(1, graph.num_edges()));

  // Scan-kernel series: the push argmax primitive on a synthetic accumulator
  // run, scalar vs the dispatched AVX2 kernel (absent on pre-AVX2 hosts or
  // -DSHP_DISABLE_SIMD builds; the series is then omitted and the optional
  // gate is skipped). Long runs (512 entries) are where block-skip pays.
  const double min_simd_speedup = flags.GetDouble("min_simd_speedup", 0.0);
  std::vector<AffinityEntry> kernel_run(512);
  for (size_t i = 0; i < kernel_run.size(); ++i) {
    kernel_run[i] = {static_cast<BucketId>(i), 1,
                     HashToUnitDouble(3, 5, i) * 4.0};
  }
  auto time_kernel = [&](AffinityScanFn fn) {
    std::vector<double> ms;
    double sink = 0.0;
    for (uint32_t i = 0; i < timed_iterations; ++i) {
      Timer timer;
      for (int rep = 0; rep < 2000; ++rep) {
        AffinityScanBest best;
        fn(kernel_run.data(), kernel_run.data() + kernel_run.size(),
           GainComputer::kAffinityTieEpsilon, &best);
        sink += best.affinity;
      }
      ms.push_back(timer.ElapsedMillis());
    }
    if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination
    return ms;
  };
  const std::vector<double> scan_scalar_ms =
      time_kernel(&ScanAffinityRunScalar);
  const bool have_simd = SimdScanAvailable();
  const std::vector<double> scan_simd_ms =
      have_simd ? time_kernel(SimdAffinityScan()) : std::vector<double>{};
  auto mean_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  const double scan_scalar_mean = mean_of(scan_scalar_ms);
  const double scan_simd_mean = mean_of(scan_simd_ms);
  const double simd_speedup =
      have_simd && scan_simd_mean > 0.0 ? scan_scalar_mean / scan_simd_mean
                                        : 0.0;

  const double speedup = full.mean_ms / incremental.mean_ms;
  const double push_speedup = incremental.mean_ms / push.mean_ms;
  const double bsp_speedup = bsp_pull.mean_ms / bsp_push.mean_ms;
  const double bsp_s2_reduction =
      static_cast<double>(bsp_pull.steady_s2_bytes) /
      static_cast<double>(std::max<uint64_t>(1, bsp_push.steady_s2_bytes));
  std::printf("\nfull rebuild : %.3f ms/iteration (%llu rebuilds, %llu "
              "proposals recomputed)\n",
              full.mean_ms, static_cast<unsigned long long>(full.rebuilds),
              static_cast<unsigned long long>(full.recomputed));
  std::printf("incremental  : %.3f ms/iteration (%llu rebuilds, %llu "
              "proposals recomputed)\n",
              incremental.mean_ms,
              static_cast<unsigned long long>(incremental.rebuilds),
              static_cast<unsigned long long>(incremental.recomputed));
  std::printf("push sweep   : %.3f ms/iteration (%llu sweep builds, %llu "
              "proposals recomputed, %llu delta records)\n",
              push.mean_ms,
              static_cast<unsigned long long>(push.sweep_builds),
              static_cast<unsigned long long>(push.recomputed),
              static_cast<unsigned long long>(push.delta_records));
  std::printf("speedup      : %.2fx incremental/full, %.2fx push/incremental "
              "(fanout rel diff %.1e)\n",
              speedup, push_speedup, fanout_rel_diff);
  std::printf("bsp pull     : %.3f ms/iteration (W=%d, steady S2 %llu remote "
              "bytes)\n",
              bsp_pull.mean_ms, bsp_workers,
              static_cast<unsigned long long>(bsp_pull.steady_s2_bytes));
  std::printf("bsp delta    : %.3f ms/iteration (W=%d, steady S2 %llu remote "
              "bytes, %llu delta records)\n",
              bsp_push.mean_ms, bsp_workers,
              static_cast<unsigned long long>(bsp_push.steady_s2_bytes),
              static_cast<unsigned long long>(bsp_push.delta_records));
  std::printf("bsp          : %.2fx iteration speedup, %.2fx superstep-2 "
              "traffic reduction (fanout rel diff %.1e)\n",
              bsp_speedup, bsp_s2_reduction, bsp_fanout_rel_diff);
  const double varint_reduction =
      static_cast<double>(bsp_push.steady_s2_bytes) /
      static_cast<double>(
          std::max<uint64_t>(1, bsp_push_varint.steady_s2_bytes));
  std::printf("bsp varint   : %.3f ms/iteration (steady S2 %llu remote bytes "
              "— %.2fx below fixed-width records)\n",
              bsp_push_varint.mean_ms,
              static_cast<unsigned long long>(bsp_push_varint.steady_s2_bytes),
              varint_reduction);
  std::printf("bsp envelope : %llu bytes steady overhead = %.2f%% of the "
              "varint payload (budget 4%%)\n",
              static_cast<unsigned long long>(
                  bsp_push_varint.steady_envelope_bytes),
              100.0 * static_cast<double>(bsp_push_varint.steady_envelope_bytes) /
                  static_cast<double>(
                      std::max<uint64_t>(1, bsp_push_varint.steady_s2_bytes)));
  std::printf("bootstrap    : %llu adjacency reads = %.2f passes over |E| "
              "(W=%d)\n",
              static_cast<unsigned long long>(
                  bsp_push.bootstrap_adjacency_reads),
              bootstrap_passes, bsp_workers);
  if (have_simd) {
    std::printf("scan kernel  : scalar %.4f ms, avx2 %.4f ms (%.2fx, %zu "
                "entries x 2000 reps)\n",
                scan_scalar_mean, scan_simd_mean, simd_speedup,
                kernel_run.size());
  } else {
    std::printf("scan kernel  : scalar %.4f ms (AVX2 kernel unavailable)\n",
                scan_scalar_mean);
  }
  const double grouped_bsp_speedup =
      bsp_pull_grouped.mean_ms / bsp_push_grouped.mean_ms;
  const double grouped_s2_reduction =
      static_cast<double>(bsp_pull_grouped.steady_s2_bytes) /
      static_cast<double>(
          std::max<uint64_t>(1, bsp_push_grouped.steady_s2_bytes));
  std::printf("bsp grouped pull : %.3f ms/iteration (steady S2 %llu remote "
              "bytes, %llu grouped warm-up iterations)\n",
              bsp_pull_grouped.mean_ms,
              static_cast<unsigned long long>(
                  bsp_pull_grouped.steady_s2_bytes),
              static_cast<unsigned long long>(grouped_warm_iterations));
  std::printf("bsp grouped delta: %.3f ms/iteration (steady S2 %llu remote "
              "bytes, %llu delta records)\n",
              bsp_push_grouped.mean_ms,
              static_cast<unsigned long long>(
                  bsp_push_grouped.steady_s2_bytes),
              static_cast<unsigned long long>(
                  bsp_push_grouped.delta_records));
  std::printf("bsp grouped      : %.2fx iteration speedup, %.2fx superstep-2 "
              "traffic reduction (fanout rel diff %.1e)\n",
              grouped_bsp_speedup, grouped_s2_reduction,
              grouped_fanout_rel_diff);
  const double grouped_varint_reduction =
      static_cast<double>(bsp_push_grouped.steady_s2_bytes) /
      static_cast<double>(
          std::max<uint64_t>(1, bsp_push_grouped_varint.steady_s2_bytes));
  std::printf("bsp grouped varint: %.3f ms/iteration (steady S2 %llu remote "
              "bytes — %.2fx below fixed-width)\n",
              bsp_push_grouped_varint.mean_ms,
              static_cast<unsigned long long>(
                  bsp_push_grouped_varint.steady_s2_bytes),
              grouped_varint_reduction);

  // Default output deliberately differs from the committed baseline
  // (BENCH_refine.json): an ad-hoc run from the repo root must not clobber
  // the file the CI regression gate diffs against. Refresh the baseline
  // explicitly with --out=BENCH_refine.json when that is the intent.
  const std::string out_path =
      flags.GetString("out", "BENCH_refine_fresh.json");
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  auto write_series = [&](const char* name, const PathTiming& t) {
    std::fprintf(out,
                 "  \"%s\": {\n"
                 "    \"mean_iteration_ms\": %.6f,\n"
                 "    \"full_rebuilds\": %llu,\n"
                 "    \"sweep_builds\": %llu,\n"
                 "    \"proposals_recomputed\": %llu,\n"
                 "    \"delta_records\": %llu,\n"
                 "    \"iteration_ms\": [",
                 name, t.mean_ms, static_cast<unsigned long long>(t.rebuilds),
                 static_cast<unsigned long long>(t.sweep_builds),
                 static_cast<unsigned long long>(t.recomputed),
                 static_cast<unsigned long long>(t.delta_records));
    for (size_t i = 0; i < t.iteration_ms.size(); ++i) {
      std::fprintf(out, "%s%.6f", i == 0 ? "" : ", ", t.iteration_ms[i]);
    }
    std::fprintf(out, "]\n  }");
  };
  std::fprintf(out,
               "{\n  \"benchmark\": \"refine_iteration\",\n"
               "  \"num_queries\": %u,\n  \"num_data\": %u,\n"
               "  \"num_pins\": %llu,\n  \"k\": %d,\n"
               "  \"steady_fraction\": %.4f,\n"
               "  \"warmup_iterations\": %llu,\n"
               "  \"timed_iterations\": %u,\n",
               graph.num_queries(), graph.num_data(),
               static_cast<unsigned long long>(graph.num_edges()), k,
               steady_threshold,
               static_cast<unsigned long long>(warm_iterations),
               timed_iterations);
  auto write_bsp_series = [&](const char* name, const BspTiming& t) {
    std::fprintf(out,
                 "  \"%s\": {\n"
                 "    \"mean_iteration_ms\": %.6f,\n"
                 "    \"workers\": %d,\n"
                 "    \"steady_s2_remote_bytes\": %llu,\n"
                 "    \"steady_s2_envelope_bytes\": %llu,\n"
                 "    \"delta_records\": %llu,\n"
                 "    \"iteration_ms\": [",
                 name, t.mean_ms, bsp_workers,
                 static_cast<unsigned long long>(t.steady_s2_bytes),
                 static_cast<unsigned long long>(t.steady_envelope_bytes),
                 static_cast<unsigned long long>(t.delta_records));
    for (size_t i = 0; i < t.iteration_ms.size(); ++i) {
      std::fprintf(out, "%s%.6f", i == 0 ? "" : ", ", t.iteration_ms[i]);
    }
    std::fprintf(out, "],\n    \"s2_remote_bytes\": [");
    for (size_t i = 0; i < t.s2_remote_bytes.size(); ++i) {
      std::fprintf(out, "%s%llu", i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(t.s2_remote_bytes[i]));
    }
    std::fprintf(out, "]\n  }");
  };
  write_series("full_rebuild", full);
  std::fprintf(out, ",\n");
  write_series("incremental", incremental);
  std::fprintf(out, ",\n");
  write_series("push", push);
  std::fprintf(out, ",\n");
  auto write_kernel_series = [&](const char* name,
                                 const std::vector<double>& ms,
                                 double mean) {
    std::fprintf(out,
                 "  \"%s\": {\n"
                 "    \"mean_iteration_ms\": %.6f,\n"
                 "    \"iteration_ms\": [",
                 name, mean);
    for (size_t i = 0; i < ms.size(); ++i) {
      std::fprintf(out, "%s%.6f", i == 0 ? "" : ", ", ms[i]);
    }
    std::fprintf(out, "]\n  }");
  };
  write_bsp_series("bsp_pull", bsp_pull);
  std::fprintf(out, ",\n");
  write_bsp_series("bsp_push", bsp_push);
  std::fprintf(out, ",\n");
  write_bsp_series("bsp_push_varint", bsp_push_varint);
  std::fprintf(out, ",\n");
  write_bsp_series("bsp_pull_grouped", bsp_pull_grouped);
  std::fprintf(out, ",\n");
  write_bsp_series("bsp_push_grouped", bsp_push_grouped);
  std::fprintf(out, ",\n");
  write_bsp_series("bsp_push_grouped_varint", bsp_push_grouped_varint);
  std::fprintf(out, ",\n");
  write_kernel_series("scan_scalar", scan_scalar_ms, scan_scalar_mean);
  if (have_simd) {
    std::fprintf(out, ",\n");
    write_kernel_series("scan_simd", scan_simd_ms, scan_simd_mean);
  }
  std::fprintf(out,
               ",\n  \"speedup\": %.4f,\n  \"push_speedup\": %.4f,\n"
               "  \"push_fanout_rel_diff\": %.6e,\n"
               "  \"bsp_speedup\": %.4f,\n"
               "  \"bsp_s2_traffic_reduction\": %.4f,\n"
               "  \"bsp_fanout_rel_diff\": %.6e,\n"
               "  \"varint_s2_reduction\": %.4f,\n"
               "  \"grouped_warmup_iterations\": %llu,\n"
               "  \"bsp_grouped_speedup\": %.4f,\n"
               "  \"bsp_grouped_s2_traffic_reduction\": %.4f,\n"
               "  \"bsp_grouped_fanout_rel_diff\": %.6e,\n"
               "  \"grouped_varint_s2_reduction\": %.4f,\n"
               "  \"bootstrap_adjacency_reads\": %llu,\n"
               "  \"bootstrap_adjacency_passes\": %.4f,\n"
               "  \"simd_scan_speedup\": %.4f\n}\n",
               speedup, push_speedup, fanout_rel_diff, bsp_speedup,
               bsp_s2_reduction, bsp_fanout_rel_diff, varint_reduction,
               static_cast<unsigned long long>(grouped_warm_iterations),
               grouped_bsp_speedup, grouped_s2_reduction,
               grouped_fanout_rel_diff, grouped_varint_reduction,
               static_cast<unsigned long long>(
                   bsp_push.bootstrap_adjacency_reads),
               bootstrap_passes, simd_speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 3;
  }
  if (push_speedup < min_push_speedup) {
    std::fprintf(stderr,
                 "FAIL: push speedup %.2fx below required %.2fx\n",
                 push_speedup, min_push_speedup);
    return 3;
  }
  const double min_bsp_speedup = flags.GetDouble("min_bsp_speedup", 0.0);
  if (bsp_speedup < min_bsp_speedup) {
    std::fprintf(stderr, "FAIL: BSP speedup %.2fx below required %.2fx\n",
                 bsp_speedup, min_bsp_speedup);
    return 3;
  }
  // Optional (timing-based, so default 0): the AVX2 scan kernel vs scalar on
  // the synthetic run. Skipped when the kernel is unavailable — the scalar
  // fallback leg must not fail a gate it cannot run.
  if (have_simd && simd_speedup < min_simd_speedup) {
    std::fprintf(stderr,
                 "FAIL: SIMD scan speedup %.2fx below required %.2fx\n",
                 simd_speedup, min_simd_speedup);
    return 3;
  }
  return 0;
}
