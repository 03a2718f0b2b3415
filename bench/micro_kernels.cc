// google-benchmark microbenches for the hot kernels: neighbor-data build,
// move-gain computation, one refinement iteration, generator throughput,
// and the FM pass of the multilevel baseline.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "baseline/fm_refiner.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "graph/gen_social.h"
#include "common/rng.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"
#include "objective/scan_kernels.h"

namespace shp {
namespace {

BipartiteGraph MakeGraph(VertexId users, double degree) {
  SocialGraphConfig config;
  config.num_users = users;
  config.avg_degree = degree;
  config.seed = 77;
  return GenerateSocialGraph(config);
}

void BM_NeighborDataBuild(benchmark::State& state) {
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const auto assignment =
      Partition::Random(graph.num_data(), 32, 1).assignment();
  QueryNeighborData ndata;
  for (auto _ : state) {
    ndata.Build(graph, assignment);
    benchmark::DoNotOptimize(ndata.TotalEntries());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_NeighborDataBuild)->Unit(benchmark::kMillisecond);

void BM_MoveGainKernel(benchmark::State& state) {
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const auto partition = Partition::Random(graph.num_data(), 32, 1);
  QueryNeighborData ndata;
  ndata.Build(graph, partition.assignment());
  const GainComputer gain(0.5,
                          static_cast<uint32_t>(graph.MaxQueryDegree()));
  uint64_t v = 0;
  for (auto _ : state) {
    const VertexId vertex = static_cast<VertexId>(v++ % graph.num_data());
    benchmark::DoNotOptimize(gain.MoveGain(
        graph, ndata, vertex, partition.bucket_of(vertex),
        (partition.bucket_of(vertex) + 1) % 32));
  }
}
BENCHMARK(BM_MoveGainKernel);

void BM_BestTargetScan(benchmark::State& state) {
  const BucketId k = static_cast<BucketId>(state.range(0));
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const auto partition = Partition::Random(graph.num_data(), k, 1);
  QueryNeighborData ndata;
  ndata.Build(graph, partition.assignment());
  const GainComputer gain(0.5,
                          static_cast<uint32_t>(graph.MaxQueryDegree()));
  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;
  uint64_t v = 0;
  for (auto _ : state) {
    const VertexId vertex = static_cast<VertexId>(v++ % graph.num_data());
    benchmark::DoNotOptimize(
        gain.FindBestTarget(graph, ndata, vertex,
                            partition.bucket_of(vertex), 0, k, &affinity,
                            &touched));
  }
}
BENCHMARK(BM_BestTargetScan)->Arg(8)->Arg(64)->Arg(512);

void BM_NeighborDataApplyMoves(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const BucketId k = 32;
  std::vector<BucketId> assignment =
      Partition::Random(graph.num_data(), k, 1).assignment();
  QueryNeighborData ndata;
  ndata.Build(graph, assignment);
  // Move generation happens outside the timed region so the measurement
  // tracks the splice kernel, not batch construction.
  std::vector<uint8_t> seen(graph.num_data(), 0);
  uint64_t round = 0;
  int64_t applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<VertexMove> moves;
    moves.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      const VertexId v = static_cast<VertexId>(
          (round * 7919 + static_cast<uint64_t>(i) * 31) % graph.num_data());
      if (seen[v]) continue;
      seen[v] = 1;
      const BucketId from = assignment[v];
      const BucketId to =
          static_cast<BucketId>((from + 1 + i % (k - 1)) % k);
      if (to == from) continue;
      moves.push_back({v, from, to});
      assignment[v] = to;
    }
    for (const VertexMove& m : moves) seen[m.v] = 0;
    applied += static_cast<int64_t>(moves.size());
    ++round;
    state.ResumeTiming();
    ndata.ApplyMoves(graph, moves);
    benchmark::DoNotOptimize(ndata.TotalEntries());
  }
  state.SetItemsProcessed(applied);
}
BENCHMARK(BM_NeighborDataApplyMoves)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_BestTargetPushGroupedScan(benchmark::State& state) {
  // Group-restricted push scan (SHP-2/r recursion): one scan over the
  // sibling candidates and the accumulator, windowed to the span of them.
  const BucketId k = static_cast<BucketId>(state.range(0));
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const auto partition = Partition::Random(graph.num_data(), k, 1);
  QueryNeighborData ndata;
  ndata.Build(graph, partition.assignment());
  const GainComputer gain(0.5,
                          static_cast<uint32_t>(graph.MaxQueryDegree()));
  // Sibling pairs {2i, 2i+1} — the final recursion level.
  std::vector<std::vector<BucketId>> pairs;
  for (BucketId b = 0; b + 1 < k; b += 2) pairs.push_back({b, b + 1});
  const MoveTopology topo =
      MoveTopology::Grouped(k, graph.num_data(), 0.05, pairs);
  AffinitySweep sweep;
  sweep.Build(graph, ndata, gain.pow_table(), nullptr,
              topo.GroupWindows(partition));
  uint64_t v = 0;
  for (auto _ : state) {
    const VertexId vertex = static_cast<VertexId>(v++ % graph.num_data());
    const BucketId from = partition.bucket_of(vertex);
    const auto& siblings = pairs[static_cast<size_t>(from / 2)];
    benchmark::DoNotOptimize(gain.FindBestTargetPushGrouped(
        sweep.Entries(vertex), from, std::span<const BucketId>(siblings),
        static_cast<double>(graph.DataDegree(vertex))));
  }
}
BENCHMARK(BM_BestTargetPushGroupedScan)->Arg(8)->Arg(64)->Arg(512);

void BM_GroupedPullSiblingScan(benchmark::State& state) {
  // The pull reference the grouped push scan replaces: per-sibling MoveGain
  // over the neighbor-data arena (random-access gather per candidate).
  const BucketId k = static_cast<BucketId>(state.range(0));
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const auto partition = Partition::Random(graph.num_data(), k, 1);
  QueryNeighborData ndata;
  ndata.Build(graph, partition.assignment());
  const GainComputer gain(0.5,
                          static_cast<uint32_t>(graph.MaxQueryDegree()));
  uint64_t v = 0;
  for (auto _ : state) {
    const VertexId vertex = static_cast<VertexId>(v++ % graph.num_data());
    const BucketId from = partition.bucket_of(vertex);
    const BucketId sibling = from % 2 == 0 ? from + 1 : from - 1;
    benchmark::DoNotOptimize(
        gain.MoveGain(graph, ndata, vertex, from, sibling));
  }
}
BENCHMARK(BM_GroupedPullSiblingScan)->Arg(8)->Arg(64)->Arg(512);

void PushScanKernelBench(benchmark::State& state, AffinityScanFn fn) {
  // The raw push-argmax primitive both FindBestTargetPush* paths reduce to:
  // a sequential epsilon-guarded max over a contiguous accumulator run. The
  // scalar/SIMD pair demonstrates the block-skip kernel's speedup on the
  // same input (bit-identical results by construction).
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<AffinityEntry> run(n);
  for (size_t i = 0; i < n; ++i) {
    run[i] = {static_cast<BucketId>(i), 1, HashToUnitDouble(9, 2, i) * 4.0};
  }
  for (auto _ : state) {
    AffinityScanBest best;
    fn(run.data(), run.data() + run.size(),
       GainComputer::kAffinityTieEpsilon, &best);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_BestTargetPushScanScalar(benchmark::State& state) {
  PushScanKernelBench(state, &ScanAffinityRunScalar);
}
BENCHMARK(BM_BestTargetPushScanScalar)->Arg(64)->Arg(512);

void BM_BestTargetPushScanSimd(benchmark::State& state) {
  if (!SimdScanAvailable()) {
    state.SkipWithError("AVX2 scan kernel unavailable on this host/build");
    return;
  }
  PushScanKernelBench(state, SimdAffinityScan());
}
BENCHMARK(BM_BestTargetPushScanSimd)->Arg(64)->Arg(512);

void RefinerIterationBench(benchmark::State& state, bool incremental) {
  const BipartiteGraph graph = MakeGraph(20000, 16);
  const BucketId k = 32;
  RefinerOptions options;
  options.incremental = incremental;
  Refiner refiner(graph, options);
  const MoveTopology topo = MoveTopology::FullK(k, graph.num_data(), 0.05);
  uint64_t iteration = 0;
  Partition partition = Partition::Random(graph.num_data(), k, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        refiner.RunIteration(topo, &partition, 1, iteration++));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_edges()));
}

void BM_RefinerIteration(benchmark::State& state) {
  RefinerIterationBench(state, /*incremental=*/false);
}
BENCHMARK(BM_RefinerIteration)->Unit(benchmark::kMillisecond);

void BM_RefinerIterationIncremental(benchmark::State& state) {
  RefinerIterationBench(state, /*incremental=*/true);
}
BENCHMARK(BM_RefinerIterationIncremental)->Unit(benchmark::kMillisecond);

void BM_SocialGenerator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeGraph(10000, 12).num_edges());
  }
}
BENCHMARK(BM_SocialGenerator)->Unit(benchmark::kMillisecond);

void BM_FmPass(benchmark::State& state) {
  const BipartiteGraph graph = MakeGraph(5000, 10);
  FmOptions options;
  options.max_passes = 1;
  for (auto _ : state) {
    std::vector<int8_t> side(graph.num_data());
    for (VertexId v = 0; v < graph.num_data(); ++v) {
      side[v] = static_cast<int8_t>(v % 2);
    }
    benchmark::DoNotOptimize(FmRefineBisection(graph, {}, options, &side));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_FmPass)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace shp

BENCHMARK_MAIN();
