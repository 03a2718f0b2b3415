// Table 3 reproduction: run-time of distributed hypergraph partitioners
// across the large hypergraphs for k ∈ {32, 512, 8192} on a 4-machine
// cluster.
//
// SHP-k and SHP-2 run on the simulated Giraph cluster (engine/); reported
// minutes are cost-model cluster time extrapolated to paper scale
// (simulated_minutes / total_scale — iterations are scale-free, per-
// iteration work is linear in |E|). The multilevel baseline plays the
// Zoltan/Parkway role: it is charged the un-sampled hierarchy footprint
// against a 4 × 144 GB budget scaled by the same factor, and rows that blow
// the budget print FAIL(mem), mirroring how the paper reports Zoltan and
// Parkway failures. Its runtime is measured once per dataset and reused for
// every k, matching the paper's observation that "Zoltan's run-time was
// largely independent of the bucket count".
//
// Defaults keep the single-core run to minutes: k ∈ {32, 512} and modest
// scales. Pass --full (and/or SHP_BENCH_SCALE) for the complete grid
// including k = 8192.
#include <cstdio>

#include "baseline/multilevel.h"
#include "common/flags.h"
#include "common/timer.h"
#include "engine/distributed_shp.h"
#include "harness.h"

namespace {

constexpr double kBudgetPaperBytes = 4.0 * 144e9;  // 4 machines × 144 GB RAM
constexpr double kTimeCapMinutes = 600.0;          // paper's 10-hour limit

std::string FormatMinutes(double minutes) {
  if (minutes > kTimeCapMinutes) return ">600";
  return shp::TablePrinter::Fmt(minutes, minutes < 10 ? 2 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shp;
  auto flags = Flags::Parse(argc, argv).value();
  bench::PrintBanner(
      "Table 3: distributed partitioner run-time (minutes, 4 machines, "
      "extrapolated to paper scale)",
      flags);

  const bool full = flags.GetBool("full", false);
  struct Row {
    std::string dataset;
    double extra_scale;
  };
  const std::vector<Row> datasets = {{"soc-Pokec", full ? 1.0 : 0.5},
                                     {"soc-LJ", full ? 1.0 : 0.5},
                                     {"FB-50M", 1.0},
                                     {"FB-2B", 1.0},
                                     {"FB-5B", 1.0},
                                     {"FB-10B", 1.0}};
  std::vector<BucketId> ks = {32, 512};
  if (full) ks.push_back(8192);
  const int machines = static_cast<int>(flags.GetInt("machines", 4));

  TablePrinter table({"hypergraph", "k", "SHP-k", "SHP-2", "Multilevel*",
                      "SHP-2 msgs/iter", "max-worker-state"});
  for (const Row& row_spec : datasets) {
    bench::Instance instance =
        bench::LoadInstance(row_spec.dataset, row_spec.extra_scale);
    const double s = instance.total_scale;

    // Multilevel (Zoltan/Parkway role): once per dataset, k-independent.
    std::string multilevel_cell;
    {
      MultilevelOptions options;
      options.seed = 3;
      options.memory_budget_bytes =
          static_cast<uint64_t>(kBudgetPaperBytes * s);
      auto partitioner = MakeMultilevelPartitioner(options);
      Timer timer;
      auto result = partitioner->Partition(instance.graph, 32, nullptr);
      multilevel_cell = result.ok()
                            ? FormatMinutes(timer.ElapsedSeconds() / 60.0 / s)
                            : "FAIL(mem)";
    }

    for (BucketId k : ks) {
      std::vector<std::string> row = {row_spec.dataset, std::to_string(k)};
      if (static_cast<VertexId>(k) * 2 > instance.graph.num_data()) {
        row.insert(row.end(),
                   {"n/a@scale", "n/a@scale", multilevel_cell, "-", "-"});
        table.AddRow(row);
        continue;
      }
      // SHP-k on the BSP cluster (iteration cap keeps the 1-core default
      // run short; quality at convergence is unaffected for timing).
      {
        DistributedShpOptions options;
        options.bsp.num_workers = machines;
        options.recursive = false;
        options.shpk_options.seed = 3;
        options.shpk_options.max_iterations = full ? 60 : 30;
        const DistributedShpReport report =
            DistributedShp(options).Run(instance.graph, k);
        row.push_back(FormatMinutes(report.simulated.seconds / 60.0 / s));
      }
      // SHP-2 on the BSP cluster.
      uint64_t msgs_per_iter = 0;
      uint64_t worker_state = 0;
      {
        DistributedShpOptions options;
        options.bsp.num_workers = machines;
        options.recursive = true;
        options.recursive_options.seed = 3;
        const DistributedShpReport report =
            DistributedShp(options).Run(instance.graph, k);
        row.push_back(FormatMinutes(report.simulated.seconds / 60.0 / s));
        if (report.num_supersteps > 0) {
          msgs_per_iter = report.total_traffic.remote_messages /
                          std::max<uint64_t>(1, report.num_supersteps / 4);
        }
        worker_state = report.max_worker_state_bytes;
      }
      row.push_back(multilevel_cell);
      row.push_back(
          TablePrinter::FmtCount(static_cast<long long>(msgs_per_iter)));
      row.push_back(
          TablePrinter::FmtCount(static_cast<long long>(worker_state)) + "B");
      table.AddRow(row);
    }
  }
  table.Print();
  std::printf(
      "\n* Multilevel (src/baseline/multilevel.h) stands in for Zoltan/"
      "Parkway; measured once\n  per dataset (its runtime is k-independent, as "
      "the paper observes for Zoltan).\n  FAIL(mem) = un-sampled hierarchy "
      "exceeds the scaled 4x144GB budget — the paper's\n  failure mode for "
      "those tools. n/a@scale rows need a larger SHP_BENCH_SCALE.\n  Run "
      "with --full for the complete k grid including 8192.\n");
  return 0;
}
