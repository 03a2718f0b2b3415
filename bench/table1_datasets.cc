// Table 1 reproduction: properties of the hypergraphs used in the
// experiments. Prints the paper-reported sizes next to the synthesized
// equivalents actually generated at the current bench scale.
#include <cstdio>

#include "common/flags.h"
#include "graph/graph_stats.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace shp;
  auto flags = Flags::Parse(argc, argv).value();
  bench::PrintBanner("Table 1: hypergraph properties (paper vs synthesized)",
                     flags);

  TablePrinter table({"hypergraph", "family", "paper |Q|", "paper |D|",
                      "paper |E|", "scale", "|Q|", "|D|", "|E|",
                      "avg qdeg"});
  for (const DatasetSpec& spec : DatasetCatalog()) {
    bench::Instance instance = bench::LoadInstance(spec.name);
    const GraphStats stats = ComputeGraphStats(instance.graph);
    table.AddRow({spec.name,
                  spec.family == DatasetFamily::kPowerLaw ? "power-law"
                  : spec.family == DatasetFamily::kWeb    ? "web"
                                                          : "social",
                  TablePrinter::FmtCount(static_cast<long long>(
                      spec.paper_queries)),
                  TablePrinter::FmtCount(static_cast<long long>(
                      spec.paper_data)),
                  TablePrinter::FmtCount(static_cast<long long>(
                      spec.paper_edges)),
                  TablePrinter::Fmt(instance.total_scale, 6),
                  TablePrinter::FmtCount(stats.num_queries),
                  TablePrinter::FmtCount(stats.num_data),
                  TablePrinter::FmtCount(static_cast<long long>(
                      stats.num_edges)),
                  TablePrinter::Fmt(stats.avg_query_degree, 1)});
  }
  table.Print();
  std::printf(
      "\nNote: synthesized instances preserve each dataset's average degree\n"
      "and structural family (degree tails, locality); see "
      "src/graph/dataset_catalog.h.\n");
  return 0;
}
