// Whole-job partition benchmark program. One process runs one step of one
// workload through the public library API and prints its result as a single
// JSON line on stdout; perfbench/run.py runs the steps and aggregates them.
//
//   --mode=setup   generate the workload's graph from --seed and write it to
//                  <dir>/input.shpg. Timed: this is the set-up.
//   --mode=job     load <dir>/input.shpg, run the workload's driver on an
//                  explicit pool, write the assignment with WritePartition.
//                  Timed: this is the job. Afterwards, untimed, it validates
//                  the written assignment and replays traffic against it.
//                  --trace=1 adds the per-layer record and <dir>/trace.json.
//   --mode=verify  the once-per-run reference: SHP-2 on the threaded engine
//                  (for shp2-k32-bsp) or SHP-k over an in-memory load (for
//                  shpk-k512-spill).
//
// Every job runs on ThreadPool(kPoolThreads), never the environment-sized
// global pool: refinement is deterministic only for a fixed thread count,
// and fanout, iteration counts and byte counts are compared exactly.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/recursive.h"
#include "core/shp_k.h"
#include "graph/gen_powerlaw.h"
#include "graph/graph_builder.h"
#include "graph/io_binary.h"
#include "graph/io_partition.h"
#include "graph/streaming_ingest.h"
#include "objective/affinity_sweep.h"
#include "objective/neighbor_data.h"
#include "objective/objective.h"
#include "objective/pow_table.h"
#include "sharding/serving_loop.h"
#include "trace.h"

namespace {

using perfbench::Clock;
using perfbench::EngineRecord;
using perfbench::Seconds;
using perfbench::Tracer;
using shp::BipartiteGraph;
using shp::BucketId;

constexpr size_t kPoolThreads = 4;
constexpr int kBspWorkers = 4;
constexpr double kEpsilon = 0.05;  // library default for both drivers
/// Moved fraction at or below which an incremental iteration counts as
/// steady state (the regime bench/refine_iteration gates).
constexpr double kSteadyFraction = 0.002;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kLevelSlots = 5;  // SHP-2 with k = 32 runs log2(32) levels
constexpr int kObjectiveReps = 3;

enum class Kind { kShp2, kShp2Bsp, kShpKSpill, kServe };

struct Workload {
  Kind kind = Kind::kShp2;
  BucketId k = 0;
  uint64_t seed = 0;
};

std::optional<Workload> FindWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.seed = seed;
  if (name == "shp2-k32") {
    w.kind = Kind::kShp2;
    w.k = 32;
  } else if (name == "shp2-k32-bsp") {
    w.kind = Kind::kShp2Bsp;
    w.k = 32;
  } else if (name == "shpk-k512-spill") {
    w.kind = Kind::kShpKSpill;
    w.k = 512;
  } else if (name == "serve-powerlaw") {
    w.kind = Kind::kServe;
    w.k = 24;  // bench/serving_loop's cluster size
  } else {
    return std::nullopt;
  }
  return w;
}

/// The input every workload partitions: the bench/refine_iteration graph
/// (60k queries, 40k data, ~453k pins) with its queries and data relabelled
/// by permutations drawn from `seed`. Every seed partitions that exact graph
/// (same sizes, same degree tail) under a different numbering, which changes
/// the partitioner's trajectory (initial assignment, processing order,
/// draws); seeds differ in trajectory only, never in input size.
BipartiteGraph MakeInput(uint64_t seed) {
  shp::PowerLawConfig config;
  config.num_queries = 60000;
  config.num_data = 40000;
  config.target_edges = 500000;
  config.seed = 7;
  const BipartiteGraph base = shp::GeneratePowerLaw(config);
  shp::Rng rng(seed);
  auto permutation = [&rng](shp::VertexId n) {
    std::vector<shp::VertexId> perm(n);
    for (shp::VertexId i = 0; i < n; ++i) perm[i] = i;
    for (shp::VertexId i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    return perm;
  };
  const std::vector<shp::VertexId> query_id = permutation(base.num_queries());
  const std::vector<shp::VertexId> data_id = permutation(base.num_data());
  shp::GraphBuilder builder(base.num_queries(), base.num_data());
  for (shp::VertexId q = 0; q < base.num_queries(); ++q) {
    for (shp::VertexId v : base.QueryNeighbors(q)) {
      builder.AddEdge(query_id[q], data_id[v]);
    }
  }
  return builder.Build();
}

/// bench/serving_loop defaults, with more epochs and requests so the run
/// lasts seconds instead of a fifth of one. The budget is n/2 instead of n/4:
/// at n/4 some seeds patch enough moves in the first epoch to overflow the
/// affinity accumulators' slack, and the re-layout raises peak RSS by ~40%
/// on those seeds only.
shp::ServingLoopConfig ServingConfig(const BipartiteGraph& graph, BucketId k) {
  shp::ServingLoopConfig config;
  config.num_epochs = 12;
  config.requests_per_phase = 150000;
  config.iterations_per_epoch = 6;
  config.move_budget_per_epoch = graph.num_data() / 2;
  config.cluster.num_servers = static_cast<uint32_t>(k);
  config.epsilon = kEpsilon;
  config.seed = 404;
  return config;
}

/// Library defaults, except that every level runs its full iteration budget
/// (min_move_fraction = 0): a convergence stop makes the amount of work per
/// job depend on the seed, and the benchmark compares seeds' medians.
shp::RecursiveOptions Shp2Options(const Workload& w) {
  shp::RecursiveOptions options;
  options.k = w.k;
  options.min_move_fraction = 0.0;
  return options;
}

shp::ShpKOptions ShpKOptions(const Workload& w) {
  shp::ShpKOptions options;
  options.k = w.k;
  options.min_move_fraction = 0.0;
  return options;
}

/// Budget under which the SHPG ingest spills its high-degree lists.
shp::StreamingIngestOptions SpillOptions(const std::string& dir) {
  shp::StreamingIngestOptions options;
  options.memory_budget_mb = 64;
  options.high_degree_factor = 1.0;
  options.spill_dir = dir + "/spill";
  return options;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Digest(const std::vector<BucketId>& assignment) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (BucketId b : assignment) {
    h ^= static_cast<uint32_t>(b);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Minimal one-line JSON object writer.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (c == '\n') ? ' ' : c;
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string Object() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Installs a finished assignment in one iteration. Driving it through
/// ServingLoop deploys a partition job's output onto a cluster that serves
/// the hash placement, so the serving layer's own migration machinery
/// prices the result: p99 while copies are in flight, p99 once settled, and
/// the bytes moved.
class DeployRefiner : public shp::RefinerInterface {
 public:
  explicit DeployRefiner(const std::vector<BucketId>& target)
      : target_(target) {}

  shp::IterationStats RunIteration(const shp::MoveTopology&,
                                   shp::Partition* partition, uint64_t,
                                   uint64_t, shp::ThreadPool*,
                                   const std::vector<BucketId>*,
                                   double) override {
    shp::IterationStats stats;
    for (shp::VertexId v = 0; v < partition->num_data(); ++v) {
      if (partition->bucket_of(v) == target_[v]) continue;
      partition->Move(v, target_[v]);
      ++stats.num_moved;
    }
    stats.moved_fraction = static_cast<double>(stats.num_moved) /
                           static_cast<double>(partition->num_data());
    return stats;
  }

 private:
  const std::vector<BucketId>& target_;
};

shp::ServingReport Deploy(const BipartiteGraph& graph,
                          const std::vector<BucketId>& assignment,
                          BucketId k) {
  shp::ServingLoopConfig config;
  config.num_epochs = 1;
  config.iterations_per_epoch = 1;
  config.requests_per_phase = 200000;
  config.cluster.num_servers = static_cast<uint32_t>(k);
  config.refiner_factory = [&assignment](const BipartiteGraph&,
                                         const shp::RefinerOptions&) {
    return std::make_unique<DeployRefiner>(assignment);
  };
  return shp::ServingLoop(graph, config).Run();
}

constexpr const char* kRegimes[] = {"rebuild", "incremental", "steady"};

/// Index into kRegimes: rebuild when the iteration rebuilt its neighbor
/// data, steady when it patched and moved at most kSteadyFraction.
int RegimeOf(const shp::IterationStats& stats) {
  if (stats.full_rebuild) return 0;
  return stats.moved_fraction <= kSteadyFraction ? 2 : 1;
}

template <typename Fn>
double MedianMillis(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(Seconds(start, Clock::now()) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

int Fail(const std::string& error) {
  JsonLine line;
  line.Raw("ok", "false");
  line.Str("error", error);
  std::printf("%s\n", line.Object().c_str());
  return 1;
}

int RunSetup(const Workload& w, const std::string& dir) {
  const Clock::time_point start = Clock::now();
  const BipartiteGraph graph = MakeInput(w.seed);
  const shp::Status written = shp::WriteBinaryGraph(graph, dir + "/input.shpg");
  const double setup_s = Seconds(start, Clock::now());
  if (!written.ok()) return Fail("write input: " + written.ToString());
  JsonLine line;
  line.Raw("ok", "true");
  line.Num("setup_s", setup_s);
  line.Num("queries", graph.num_queries());
  line.Num("data", graph.num_data());
  line.Num("pins", static_cast<double>(graph.num_edges()));
  std::printf("%s\n", line.Object().c_str());
  return 0;
}

/// The in-memory threaded reference a run compares its workload against.
int RunVerify(const Workload& w, const std::string& dir) {
  shp::ThreadPool pool(kPoolThreads);
  auto loaded = shp::ReadBinaryGraph(dir + "/input.shpg");
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());
  const BipartiteGraph& graph = loaded.value();
  std::vector<BucketId> assignment;
  if (w.kind == Kind::kShp2Bsp) {
    assignment =
        shp::RecursivePartitioner(Shp2Options(w)).Run(graph, &pool).assignment;
  } else if (w.kind == Kind::kShpKSpill) {
    assignment =
        shp::ShpKPartitioner(ShpKOptions(w)).Run(graph, &pool).assignment;
  } else {
    return Fail("workload has no reference run");
  }
  JsonLine line;
  line.Raw("ok", "true");
  line.Num("fanout", shp::AverageFanout(graph, assignment, &pool));
  line.Str("digest", Digest(assignment));
  std::printf("%s\n", line.Object().c_str());
  return 0;
}

int RunJob(const Workload& w, const std::string& dir, bool trace) {
  shp::ThreadPool pool(kPoolThreads);
  Tracer tracer;  // job-level spans are always kept; they cost a few clocks
  EngineRecord engine;
  const shp::RefinerFactory factory = perfbench::InstrumentedFactory(
      w.kind == Kind::kShp2Bsp ? kBspWorkers : 0, &pool,
      trace ? &tracer : nullptr, &engine);
  const std::string input = dir + "/input.shpg";
  const std::string output = dir + "/assignment.txt";

  // ---------------------------------------------------------- timed job
  tracer.Begin("job");
  tracer.Begin("load");
  shp::StreamingIngestStats ingest;
  auto loaded = w.kind == Kind::kShpKSpill
                    ? shp::StreamingIngestBinary(input, SpillOptions(dir),
                                                 &ingest)
                    : shp::ReadBinaryGraph(input);
  const double load_s = tracer.End();
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());
  const BipartiteGraph& graph = loaded.value();

  std::vector<BucketId> assignment;
  std::vector<shp::ShpIterationRecord> history;
  shp::ServingReport serving;
  tracer.Begin(w.kind == Kind::kServe ? "serve" : "partition");
  if (w.kind == Kind::kServe) {
    shp::ServingLoopConfig config = ServingConfig(graph, w.k);
    config.refiner_factory = factory;
    serving = shp::ServingLoop(graph, config).Run();
    assignment = serving.final_assignment;
  } else if (w.kind == Kind::kShpKSpill) {
    shp::ShpKOptions options = ShpKOptions(w);
    options.refiner_factory = factory;
    shp::ShpResult result = shp::ShpKPartitioner(options).Run(graph, &pool);
    assignment = std::move(result.assignment);
    history = std::move(result.history);
  } else {
    shp::RecursiveOptions options = Shp2Options(w);
    options.refiner_factory = factory;
    shp::RecursiveResult result =
        shp::RecursivePartitioner(options).Run(graph, &pool);
    assignment = std::move(result.assignment);
    history = std::move(result.history);
  }
  tracer.CloseLevel(&engine);
  const double run_s = tracer.End();
  tracer.Begin("write");
  const shp::Status written = shp::WritePartition(assignment, output);
  const double write_s = tracer.End();
  const double job_s = tracer.End();
  const double peak_rss_mb = PeakRssMb();
  if (!written.ok()) return Fail("write: " + written.ToString());

  // ------------------------------------------------- untimed validation
  std::vector<std::string> errors;
  const double fanout = shp::AverageFanout(graph, assignment, &pool);
  auto reread = shp::ReadPartition(output, w.k, graph.num_data());
  if (!reread.ok()) {
    errors.push_back("written assignment: " + reread.status().ToString());
  } else {
    const uint64_t capacity = shp::MoveTopology::BucketCapacity(
        graph.num_data(), w.k, /*leaves=*/1, kEpsilon);
    std::vector<uint64_t> sizes(static_cast<size_t>(w.k), 0);
    for (BucketId b : reread.value()) ++sizes[static_cast<size_t>(b)];
    const uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
    if (largest > capacity) {
      errors.push_back("bucket of " + std::to_string(largest) +
                       " over capacity " + std::to_string(capacity));
    }
    if (shp::AverageFanout(graph, reread.value(), &pool) != fanout) {
      errors.push_back("fanout of the written file differs from the job's");
    }
  }

  // Serving metrics: the serving workload's own run, or the deployment of a
  // partition job's output over the hash placement.
  if (w.kind != Kind::kServe) serving = Deploy(graph, assignment, w.k);
  if (serving.final_assignment != assignment) {
    errors.push_back("served assignment differs from the job's output");
  }
  if (serving.scratch_grow_events != 0) {
    errors.push_back("multiget scratch grew during replay");
  }
  uint64_t queries = 0;
  for (const shp::EpochReport& e : serving.epochs) {
    for (const shp::PhaseStats* p : {&e.before, &e.during_migration, &e.after}) {
      queries += p->served + p->empty;
    }
  }
  if (w.kind == Kind::kServe) {
    const uint64_t budget = ServingConfig(graph, w.k).move_budget_per_epoch;
    for (const shp::EpochReport& e : serving.epochs) {
      if (e.executed_moves > budget) errors.push_back("epoch over move budget");
    }
    if (!(serving.p99_end < serving.p99_start)) {
      errors.push_back("repartition did not lower p99");
    }
  }

  // Regime counts come from the drivers' own history when they keep one
  // (the serving loop does not), else from the decorator's record.
  uint64_t regime_iters[3] = {0, 0, 0};
  if (w.kind == Kind::kServe) {
    for (const auto& r : engine.iterations) ++regime_iters[RegimeOf(r.stats)];
  } else {
    for (const auto& r : history) ++regime_iters[RegimeOf(r.stats)];
  }
  const uint64_t iterations =
      regime_iters[0] + regime_iters[1] + regime_iters[2];

  JsonLine line;
  line.Num("job_s", job_s);
  line.Num("peak_rss_mb", peak_rss_mb);
  line.Num("queries", static_cast<double>(queries));

  // Values that must repeat exactly between jobs of one seed.
  JsonLine det;
  det.Num("fanout", fanout);
  det.Str("digest", Digest(assignment));
  det.Num("serve_p99_end", serving.p99_end);
  det.Num("serve_p99_during", serving.p99_during_worst);
  det.Num("migration_mb",
          static_cast<double>(serving.total_migration_bytes) / kMiB);
  det.Num("graph.spilled_mb", static_cast<double>(ingest.spilled_bytes) / kMiB);
  if (w.kind != Kind::kServe || trace) {
    det.Num("core.iterations", static_cast<double>(iterations));
    for (int i = 0; i < 3; ++i) {
      det.Num(std::string("core.") + kRegimes[i] + "_iters",
              static_cast<double>(regime_iters[i]));
    }
  }

  if (trace) {
    JsonLine layers;
    const double input_mb =
        static_cast<double>(std::filesystem::file_size(input)) / kMiB;
    layers.Num("graph.load_s", load_s);
    layers.Num("graph.load_mb_per_s", input_mb / load_s);
    layers.Num("graph.spilled_mb",
               static_cast<double>(ingest.spilled_bytes) / kMiB);
    layers.Num("graph.write_s", write_s);

    double regime_s[3] = {0.0, 0.0, 0.0};
    uint64_t recomputed = 0, moved = 0, proposals = 0, draws = 0, reverted = 0,
             delta_records = 0;
    for (const auto& r : engine.iterations) {
      regime_s[RegimeOf(r.stats)] += r.seconds;
      recomputed += r.stats.num_recomputed;
      moved += r.stats.num_moved;
      proposals += r.stats.num_proposals;
      draws += r.stats.num_draws;
      reverted += r.stats.num_reverted;
      delta_records += r.stats.num_delta_records;
    }
    double build_s = 0.0;
    for (double s : engine.factory_seconds) build_s += s;
    const double iterate_s = regime_s[0] + regime_s[1] + regime_s[2];
    const double driver_s = job_s - load_s - write_s - iterate_s - build_s;
    layers.Num("core.iterations", static_cast<double>(iterations));
    for (int i = 0; i < 3; ++i) {
      const std::string regime = kRegimes[i];
      layers.Num("core." + regime + "_iters",
                 static_cast<double>(regime_iters[i]));
      layers.Num("core." + regime + "_s", regime_s[i]);
      layers.Num("share." + regime, regime_s[i] / job_s);
    }
    for (int i = 0; i < kLevelSlots; ++i) {
      const size_t l = static_cast<size_t>(i);
      layers.Num("core.level_s.L" + std::to_string(i + 1),
                 l < engine.level_seconds.size() ? engine.level_seconds[l]
                                                 : 0.0);
    }
    layers.Num("core.refiner_build_s", build_s);
    layers.Num("core.driver_s", driver_s);
    layers.Num("core.recompute_fraction",
               static_cast<double>(recomputed) /
                   (static_cast<double>(std::max<uint64_t>(1, iterations)) *
                    graph.num_data()));
    layers.Num("core.moves_per_proposal",
               static_cast<double>(moved) /
                   static_cast<double>(std::max<uint64_t>(1, proposals)));
    layers.Num("core.draws", static_cast<double>(draws));
    layers.Num("core.reverted", static_cast<double>(reverted));
    layers.Num("core.delta_records", static_cast<double>(delta_records));

    // Objective layer: the two from-scratch builds a rebuild iteration
    // starts with, each on its own over the job's graph and output.
    shp::QueryNeighborData ndata;
    layers.Num("objective.ndata_build_ms", MedianMillis(kObjectiveReps, [&] {
                 ndata.Build(graph, assignment, &pool);
               }));
    const shp::PowTable pow(1.0 - shp::RefinerOptions().p);
    shp::AffinitySweep sweep;
    layers.Num("objective.sweep_build_ms", MedianMillis(kObjectiveReps, [&] {
                 sweep.Build(graph, ndata, pow, &pool);
               }));

    uint64_t remote_bytes[4] = {0, 0, 0, 0};
    uint64_t envelope = 0, messages = 0;
    double max_work = 0.0, mean_work = 0.0;
    for (const shp::SuperstepStats& s : engine.superstep_log) {
      const int step = s.label.empty() ? 0 : s.label[0] - '1';
      if (step >= 0 && step < 4) remote_bytes[step] += s.traffic.remote_bytes;
      envelope += s.envelope_bytes;
      messages += s.traffic.remote_messages;
      max_work += static_cast<double>(s.MaxWork());
      if (!s.work_units.empty()) {
        mean_work += static_cast<double>(s.TotalWork()) /
                     static_cast<double>(s.work_units.size());
      }
    }
    layers.Num("engine.supersteps",
               static_cast<double>(engine.superstep_log.size()));
    for (int i = 0; i < 4; ++i) {
      const std::string key = "engine.remote_bytes.s" + std::to_string(i + 1);
      layers.Num(key, static_cast<double>(remote_bytes[i]));
      det.Num(key, static_cast<double>(remote_bytes[i]));
    }
    layers.Num("engine.envelope_bytes", static_cast<double>(envelope));
    layers.Num("engine.remote_messages", static_cast<double>(messages));
    layers.Num("engine.work_skew", mean_work > 0.0 ? max_work / mean_work : 0.0);
    layers.Num("engine.bootstrap_reships",
               static_cast<double>(engine.bootstrap_reships));
    layers.Num("engine.max_worker_state_mb",
               static_cast<double>(engine.max_worker_state_bytes) / kMiB);

    const bool serve = w.kind == Kind::kServe;
    const double refine_s = iterate_s + build_s;
    const double replay_s = run_s - refine_s;
    layers.Num("sharding.refine_s", serve ? refine_s : 0.0);
    layers.Num("sharding.replay_s", serve ? replay_s : 0.0);
    layers.Num("sharding.queries_per_s",
               serve ? static_cast<double>(queries) / replay_s : 0.0);
    layers.Num("sharding.dual_read_queries",
               serve ? static_cast<double>(serving.total_dual_read_queries)
                     : 0.0);
    layers.Num("sharding.migrated_records",
               serve ? static_cast<double>(serving.total_migrated_records)
                     : 0.0);
    layers.Num("sharding.scratch_grow_events",
               serve ? static_cast<double>(serving.scratch_grow_events) : 0.0);

    // Shares of job_s (the regime shares are above); driver_s is the
    // remainder, so they sum to 1.
    layers.Num("share.load", load_s / job_s);
    layers.Num("share.refiner_build", build_s / job_s);
    layers.Num("share.driver", driver_s / job_s);
    layers.Num("share.write", write_s / job_s);
    if (driver_s < 0.0) errors.push_back("layer times exceed job_s");
    line.Raw("layers", layers.Object());

    if (!tracer.WriteChromeTrace(dir + "/trace.json")) {
      errors.push_back("cannot write trace.json");
    }
  }
  std::string error_text;
  for (const std::string& e : errors) error_text += e + "; ";
  line.Raw("ok", errors.empty() ? "true" : "false");
  line.Str("error", error_text);
  line.Raw("det", det.Object());
  std::printf("%s\n", line.Object().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = shp::Flags::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const shp::Flags& flags = parsed.value();
  const std::string mode = flags.GetString("mode", "");
  const std::string dir = flags.GetString("dir", "");
  const auto workload =
      FindWorkload(flags.GetString("workload", ""),
                   static_cast<uint64_t>(flags.GetInt("seed", 1)));
  if (!workload || dir.empty()) {
    return Fail("usage: --mode=setup|job|verify --workload=NAME --seed=N "
                "--dir=DIR [--trace=0|1]");
  }
  if (mode == "setup") return RunSetup(*workload, dir);
  if (mode == "verify") return RunVerify(*workload, dir);
  if (mode == "job") return RunJob(*workload, dir, flags.GetInt("trace", 0) != 0);
  return Fail("unknown --mode " + mode);
}
