#include "engine/distributed_shp.h"

#include <algorithm>
#include <memory>

#include "common/timer.h"
#include "engine/shp_bsp.h"

namespace shp {

namespace {

/// Forwards to a BspRefiner and folds its worker-state estimate into
/// *max_state after every iteration, when the replicas it counts exist.
class StateSamplingRefiner : public RefinerInterface {
 public:
  StateSamplingRefiner(std::unique_ptr<BspRefiner> inner, uint64_t* max_state)
      : inner_(std::move(inner)), max_state_(max_state) {}

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty) override {
    const IterationStats stats = inner_->RunIteration(
        topo, partition, seed, iteration, pool, anchor, anchor_penalty);
    *max_state_ = std::max(*max_state_, inner_->MaxWorkerStateBytes());
    return stats;
  }

  void SetMoveBudget(uint64_t max_moves) override {
    inner_->SetMoveBudget(max_moves);
  }

 private:
  std::unique_ptr<BspRefiner> inner_;
  uint64_t* max_state_;
};

}  // namespace

DistributedShp::DistributedShp(const DistributedShpOptions& options)
    : options_(options) {}

DistributedShpReport DistributedShp::Run(const BipartiteGraph& graph,
                                         BucketId k, ThreadPool* pool) const {
  DistributedShpReport report;
  report.k = k;
  report.num_workers = options_.bsp.num_workers;

  // The factory hands every driver level a BSP refiner that appends into the
  // shared superstep log. The BspRefiner keeps cross-iteration state (dirty
  // flags, replicas, cached proposals), so one instance per driver level is
  // exactly the Giraph job lifetime. Its worker-state estimate is sampled
  // after each iteration: a freshly constructed refiner holds no replicas.
  auto log = std::make_shared<std::vector<SuperstepStats>>();
  auto max_state = std::make_shared<uint64_t>(0);
  const BspConfig bsp = options_.bsp;
  RefinerFactory factory =
      [log, max_state, bsp](const BipartiteGraph& g,
                            const RefinerOptions& ropts)
      -> std::unique_ptr<RefinerInterface> {
    return std::make_unique<StateSamplingRefiner>(
        std::make_unique<BspRefiner>(g, ropts, bsp, log.get()),
        max_state.get());
  };

  Timer timer;
  if (options_.recursive) {
    RecursiveOptions options = options_.recursive_options;
    options.k = k;
    options.refiner_factory = factory;
    report.assignment = RecursivePartitioner(options).Run(graph, pool)
                            .assignment;
  } else {
    ShpKOptions options = options_.shpk_options;
    options.k = k;
    options.refiner_factory = factory;
    report.assignment = ShpKPartitioner(options).Run(graph, pool).assignment;
  }
  report.host_wall_seconds = timer.ElapsedSeconds();

  report.supersteps = std::move(*log);
  report.num_supersteps = report.supersteps.size();
  for (const auto& stats : report.supersteps) {
    report.total_traffic += stats.traffic;
  }
  report.simulated = CostModel(options_.cost)
                         .Total(report.supersteps, options_.bsp.num_workers);
  report.max_worker_state_bytes = *max_state;
  return report;
}

}  // namespace shp
