#include "sharding/serving_loop.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "sharding/traffic_replay.h"

namespace shp {

ServingLoop::ServingLoop(const BipartiteGraph& graph,
                         const ServingLoopConfig& config)
    : graph_(graph),
      config_(config),
      partition_(Partition::BalancedRandom(
          graph.num_data(), static_cast<BucketId>(config.cluster.num_servers),
          config.seed)),
      cluster_(config.cluster, partition_.assignment()),
      rng_(config.seed ^ 0x5e21f1c0ffeeULL) {
  SHP_CHECK(config_.cluster.num_servers >= 2) << "need at least two servers";
  refiner_ = config_.refiner_factory
                 ? config_.refiner_factory(graph_, config_.refine)
                 : std::make_unique<Refiner>(graph_, config_.refine);
  target_shadow_ = partition_.assignment();
  secondary_.assign(graph_.num_data(), -1);
  copy_src_.assign(graph_.num_data(), -1);
  queued_.assign(graph_.num_data(), 0);
  active_streams_.assign(config_.cluster.num_servers, 0);
  dead_.assign(config_.cluster.num_servers, 0);
  scratch_.Prepare(graph_);
  latencies_.reserve(config_.requests_per_phase);
  refine_seed_ = config_.seed * 0x9e3779b97f4a7c15ULL + 1;
  RebuildTopology();
}

void ServingLoop::RebuildTopology() {
  const BucketId k = static_cast<BucketId>(config_.cluster.num_servers);
  topo_ = MoveTopology::FullK(k, graph_.num_data(), config_.epsilon);
  BucketId alive = 0;
  for (BucketId b = 0; b < k; ++b) {
    if (!dead_[b]) ++alive;
  }
  if (alive == k) return;
  SHP_CHECK(alive > 0) << "every server killed";
  // A dead bucket accepts nothing; the survivors share the whole load, so
  // their cap must be measured against n/k_alive — keeping the original
  // n/k caps would make any balanced assignment over the survivors
  // infeasible.
  const uint64_t live_cap = MoveTopology::BucketCapacity(
      graph_.num_data(), alive, /*leaves=*/1, config_.epsilon);
  for (BucketId b = 0; b < k; ++b) {
    topo_.capacity[b] = dead_[b] ? 0 : live_cap;
  }
}

void ServingLoop::AddStream(BucketId server) {
  if (server >= 0) ++active_streams_[server];
}

void ServingLoop::RemoveStream(BucketId server) {
  if (server >= 0) {
    SHP_DCHECK(active_streams_[server] > 0);
    --active_streams_[server];
  }
}

void ServingLoop::StartMigration(VertexId v, BucketId target) {
  SHP_DCHECK(secondary_[v] < 0);
  secondary_[v] = target;
  copy_src_[v] = cluster_.record_server(v);  // -1 after a kill: restore copy
  AddStream(copy_src_[v]);
  AddStream(target);
  ++pending_migrations_;
  if (!queued_[v]) {
    queued_[v] = 1;
    queue_.push_back(v);
  }
  // else: v still has a stale (cancelled) queue entry — revive it in place
  // so the record is copied once, at its original queue position.
}

void ServingLoop::CancelMigration(VertexId v) {
  if (secondary_[v] < 0) return;
  RemoveStream(copy_src_[v]);
  RemoveStream(secondary_[v]);
  secondary_[v] = -1;
  copy_src_[v] = -1;
  SHP_DCHECK(pending_migrations_ > 0);
  --pending_migrations_;
  // The queue entry stays; AdvanceCopier skips it for free.
}

void ServingLoop::AdvanceCopier(uint32_t budget, EpochReport* epoch) {
  while (budget > 0 && queue_head_ < queue_.size()) {
    const VertexId v = queue_[queue_head_++];
    queued_[v] = 0;
    if (secondary_[v] < 0) continue;  // cancelled while queued: free skip
    const BucketId target = secondary_[v];
    RemoveStream(copy_src_[v]);
    RemoveStream(target);
    // Cutover: the copy landed, the new location takes over and the old
    // (possibly already-dead) one is retired for this record.
    cluster_.SetRecordServer(v, target);
    secondary_[v] = -1;
    copy_src_[v] = -1;
    SHP_DCHECK(pending_migrations_ > 0);
    --pending_migrations_;
    ++epoch->migrated_records;
    epoch->migration_bytes += config_.record_bytes;
    --budget;
  }
  if (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
  }
}

void ServingLoop::EnqueueRefinementMoves(EpochReport* epoch) {
  (void)epoch;
  const VertexId n = graph_.num_data();
  for (VertexId v = 0; v < n; ++v) {
    const BucketId target = partition_.bucket_of(v);
    if (target == target_shadow_[v]) continue;
    target_shadow_[v] = target;
    const BucketId primary = cluster_.record_server(v);
    if (target == primary) {
      // Moved back to where it is already served: nothing to copy.
      CancelMigration(v);
      continue;
    }
    if (secondary_[v] >= 0) {
      // In-flight copy retargeted mid-stream: keep the source stream and
      // queue position, swap the destination.
      RemoveStream(secondary_[v]);
      AddStream(target);
      secondary_[v] = target;
      continue;
    }
    StartMigration(v, target);
  }
}

BucketId ServingLoop::LeastLoadedLiveServer() const {
  BucketId best = -1;
  for (BucketId b = 0; b < static_cast<BucketId>(config_.cluster.num_servers);
       ++b) {
    if (dead_[b]) continue;
    if (best < 0 || load_[b] < load_[best]) best = b;
  }
  SHP_CHECK(best >= 0) << "no live server to rehome onto";
  return best;
}

void ServingLoop::ApplyKills(uint64_t epoch, EpochReport* report) {
  bool any = false;
  for (const ServerKillEvent& event : config_.kill_events) {
    if (event.epoch != epoch) continue;
    const BucketId s = event.server;
    SHP_CHECK(s >= 0 && s < static_cast<BucketId>(config_.cluster.num_servers))
        << "kill event names a nonexistent server";
    if (dead_[s]) continue;
    dead_[s] = 1;
    any = true;

    // Effective record load per server (primary, or the copy target while
    // the primary is unassigned) — the rehoming argmin reads this.
    load_.assign(config_.cluster.num_servers, 0);
    const VertexId n = graph_.num_data();
    for (VertexId v = 0; v < n; ++v) {
      const BucketId home = cluster_.record_server(v) >= 0
                                ? cluster_.record_server(v)
                                : secondary_[v];
      if (home >= 0) ++load_[home];
    }

    for (VertexId v = 0; v < n; ++v) {
      if (secondary_[v] == s) {
        // Copy destined for the dead server: abandon it.
        CancelMigration(v);
      }
      const BucketId primary = cluster_.record_server(v);
      if (primary == s) {
        if (secondary_[v] >= 0) {
          // A restore/migration copy to a live server is already in flight;
          // it becomes the record's only home until the cutover lands.
          cluster_.SetRecordServer(v, -1);
          RemoveStream(copy_src_[v]);
          copy_src_[v] = -1;
          --load_[s];
        } else {
          // Emergency rehome: restore-copy the record to the least-loaded
          // live server through the ordinary dual-read machinery (primary
          // unassigned, so the copy target serves alone meanwhile).
          const BucketId r = LeastLoadedLiveServer();
          cluster_.SetRecordServer(v, -1);
          StartMigration(v, r);
          --load_[s];
          ++load_[r];
          ++report->recovered_records;
        }
      } else if (primary < 0 && secondary_[v] < 0) {
        // Both homes lost to kills (primary earlier, copy target just now):
        // restore from scratch.
        const BucketId r = LeastLoadedLiveServer();
        StartMigration(v, r);
        ++load_[r];
        ++report->recovered_records;
      }
      if (partition_.bucket_of(v) == s) {
        // The target partition must vacate the dead bucket too, or the
        // refiner would keep records homed there.
        const BucketId home =
            secondary_[v] >= 0 ? secondary_[v] : cluster_.record_server(v);
        SHP_CHECK(home >= 0) << "record left without a live target";
        partition_.Move(v, home);
        target_shadow_[v] = home;
      }
    }
  }
  if (any) RebuildTopology();
}

VertexId ServingLoop::SampleQuery(uint64_t epoch) {
  const uint64_t nq = static_cast<uint64_t>(graph_.num_queries());
  auto powerlaw = [&]() {
    return SamplePopularQuery(&rng_, nq, config_.popularity_skew);
  };
  switch (config_.scenario) {
    case TrafficScenario::kPowerLaw:
      return static_cast<VertexId>(powerlaw());
    case TrafficScenario::kHotKey: {
      if (rng_.NextBernoulli(config_.hot_mass)) {
        // Hot set scattered across the id space (stride apart) so it is not
        // the same set the power-law tail already favors.
        const uint64_t hot_count = std::max<uint64_t>(
            1, static_cast<uint64_t>(config_.hot_fraction * nq));
        const uint64_t stride = std::max<uint64_t>(1, nq / hot_count);
        return static_cast<VertexId>((rng_.NextBounded(hot_count) * stride) %
                                     nq);
      }
      return static_cast<VertexId>(powerlaw());
    }
    case TrafficScenario::kDiurnal: {
      // The popularity center rotates by nq / phases each epoch — the
      // workload the partition was trained on drifts away underneath it.
      const uint64_t phases = std::max<uint64_t>(1, config_.diurnal_phases);
      const uint64_t shift = (epoch % phases) * (nq / phases);
      return static_cast<VertexId>((powerlaw() + shift) % nq);
    }
  }
  return 0;
}

PhaseStats ServingLoop::ReplayPhase(uint64_t min_requests, bool advance_copier,
                                    uint64_t epoch, EpochReport* report) {
  PhaseStats stats;
  if (graph_.num_queries() == 0) return stats;
  DualReadView view;
  view.secondary = secondary_.data();
  view.copy_streams = active_streams_.data();
  view.interference = config_.migration_interference;

  latencies_.clear();
  double latency_sum = 0.0;
  double fanout_sum = 0.0;
  // The during phase runs past min_requests until the copy queue drains, so
  // every epoch ends settled and the `after` phase measures the steady
  // state. Termination: each extra request copies ≥ 1 pending record.
  for (uint64_t r = 0;
       r < min_requests || (advance_copier && pending_migrations_ > 0); ++r) {
    const VertexId q = SampleQuery(epoch);
    QueryTrace trace;
    if (pending_migrations_ == 0) {
      // Settled: no record has a secondary and no server streams, so the
      // view is empty and the profile serves. It is rebuilt only after the
      // assignment changed (about once per epoch, when the copier drains).
      profile_.Refresh(graph_, cluster_);
      trace = cluster_.IssueSettled(graph_, profile_, q, &rng_, &scratch_);
    } else {
      trace = cluster_.IssueQueryDual(graph_, q, &rng_, view, &scratch_);
    }
    if (trace.fanout == 0) {
      ++stats.empty;
    } else {
      ++stats.served;
      latencies_.push_back(trace.latency);
      latency_sum += trace.latency;
      fanout_sum += trace.fanout;
      if (trace.dual_records > 0) ++stats.dual_read_queries;
    }
    if (advance_copier) {
      AdvanceCopier(config_.copy_records_per_request, report);
    }
  }
  if (stats.served > 0) {
    stats.p50 = PercentileInPlace(&latencies_, 50);
    stats.p99 = PercentileInPlace(&latencies_, 99);
    stats.mean = latency_sum / static_cast<double>(stats.served);
    stats.average_fanout = fanout_sum / static_cast<double>(stats.served);
  }
  return stats;
}

ServingReport ServingLoop::Run() {
  SHP_CHECK(config_.num_epochs > 0) << "serving loop needs at least one epoch";
  ServingReport report;
  for (uint64_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
    EpochReport er;
    ApplyKills(epoch, &er);
    er.before = ReplayPhase(config_.requests_per_phase, /*advance_copier=*/
                            false, epoch, &er);

    // Bounded-budget refinement: each iteration gets the *remaining* epoch
    // budget, so however moves distribute across iterations the epoch total
    // stays within bounds.
    const uint64_t budget = config_.move_budget_per_epoch;
    uint64_t remaining = budget;
    for (uint64_t it = 0; it < config_.iterations_per_epoch; ++it) {
      refiner_->SetMoveBudget(budget == 0 ? 0 : remaining);
      const IterationStats stats = refiner_->RunIteration(
          topo_, &partition_, refine_seed_, iteration_counter_++);
      er.executed_moves += stats.num_moved;
      ++er.refine_iterations;
      EnqueueRefinementMoves(&er);
      if (budget != 0) {
        SHP_CHECK(stats.num_moved <= remaining)
            << "refiner exceeded the epoch move budget";
        remaining -= stats.num_moved;
        if (remaining == 0) break;
      }
    }
    SHP_CHECK(budget == 0 || er.executed_moves <= budget)
        << "epoch executed more moves than budgeted";

    er.during_migration =
        ReplayPhase(config_.requests_per_phase, /*advance_copier=*/true,
                    epoch, &er);
    SHP_CHECK(pending_migrations_ == 0) << "epoch ended with copies in flight";
    er.after = ReplayPhase(config_.requests_per_phase, /*advance_copier=*/
                           false, epoch, &er);

    // Settled invariant: once the queue drained, serving and target agree.
    for (VertexId v = 0; v < graph_.num_data(); ++v) {
      SHP_DCHECK(cluster_.record_server(v) == partition_.bucket_of(v));
    }
    report.epochs.push_back(er);
  }

  report.p99_start = report.epochs.front().before.p99;
  report.p99_end = report.epochs.back().after.p99;
  for (const EpochReport& er : report.epochs) {
    report.p99_during_worst =
        std::max(report.p99_during_worst, er.during_migration.p99);
    report.total_moves += er.executed_moves;
    report.total_migrated_records += er.migrated_records;
    report.total_migration_bytes += er.migration_bytes;
    report.total_recovered_records += er.recovered_records;
    report.total_dual_read_queries += er.before.dual_read_queries +
                                      er.during_migration.dual_read_queries +
                                      er.after.dual_read_queries;
  }
  report.serveability_checks = scratch_.serveability_checks;
  report.scratch_grow_events = scratch_.grow_events;
  report.final_assignment = cluster_.assignment();
  return report;
}

}  // namespace shp
