#include "core/refiner.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace shp {

Refiner::Refiner(const BipartiteGraph& graph, const RefinerOptions& options)
    : graph_(graph),
      options_(options),
      gain_(options.p, static_cast<uint32_t>(graph.MaxQueryDegree()),
            options.future_splits),
      broker_(options.broker) {}

GainComputer::BestTarget Refiner::ComputeProposal(
    const MoveTopology& topo, const Partition& partition, VertexId v,
    BucketId explore_target, bool push, const std::vector<BucketId>* anchor,
    double anchor_penalty, Workspace* ws, bool* cacheable) const {
  *cacheable = true;
  const double degree = static_cast<double>(graph_.DataDegree(v));
  if (degree == 0.0) return {};  // isolated: nothing to gain
  const BucketId from = partition.bucket_of(v);
  const int32_t group = topo.group_of_bucket[static_cast<size_t>(from)];
  if (group < 0) return {};  // bucket not refined at this level

  GainComputer::BestTarget best;
  if (topo.full_k && explore_target >= 0 && explore_target != from) {
    // Exploration proposal: random target with its true gain. Depends on
    // the iteration draw, so it must never be served from the cache.
    best = {explore_target,
            push ? gain_.MoveGainPush(sweep_, v, from, explore_target, degree)
                 : gain_.MoveGain(graph_, ndata_, v, from, explore_target)};
    *cacheable = false;
  } else if (push) {
    // One scan of v's accumulator — windowed to its group under recursion,
    // where it holds exactly the window spanning the sibling buckets.
    best = PushScan(gain_, topo, from, sweep_.Entries(v), degree);
  } else if (topo.full_k) {
    best = gain_.FindBestTarget(graph_, ndata_, v, from, 0, topo.k,
                                &ws->affinity, &ws->touched);
  } else {
    best = gain_.FindBestTargetGrouped(
        graph_, GainComputer::EntriesOf(ndata_), v, from,
        topo.group_children[static_cast<size_t>(group)]);
  }
  return FinalizeProposal(best, v, from, anchor, anchor_penalty,
                          options_.propose_nonpositive);
}

IterationStats Refiner::RunIteration(const MoveTopology& topo,
                                     Partition* partition, uint64_t seed,
                                     uint64_t iteration, ThreadPool* pool,
                                     const std::vector<BucketId>* anchor,
                                     double anchor_penalty) {
  SHP_CHECK_EQ(partition->num_data(), graph_.num_data());
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId n = graph_.num_data();
  IterationStats stats;

  // Superstep-2 scan direction for this iteration: push needs a nonzero pow
  // base (the accumulator-derived base term divides by B), so kPush falls
  // back to pull in the p = 1, t = 1 limit. Grouped recursion windows run
  // the same push scan over a windowed sweep: each vertex keeps only its
  // group's window.
  const bool push =
      options_.sweep_mode != RefinerOptions::SweepMode::kPull &&
      gain_.SupportsPush();
  stats.push_sweep = push;

  // Superstep 1: collect neighbor data — reused across iterations whenever
  // it provably reflects the current assignment (the shadow copy is the
  // proof; callers that hand in a different partition trigger a rebuild).
  const bool ndata_reusable = options_.incremental && ndata_valid_ &&
                              shadow_assignment_ == partition->assignment();
  if (!ndata_reusable) {
    ndata_.Build(graph_, partition->assignment(), pool);
    shadow_assignment_ = partition->assignment();
    ndata_valid_ = true;
    proposals_valid_ = false;
    sweep_valid_ = false;
    ++num_full_rebuilds_;
    stats.full_rebuild = true;
  }
  if (push && sweep_valid_ && !context_.MatchesTopology(topo)) {
    // The windows follow the group structure, so a new one needs a new
    // sweep. (Every sweep build forces a recompute-all round, which
    // snapshots the topology it was built under into context_.)
    sweep_valid_ = false;
  }
  if (push && !sweep_valid_) {
    // Full vertex-major pass: every vertex gathers its adjacent queries'
    // per-bucket contributions, in its group's window when grouped.
    sweep_.Build(graph_, ndata_, gain_.pow_table(), pool,
                 topo.GroupWindows(*partition));
    sweep_valid_ = true;
    ++num_sweep_builds_;
  }

  // Exploration draw: ≈ n·prob firing vertices drawn up front into a
  // compact list, so the steady-state pass never hashes the other vertices.
  const bool explore = topo.full_k && options_.exploration_probability > 0.0;
  firing_list_.clear();
  if (explore) {
    if (explore_target_.size() < n) explore_target_.assign(n, -1);
    const uint64_t draws = static_cast<uint64_t>(
        static_cast<double>(n) * options_.exploration_probability + 0.5);
    for (uint64_t i = 0; i < draws; ++i) {
      // Sampling with replacement over hashed indices; duplicates collapse,
      // so the firing count is ≤ draws (statistically indistinguishable from
      // a per-vertex Bernoulli draw at these rates).
      const VertexId v = static_cast<VertexId>(
          HashToBounded(seed ^ 0xe791, iteration * 0x10001 + 1, i, n));
      if (explore_target_[v] != -1) continue;
      explore_target_[v] = static_cast<BucketId>(HashToBounded(
          seed ^ 0x77aa, iteration, v, static_cast<uint64_t>(topo.k)));
      firing_list_.push_back(v);
    }
  }
  const auto explore_target_for = [&](VertexId v) -> BucketId {
    return explore ? explore_target_[v] : -1;
  };

  // Superstep 2: move proposals. A full pass recomputes every vertex; the
  // steady-state pass recomputes only the compact work list. Push: the
  // vertices that received a delta record last round (their proposals were
  // computed inside ApplyDeltas and are already current), last round's
  // movers, last round's explorers (their cached proposal is not reusable),
  // and this round's firing list. Pull: the vertices adjacent to a query
  // whose neighbor data changed last round, plus the last two lists.
  const bool recompute_all = !options_.incremental || !proposals_valid_ ||
                             !context_.Matches(topo, anchor, anchor_penalty);
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  if (workspaces_.size() < num_workers) workspaces_.resize(num_workers);
  const auto ensure_workspace = [&](Workspace& ws) {
    if (!push && topo.full_k &&
        ws.affinity.size() < static_cast<size_t>(topo.k)) {
      // FindBestTarget requires a zero-filled scratch and restores it, so
      // (re)sizing is the only moment we pay for a fill.
      ws.affinity.assign(static_cast<size_t>(topo.k), 0.0);
    }
  };
  const auto recompute_vertex = [&](VertexId v, Workspace& ws) {
    bool cacheable = true;
    const GainComputer::BestTarget proposal =
        ComputeProposal(topo, *partition, v, explore_target_for(v), push,
                        anchor, anchor_penalty, &ws, &cacheable);
    targets_[v] = proposal.bucket;
    gains_[v] = proposal.gain;
    cache_valid_[v] = cacheable ? 1 : 0;
  };

  if (recompute_all) {
    targets_.assign(n, -1);
    gains_.assign(n, 0.0);
    cache_valid_.assign(n, 0);
    recompute_.assign(n, 0);
    context_.Snapshot(topo, anchor, anchor_penalty);
    pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
      Workspace& ws = workspaces_[w];
      ensure_workspace(ws);
      for (size_t vi = begin; vi < end; ++vi) {
        recompute_vertex(static_cast<VertexId>(vi), ws);
      }
    });
    stats.num_recomputed = n;
  } else {
    // Compact steady-state pass. A push proposal reads only v's
    // accumulator and bucket, so it can change only if v was patched or
    // moved: the patched vertices lead the list — ApplyDeltas already
    // stored their proposals, except for those this round's exploration
    // draw fires — and the movers follow. (A mover also receives its own
    // move's records; it is listed anyway, so the broker's changed list
    // covers every bucket_of change without relying on how records are
    // emitted.) Pull claims the blast radius of last round's moves through
    // the recompute marks instead (different queries share data vertices;
    // atomic exchange makes each vertex appear once). Both then fold in the
    // stale and firing lists.
    recompute_list_.clear();
    for (const VertexId v : patched_) {
      if (explore_target_for(v) >= 0) continue;
      recompute_[v] = 1;
      recompute_list_.push_back(v);
    }
    const size_t prescanned = recompute_list_.size();
    collect_.resize(std::max(collect_.size(), num_workers));
    if (!dirty_list_.empty()) {
      for (size_t w = 0; w < num_workers; ++w) collect_[w].clear();
      pool->ParallelFor(
          dirty_list_.size(), [&](size_t begin, size_t end, size_t w) {
            std::vector<VertexId>& local = collect_[w];
            for (size_t i = begin; i < end; ++i) {
              for (VertexId v : graph_.QueryNeighbors(dirty_list_[i])) {
                if (std::atomic_ref<uint8_t>(recompute_[v])
                        .exchange(1, std::memory_order_relaxed) == 0) {
                  local.push_back(v);
                }
              }
            }
          });
      for (size_t w = 0; w < num_workers; ++w) {
        recompute_list_.insert(recompute_list_.end(), collect_[w].begin(),
                               collect_[w].end());
      }
    }
    for (const std::vector<VertexId>* list :
         {&movers_, &stale_list_, &firing_list_}) {
      for (const VertexId v : *list) {
        if (!recompute_[v]) {
          recompute_[v] = 1;
          recompute_list_.push_back(v);
        }
      }
    }
    pool->ParallelFor(recompute_list_.size() - prescanned,
                      [&](size_t begin, size_t end, size_t w) {
                        Workspace& ws = workspaces_[w];
                        ensure_workspace(ws);
                        for (size_t i = begin; i < end; ++i) {
                          recompute_vertex(recompute_list_[prescanned + i],
                                           ws);
                        }
                      });
    stats.num_recomputed = recompute_list_.size();
  }

  // Next round's stale list: this round's explorers hold uncacheable
  // proposals.
  stale_list_.clear();
  for (const VertexId v : firing_list_) {
    if (!cache_valid_[v]) stale_list_.push_back(v);
  }

#ifndef NDEBUG
  if (!recompute_all) {
    // Debug cross-check: the cached proposals must be bit-identical to a
    // full recompute (same code path over logically identical state).
    pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
      Workspace& ws = workspaces_[w];
      ensure_workspace(ws);
      for (size_t vi = begin; vi < end; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        bool cacheable = true;
        const GainComputer::BestTarget check =
            ComputeProposal(topo, *partition, v, explore_target_for(v), push,
                            anchor, anchor_penalty, &ws, &cacheable);
        SHP_CHECK(check.bucket == targets_[v] && check.gain == gains_[v])
            << "stale cached proposal for v=" << v << ": cached ("
            << targets_[v] << ", " << gains_[v] << ") vs fresh ("
            << check.bucket << ", " << check.gain << ")";
      }
    });
  }
  if (push) {
    // Tolerance-based pull-vs-push equivalence, verified per iteration.
    std::vector<Workspace> debug_ws(num_workers);
    pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
      Workspace& ws = debug_ws[w];
      if (ws.affinity.size() < static_cast<size_t>(topo.k)) {
        ws.affinity.assign(static_cast<size_t>(topo.k), 0.0);
      }
      for (size_t vi = begin; vi < end; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        bool cacheable = true;
        const GainComputer::BestTarget pull = ComputeProposal(
            topo, *partition, v, explore_target_for(v), /*push=*/false,
            anchor, anchor_penalty, &ws, &cacheable);
        const BucketId from = partition->bucket_of(v);
        CheckPushMatchesPull(v, pull, {targets_[v], gains_[v]},
                             [&](BucketId to) {
                               return gain_.MoveGain(graph_, ndata_, v, from,
                                                     to);
                             });
      }
    });
    // The patched accumulators must match a fresh build over the same
    // windows up to summation order — and those windows must still be the
    // ones the current partition derives.
    std::vector<BucketWindow> windows = topo.GroupWindows(*partition);
    SHP_CHECK(windows == sweep_.windows())
        << "a vertex left the accumulator window of its group";
    AffinitySweep fresh;
    fresh.Build(graph_, ndata_, gain_.pow_table(), pool, std::move(windows));
    SHP_CHECK(sweep_.ApproxEquals(fresh, 1e-9, 1e-9))
        << "patched affinity accumulators diverged from a fresh build";
  }
#endif

  // Clear this round's recompute marks (the compact pass claims exactly the
  // work list) and the exploration targets — keeps both arrays all-zero/-1
  // between iterations without an O(n) sweep.
  if (!recompute_all && !recompute_list_.empty()) {
    pool->ParallelForEach(recompute_list_.size(), [&](size_t i) {
      recompute_[recompute_list_[i]] = 0;
    });
  }
  for (const VertexId v : firing_list_) explore_target_[v] = -1;

  // Supersteps 3-4: master aggregation, probabilistic moves, repair. A
  // compact pass hands the broker its work list as the changed-proposal
  // list: only listed vertices can hold a different (bucket, target, gain)
  // than last round — last round's movers are always on the list (pull: in
  // the blast radius, since ApplyMoves marks all of a mover's queries
  // touched and the mover neighbors its own queries; push: listed
  // explicitly), so it also covers every bucket_of change. A recompute-all
  // round passes nullptr and re-primes the broker's state.
  const MoveOutcome outcome =
      broker_.Apply(topo, targets_, gains_, seed, iteration, partition, pool,
                    recompute_all ? nullptr : &recompute_list_);

  const bool high_churn =
      static_cast<double>(outcome.moves.size()) >
      options_.incremental_rebuild_fraction * static_cast<double>(n);
  if (options_.incremental && !high_churn) {
    // Fold the executed moves into the carried state (superstep 1 of the
    // *next* iteration, amortized to the blast radius of this round). Push
    // mode additionally consumes the bucket-count delta records to patch
    // the affinity accumulators — no rescan of untouched queries — and
    // computes each patched vertex's next-round proposal right after its
    // patch, while the accumulator is cache-hot. It evaluates v against
    // the partition as the broker left it and the context snapshot the
    // next compact round must match (anything else forces a recompute-all
    // round, which overwrites the cache), so it is the scan that round's
    // ComputeProposal would run, over the same floats.
    dirty_list_.clear();
    deltas_.clear();
    ndata_.ApplyMoves(graph_, outcome.moves, pool,
                      push ? nullptr : &dirty_list_,
                      push ? &deltas_ : nullptr);
    patched_.clear();
    movers_.clear();
    if (push) {
      stats.num_delta_records = deltas_.size();
      const auto propose = [&](VertexId v,
                               std::span<const AffinityEntry> entries,
                               uint32_t /*records*/) {
        const GainComputer::BestTarget proposal = PatchedProposal(
            gain_, topo, *partition, v, entries,
            static_cast<double>(graph_.DataDegree(v)), anchor, anchor_penalty,
            options_.propose_nonpositive);
        targets_[v] = proposal.bucket;
        gains_[v] = proposal.gain;
        cache_valid_[v] = 1;
      };
      sweep_.ApplyDeltas(graph_, deltas_, gain_.pow_table(), pool, &patched_,
                         propose);
    } else {
      sweep_valid_ = false;
    }
    for (const VertexMove& m : outcome.moves) {
      shadow_assignment_[m.v] = m.to;
      if (push) movers_.push_back(m.v);
    }
    proposals_valid_ = true;
#ifndef NDEBUG
    SHP_CHECK(shadow_assignment_ == partition->assignment())
        << "executed move list does not match the partition delta";
    QueryNeighborData fresh;
    fresh.Build(graph_, partition->assignment(), pool);
    SHP_CHECK(ndata_.ContentEquals(fresh))
        << "incrementally maintained neighbor data diverged from rebuild";
#endif
  } else {
    ndata_valid_ = false;
    proposals_valid_ = false;
    sweep_valid_ = false;
  }

  stats.num_proposals = outcome.num_proposals;
  stats.num_moved = outcome.num_moved;
  stats.num_reverted = outcome.num_reverted;
  stats.num_draws = outcome.num_draws;
  stats.gain_moved = outcome.gain_moved;
  stats.moved_fraction =
      n == 0 ? 0.0
             : static_cast<double>(outcome.num_moved) / static_cast<double>(n);
  return stats;
}

}  // namespace shp
