#include "core/refiner.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace shp {

Refiner::Refiner(const BipartiteGraph& graph, const RefinerOptions& options)
    : graph_(graph),
      options_(options),
      gain_(options.p, static_cast<uint32_t>(graph.MaxQueryDegree()),
            options.future_splits),
      broker_(options.broker) {}

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

  // Superstep 2: move proposals (core/proposal.h). A full pass recomputes
  // every vertex; the steady-state pass recomputes only the compact work
  // list. Push: the vertices that received a delta record last round
  // (their proposals were computed inside ApplyDeltas and are already
  // current), last round's movers, last round's explorers (their cached
  // proposal is not reusable), and this round's firing list. Pull: the
  // vertices adjacent to a query whose neighbor data changed last round,
  // plus the last two lists.
  draw_.Draw(topo, options_.exploration_probability, n, seed, iteration);
  const ProposalInputs in{graph_, gain_, ndata_, sweep_, topo, *partition,
                          anchor, anchor_penalty,
                          options_.propose_nonpositive, push, draw_};
  const bool recompute_all = !options_.incremental || !proposals_valid_ ||
                             !context_.Matches(topo, anchor, anchor_penalty);
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  if (scratch_.size() < num_workers) scratch_.resize(num_workers);
  // Recomputes the proposals of vertex_at(0 .. count - 1).
  const auto recompute = [&](size_t count, const auto& vertex_at) {
    pool->ParallelFor(count, [&](size_t begin, size_t end, size_t w) {
      for (size_t i = begin; i < end; ++i) {
        const VertexId v = vertex_at(i);
        const GainComputer::BestTarget proposal =
            ComputeProposal(in, v, &scratch_[w]);
        targets_[v] = proposal.bucket;
        gains_[v] = proposal.gain;
      }
    });
  };

  if (recompute_all) {
    targets_.assign(n, -1);
    gains_.assign(n, 0.0);
    recompute_.assign(n, 0);
    context_.Snapshot(topo, anchor, anchor_penalty);
    recompute(n, [](size_t i) { return static_cast<VertexId>(i); });
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
      if (draw_.Target(v) >= 0) continue;
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
         {&std::as_const(movers_), &draw_.stale(), &draw_.firing()}) {
      for (const VertexId v : *list) {
        if (!recompute_[v]) {
          recompute_[v] = 1;
          recompute_list_.push_back(v);
        }
      }
    }
    recompute(recompute_list_.size() - prescanned,
              [&](size_t i) { return recompute_list_[prescanned + i]; });
    stats.num_recomputed = recompute_list_.size();
  }

#ifndef NDEBUG
  CheckProposals(in, targets_, gains_, pool);
#endif
  // This round's exploration proposals are next round's stale list.
  draw_.EndRound(graph_, *partition);

  // Clear this round's recompute marks (the compact pass claims exactly the
  // work list) — keeps the array all-zero between iterations without an
  // O(n) sweep.
  if (!recompute_all && !recompute_list_.empty()) {
    pool->ParallelForEach(recompute_list_.size(), [&](size_t i) {
      recompute_[recompute_list_[i]] = 0;
    });
  }

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
