#include "engine/shp_bsp.h"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <span>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "engine/wire_format.h"

namespace shp {

namespace {

/// Superstep-2 payload of the pull (full-reship) path: one query's
/// neighbor data restricted to the topology's active buckets, shipped once
/// per destination worker and fanned out locally. The simulation carries
/// only the entry count — receivers read the owner's replica — and charges
/// bytes and work as if the list were shipped. The delta-exchange path
/// ships NeighborDelta records instead (see shp_bsp.h /
/// docs/distributed.md).
struct NeighborDataMsg {
  VertexId query;
  uint32_t num_entries;
};

/// Superstep-1 combiner key. Queries are VertexId — unsigned, with the full
/// 2^32 range legal — so the pack must widen through uint64 directly; the
/// old PackPair(static_cast<BucketId>(q), b) detour squeezed query ids
/// through a signed 32-bit cast, which silently aliases once ids reach 2^31
/// if VertexId ever widens. The static_asserts pin the layout.
uint64_t PackQueryBucket(VertexId q, BucketId b) {
  static_assert(sizeof(VertexId) == 4 && !std::is_signed_v<VertexId>,
                "PackQueryBucket assumes 32-bit unsigned query ids");
  static_assert(sizeof(BucketId) <= 4,
                "PackQueryBucket assumes bucket ids fit 32 bits");
  return (static_cast<uint64_t>(q) << 32) | static_cast<uint32_t>(b);
}

VertexId QueryOfKey(uint64_t key) { return static_cast<VertexId>(key >> 32); }

BucketId BucketOfKey(uint64_t key) {
  return static_cast<BucketId>(static_cast<uint32_t>(key));
}

/// Adds one phase's per-worker work units into a superstep's tally.
void AddWork(const std::vector<uint64_t>& work, SuperstepStats* superstep) {
  for (size_t w = 0; w < work.size(); ++w) superstep->work_units[w] += work[w];
}

}  // namespace

BspRefiner::BspRefiner(const BipartiteGraph& graph,
                       const RefinerOptions& options, const BspConfig& config,
                       std::vector<SuperstepStats>* log)
    : graph_(graph),
      options_(options),
      config_(config),
      gain_(options.p, static_cast<uint32_t>(graph.MaxQueryDegree()),
            options.future_splits),
      sharding_(config.num_workers, config.shard_seed),
      master_hist_(options.broker.binning),
      log_(log) {
  SHP_CHECK_GT(config.num_workers, 0);
  const size_t W = static_cast<size_t>(config.num_workers);
  data_shards_ = VertexSharding::BuildDataShards(sharding_, graph.num_data());
  query_shards_ =
      VertexSharding::BuildQueryShards(sharding_, graph.num_queries());
  data_owner_.resize(graph.num_data());
  for (VertexId v = 0; v < graph.num_data(); ++v) {
    data_owner_[v] = sharding_.DataWorker(v);
  }
  query_ndata_.resize(graph.num_queries());
  query_dirty_.assign(graph.num_queries(), 1);
  known_assignment_.assign(graph.num_data(), -1);
  cached_target_.assign(graph.num_data(), -1);
  cached_gain_.assign(graph.num_data(), 0.0);
  worker_hist_.assign(W, PairHistograms(options.broker.binning));
  hist_contrib_.assign(graph.num_data(), {});
  s1_records_.resize(W);
  s2_received_.assign(W, 0);
  folded_.assign(graph.num_data(), 0);
  recompute_.assign(graph.num_data(), 0);
  recompute_lists_.resize(W);
  prescanned_.assign(W, 0);
  mover_lists_.resize(W);
  original_.assign(graph.num_data(), -1);
  pull_affinity_.resize(W);
  pull_touched_.resize(W);
  const size_t links = W * W;
  link_send_seq_.assign(links, 0);
  link_recv_seq_.assign(links, 0);
  link_last_wire_.resize(links);
  link_fail_streak_.assign(links, 0);
  link_backoff_until_.assign(links, 0);
  link_backoff_len_.assign(links, std::max(config.link_backoff_epochs, 1));
  link_payload_bytes_.assign(links, 0);
  if (config.fault_schedule != nullptr) {
    injector_ = FaultInjector(*config.fault_schedule);
  }
  if (!config.checkpoint_dir.empty()) {
    checkpoints_ = std::make_unique<CheckpointManager>(
        config.checkpoint_dir, config.checkpoint_keep);
  }
}

uint64_t BspRefiner::MaxWorkerStateBytes() const {
  // Pull mode never builds the accumulators, so there are none to count.
  const bool has_sweep = sweep_.num_vertices() > 0;
  uint64_t worst = 0;
  for (int w = 0; w < config_.num_workers; ++w) {
    uint64_t bytes = 0;
    for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.DataDegree(v) * sizeof(VertexId) + 16;
      // The delta-exchange state: the accumulator entries of owned vertices.
      if (has_sweep) bytes += sweep_.Entries(v).size() * sizeof(AffinityEntry);
    }
    for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.QueryDegree(q) * sizeof(VertexId) +
               query_ndata_[q].size() * sizeof(BucketCount) + 16;
    }
    worst = std::max(worst, bytes);
  }
  return worst;
}

IterationStats BspRefiner::RunIteration(const MoveTopology& topo,
                                        Partition* partition, uint64_t seed,
                                        uint64_t iteration, ThreadPool* pool,
                                        const std::vector<BucketId>* anchor,
                                        double anchor_penalty) {
  SHP_CHECK_EQ(partition->num_data(), graph_.num_data());
  if (pool == nullptr) pool = &GlobalThreadPool();
  const int W = config_.num_workers;
  RoundState round;
  // Protocol epoch: the engine's own monotonic counter. The caller's
  // `iteration` parameter restarts under recursion drivers, so it cannot key
  // the wire protocol or the fault schedule.
  round.epoch = epoch_++;
  // Superstep-2 exchange mode: delta exchange + push sweep needs only a
  // nonzero pow base (same support condition as the threaded Refiner) —
  // grouped recursion windows run the same record exchange and scan the
  // group-restricted accumulator view, so SHP-2/r levels also ship O(moved
  // pins). The mode is constant per engine instance (options and pow base
  // are fixed at construction).
  round.push = options_.sweep_mode != RefinerOptions::SweepMode::kPull &&
               gain_.SupportsPush();
  round.stats.push_sweep = round.push;
  const uint64_t base_superstep =
      log_ == nullptr ? 0 : static_cast<uint64_t>(log_->size());
  SuperstepStats* const supersteps[] = {&round.s1, &round.s2, &round.s3,
                                        &round.s4};
  for (uint64_t i = 0; i < 4; ++i) {
    supersteps[i]->superstep = base_superstep + i;
    supersteps[i]->work_units.assign(static_cast<size_t>(W), 0);
  }

  // Worker kill at the superstep boundary: the worker's query replicas are
  // rebuilt from the authoritative partition state its queries last saw
  // (charged to its superstep-1 work), and every derived structure
  // (accumulators, cached proposals, histograms) is re-bootstrapped
  // below. Before the first iteration there is no state to lose — a kill at
  // epoch 0 is a no-op.
  if (!injector_.empty() && state_valid_) {
    for (int w = 0; w < W; ++w) {
      if (!injector_.KillsWorker(round.epoch, w)) continue;
      round.s1.work_units[static_cast<size_t>(w)] += RecoverKilledWorker(w);
      sweep_valid_ = false;
      proposals_valid_ = false;
      hist_valid_ = false;
      ++round.stats.workers_recovered;
      ++counters_.workers_recovered;
    }
  }
  // Links still in backoff at this epoch force degraded (full-reship) mode.
  for (const uint64_t until : link_backoff_until_) {
    if (until > round.epoch) ++round.stats.degraded_links;
  }

  // The accumulator windows follow the group structure, so a new one needs
  // a new sweep. Drop it before superstep 1: the fold would otherwise emit
  // records for a sweep superstep 2 is about to rebuild.
  if (sweep_valid_ && !context_.MatchesTopology(topo)) sweep_valid_ = false;
  AnnounceAndFold(topo, *partition, pool, &round);
  // Cached proposals also depend on the topology and the anchor.
  if (!context_.Matches(topo, anchor, anchor_penalty)) {
    context_.Snapshot(topo, anchor, anchor_penalty);
    proposals_valid_ = false;
  }
  ExchangeNeighborData(topo, *partition, anchor, anchor_penalty,
                       round.stats.degraded_links > 0, pool, &round);
  ProposeMoves(topo, *partition, anchor, anchor_penalty, pool, &round);
  UploadHistograms(*partition, pool, &round);
  DrawAndExecute(topo, seed, iteration, partition, pool, &round);

  if (log_ != nullptr) {
    for (SuperstepStats* s : supersteps) log_->push_back(std::move(*s));
  }
  MaybeCheckpoint(round.epoch, round.stats, *partition);
  // Epoch boundary: everything of this iteration — moves, repair,
  // checkpoint — is committed; external observers (the serving loop's
  // migration bookkeeping) hook in here.
  if (config_.on_epoch_end) {
    config_.on_epoch_end(round.epoch, round.stats.num_moved);
  }
  return round.stats;
}

bool BspRefiner::Announce(int w, VertexId v, BucketId now, uint64_t* work) {
  const BucketId before = known_assignment_[v];
  if (now == before) return false;
  for (VertexId q : graph_.DataNeighbors(v)) {
    const int dst = sharding_.QueryWorker(q);
    if (before >= 0) s1_combiner_.Add(w, dst, PackQueryBucket(q, before), -1);
    s1_combiner_.Add(w, dst, PackQueryBucket(q, now), 1);
    *work += 2;
  }
  known_assignment_[v] = now;
  return true;
}

void BspRefiner::AnnounceAndFold(const MoveTopology& topo,
                                 const Partition& partition, ThreadPool* pool,
                                 RoundState* round) {
  const int W = config_.num_workers;
  SuperstepStats& s1 = round->s1;
  s1.label = "1:collect-neighbor-data";
  MessageRouter<BucketDeltaMsg> router(W);
  s1_combiner_.Reset(W);
  for (auto& records : s1_records_) records.clear();

  // data -> query: bucket deltas from vertices whose bucket differs from
  // what their queries last saw. Steady state announces only last round's
  // net movers (the compact pending list); the O(n) per-vertex diff scan
  // runs only on the first iteration or when the partition was mutated
  // behind our back (detected below, never assumed — the diff scan then
  // self-heals the replicas).
  round->full_scan = !state_valid_;
  if (!round->full_scan) {
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (const VertexMove& m : pending_announce_) {
        if (data_owner_[m.v] != w) continue;
        Announce(w, m.v, partition.bucket_of(m.v), &work);
      }
      return work;
    }), &s1);
    // Driver-level replica guard (int compare, not simulated work): after
    // folding the pending moves, anything still differing means the caller
    // mutated the partition externally.
    if (known_assignment_ != partition.assignment()) round->full_scan = true;
  }
  if (round->full_scan) {
    std::vector<uint64_t> changed(static_cast<size_t>(W), 0);
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
        if (Announce(w, v, partition.bucket_of(v), &work)) {
          ++changed[static_cast<size_t>(w)];
        }
      }
      return work;
    }), &s1);
    const uint64_t total_changed =
        std::accumulate(changed.begin(), changed.end(), uint64_t{0});
    if (sweep_valid_ &&
        (!topo.full_k || static_cast<double>(total_changed) >
                             options_.incremental_rebuild_fraction *
                                 static_cast<double>(graph_.num_data()))) {
      // External-mutation guard: drop the accumulators now — the fold then
      // skips emission and superstep 2 re-bootstraps. Under a grouped
      // topology a moved vertex may have left its group, and with it its
      // stored window. Under direct k-way the windows cannot go stale, and
      // only churn matters (same cost rule as the post-move fallback in
      // superstep 4): with this many externally changed vertices the diff
      // records outweigh a full reship.
      sweep_valid_ = false;
    }
    proposals_valid_ = false;
    hist_valid_ = false;
  }
  pending_announce_.clear();
  round->stats.full_rebuild = round->full_scan;

  // Flush each source row of the combiner onto the wire: one message per
  // nonzero (query, bucket) sum, in ascending (query, bucket) order.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (int dst = 0; dst < W; ++dst) {
      for (const auto& [key, delta] : s1_combiner_.Drain(w, dst)) {
        router.Send(w, dst,
                    BucketDeltaMsg{QueryOfKey(key), BucketOfKey(key), delta});
      }
    }
    return 0;
  });

  // Receive: owner workers fold deltas into their queries' neighbor data,
  // emitting the (q, bucket, old, new) NeighborDelta records superstep 2
  // ships in delta-exchange mode. Each source's run arrives strictly
  // ascending by (query, bucket); the owner merges the W runs, ties in
  // ascending source order, so each query's records come out contiguous
  // (for the grouped send) and the fold order does not depend on the
  // message arrival interleaving.
  AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
    uint64_t work = 0;
    // Records are only worth emitting when valid accumulators will
    // consume them; after a high-churn round the accumulators were
    // dropped and superstep 2 re-bootstraps instead.
    std::vector<NeighborDelta>* emit =
        round->push && sweep_valid_ ? &s1_records_[static_cast<size_t>(w)]
                                    : nullptr;
    const auto key_of = [](const BucketDeltaMsg& m) {
      return PackQueryBucket(m.query, m.bucket);
    };
    // Each source's read position and head key; an exhausted run's head
    // is the largest key, so the scan below never picks it.
    constexpr uint64_t kExhausted = ~uint64_t{0};
    std::vector<size_t> pos(static_cast<size_t>(W), 0);
    std::vector<uint64_t> head(static_cast<size_t>(W), kExhausted);
    size_t remaining = 0;
    for (int src = 0; src < W; ++src) {
      const std::vector<BucketDeltaMsg>& run = router.Incoming(src, w);
      SHP_DCHECK(std::adjacent_find(run.begin(), run.end(),
                                    [&](const BucketDeltaMsg& a,
                                        const BucketDeltaMsg& b) {
                                      return key_of(a) >= key_of(b);
                                    }) == run.end())
          << "superstep-1 run from worker " << src << " is not ascending";
      if (!run.empty()) head[static_cast<size_t>(src)] = key_of(run.front());
      remaining += run.size();
    }
    for (; remaining > 0; --remaining) {
      // Smallest head key; strict < keeps the lowest source on ties.
      size_t src = 0;
      for (size_t s = 1; s < head.size(); ++s) {
        if (head[s] < head[src]) src = s;
      }
      const std::vector<BucketDeltaMsg>& run =
          router.Incoming(static_cast<int>(src), w);
      const BucketDeltaMsg& m = run[pos[src]++];
      head[src] = pos[src] < run.size() ? key_of(run[pos[src]]) : kExhausted;
      auto& entries = query_ndata_[m.query];
      auto it = std::lower_bound(
          entries.begin(), entries.end(), m.bucket,
          [](const BucketCount& e, BucketId b) { return e.bucket < b; });
      const uint32_t old_count =
          it != entries.end() && it->bucket == m.bucket ? it->count : 0;
      const int64_t next = static_cast<int64_t>(old_count) + m.delta;
      SHP_DCHECK(next >= 0);
      const uint32_t new_count = static_cast<uint32_t>(next);
      if (old_count != 0 && new_count == 0) {
        entries.erase(it);
      } else if (old_count != 0) {
        it->count = new_count;
      } else {
        SHP_DCHECK(m.delta > 0);
        entries.insert(it, {m.bucket, new_count});
      }
      if (emit != nullptr) {
        emit->push_back({m.query, m.bucket, old_count, new_count});
      }
      query_dirty_[m.query] = 1;
      ++work;
    }
    return work;
  }), &s1);
  s1.traffic = router.CollectAndClear(sizeof(BucketDeltaMsg));
  for (const auto& records : s1_records_) {
    round->stats.num_delta_records += records.size();
  }

  // Records are emitted exactly when push && sweep_valid_ — superstep 2
  // then patches the accumulators with them. The exchange mode is
  // constant per instance and grouped rounds emit too, so a fold can never
  // change query replicas behind valid accumulators: sweep_valid_ implies
  // push, and an invalid sweep re-bootstraps in superstep 2. (A pull-mode
  // instance never builds accumulators in the first place.)
  SHP_DCHECK(!sweep_valid_ || round->push);

#ifndef NDEBUG
  {
    // The delta-patched query replicas must be bit-identical to a rebuild
    // from the current assignment.
    QueryNeighborData fresh;
    fresh.Build(graph_, partition.assignment(), pool);
    for (VertexId q = 0; q < graph_.num_queries(); ++q) {
      const auto span = fresh.Entries(q);
      SHP_CHECK(span.size() == query_ndata_[q].size() &&
                std::equal(span.begin(), span.end(), query_ndata_[q].begin()))
          << "BSP query replica diverged from rebuild for q=" << q;
    }
  }
#endif
}

void BspRefiner::MarkDestinations(VertexId q,
                                  std::vector<uint8_t>* mask) const {
  std::fill(mask->begin(), mask->end(), 0);
  for (VertexId v : graph_.QueryNeighbors(q)) {
    (*mask)[static_cast<size_t>(data_owner_[v])] = 1;
  }
}

uint64_t BspRefiner::MarkForRecompute(int w,
                                      std::span<const VertexId> vertices) {
  uint64_t marked = 0;
  for (VertexId v : vertices) {
    if (data_owner_[v] != w || recompute_[v]) continue;
    recompute_[v] = 1;
    recompute_lists_[static_cast<size_t>(w)].push_back(v);
    ++marked;
  }
  return marked;
}

void BspRefiner::ExchangeNeighborData(const MoveTopology& topo,
                                      const Partition& partition,
                                      const std::vector<BucketId>* anchor,
                                      double anchor_penalty, bool degraded,
                                      ThreadPool* pool, RoundState* round) {
  const int W = config_.num_workers;
  SuperstepStats& s2 = round->s2;
  // Degraded mode: while any link is in backoff the delta exchange stays
  // suspended — full-reship bootstraps (which bypass the link protocol)
  // until the backoff expires.
  round->bootstrap = round->push && (!sweep_valid_ || degraded);

  if (round->push && !round->bootstrap) {
    // Delta-exchange send: each dirty query's owner ships the sparse
    // NeighborDelta records produced while folding superstep 1 — O(delta
    // records × touched workers) on the wire, not O(Σ deg(dirty q) ×
    // touched workers). Records are grouped by query (the fold sorted
    // them), so the destination mask is computed once per query.
    MessageRouter<NeighborDelta> router(W);
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
      const std::vector<NeighborDelta>& records =
          s1_records_[static_cast<size_t>(w)];
      size_t i = 0;
      while (i < records.size()) {
        size_t j = i;
        while (j < records.size() && records[j].q == records[i].q) ++j;
        MarkDestinations(records[i].q, &dst_mask);
        for (int dst = 0; dst < W; ++dst) {
          if (!dst_mask[static_cast<size_t>(dst)]) continue;
          for (size_t r = i; r < j; ++r) router.Send(w, dst, records[r]);
          work += j - i;
        }
        i = j;
      }
      return work;
    }), &s2);
    // Enveloped transfer: encode, frame, deliver (through the injector,
    // with bounded same-sequence retransmission), verify, decode, and count
    // each worker's received records into s2_received_. A link that
    // exhausts its retries is unrecoverable this epoch — the recovery action
    // is the same accumulator invalidation + full-reship the churn guard
    // uses, taken in this same iteration.
    if (!TransferEnveloped(round->epoch, router, &s2, &round->stats)) {
      sweep_valid_ = false;
      round->bootstrap = true;
      ++round->stats.reship_recoveries;
      ++counters_.reship_recoveries;
    }
    // The payload byte series counts exactly the grouped varint stream of
    // each (src, dst) buffer, which the transfer recorded per link; the
    // envelope framing is tracked separately in s2.envelope_bytes so the
    // series stays comparable across the protocol change.
    s2.traffic += router.CollectAndClearPerLink(
        [this](int src, int dst, const std::vector<NeighborDelta>&) {
          return link_payload_bytes_[LinkIndex(src, dst)];
        });
  }

  if (round->bootstrap) ++num_bootstraps_;
  round->recompute_all =
      round->full_scan || !proposals_valid_ || round->bootstrap;
  for (auto& list : recompute_lists_) list.clear();
  std::fill(prescanned_.begin(), prescanned_.end(), 0);
  if (!round->push && round->recompute_all) {
    // The pull path ships topology-restricted lists; a context change may
    // activate buckets the last shipment left out, so charge a full reship
    // (on iteration 0 every query is dirty anyway).
    std::fill(query_dirty_.begin(), query_dirty_.end(), 1);
  }

  if (!round->push || round->bootstrap) {
    // Full-reship send: dirty queries ship their topology-relevant neighbor
    // data, one combined message per destination worker. A delta-exchange
    // bootstrap ships every query the same way — the accumulators are built
    // from exactly this shipment. (Added to, not replacing, a
    // failed enveloped exchange's send charge earlier this iteration.)
    MessageRouter<NeighborDataMsg> router(W);
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
      for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
        if (!query_dirty_[q] && !round->bootstrap) continue;
        // Restricted to buckets active in this topology (recursion sends
        // "at most r values" per §3.3): the accumulators a bootstrap seeds
        // keep only their vertices' group windows.
        const auto restricted = static_cast<uint32_t>(std::count_if(
            query_ndata_[q].begin(), query_ndata_[q].end(),
            [&topo](const BucketCount& e) {
              return topo.group_of_bucket[static_cast<size_t>(e.bucket)] >= 0;
            }));
        if (restricted == 0) continue;
        MarkDestinations(q, &dst_mask);
        for (int dst = 0; dst < W; ++dst) {
          if (!dst_mask[static_cast<size_t>(dst)]) continue;
          router.Send(w, dst, NeighborDataMsg{q, restricted});
          work += restricted;
        }
      }
      return work;
    }), &s2);
    // Receive: mark data vertices adjacent to dirty queries for proposal
    // recomputation (unused on a recompute-all pass). The marks are not
    // charged here: the message's entries already are.
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (int src = 0; src < W; ++src) {
        for (const NeighborDataMsg& m : router.Incoming(src, w)) {
          if (!round->recompute_all) {
            MarkForRecompute(w, graph_.QueryNeighbors(m.query));
          }
          work += m.num_entries;
        }
      }
      return work;
    }), &s2);
    s2.traffic += router.CollectAndClearSized([](const NeighborDataMsg& m) {
      return sizeof(VertexId) + m.num_entries * sizeof(BucketCount);
    });
    if (round->bootstrap) {
      // One gather builds every worker's accumulators from the shipment, as
      // the threaded Refiner builds its sweep. Each worker is charged one
      // unit per add into its own vertices: each add raised one support.
      sweep_.Build(graph_, query_ndata_, gain_.pow_table(), pool,
                   topo.GroupWindows(partition));
      AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
        uint64_t adds = 0;
        for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
          for (const AffinityEntry& e : sweep_.Entries(v)) adds += e.support;
        }
        return adds;
      }), &s2);
      sweep_valid_ = true;
      // The reship bypasses the enveloped link protocol, so it doubles as
      // the protocol resync point: receive sequences jump to the send
      // sequences and the next delta exchange starts from a clean chain.
      ResyncLinks();
    }
  } else {
    // Receive: every link delivered its verified records, so one patch over
    // the owners' records in owner order folds, per vertex, exactly its
    // worker's inbox in the same order (a query's records are contiguous).
    // Each worker is charged its received records plus the records folded
    // into its vertices. Each patched vertex proposes right after its patch,
    // while cache-hot; ProposeMoves scans only the rest (and charges these
    // scans as its own). A recompute-all round overwrites them.
    patch_records_.clear();
    for (const std::vector<NeighborDelta>& records : s1_records_) {
      patch_records_.insert(patch_records_.end(), records.begin(),
                            records.end());
    }
    const auto propose = [&](VertexId v,
                             std::span<const AffinityEntry> entries,
                             uint32_t records) {
      const GainComputer::BestTarget best = PatchedProposal(
          gain_, topo, partition, v, entries,
          static_cast<double>(graph_.DataDegree(v)), anchor, anchor_penalty,
          options_.propose_nonpositive);
      cached_target_[v] = best.bucket;
      cached_gain_[v] = best.gain;
      folded_[v] = records;
    };
    sweep_.ApplyDeltas(graph_, patch_records_, gain_.pow_table(), pool,
                       &patched_, propose);
    AddWork(s2_received_, &s2);
    for (VertexId v : patched_) {
      s2.work_units[static_cast<size_t>(data_owner_[v])] += folded_[v];
    }
  }
  if (!round->recompute_all) {
    // A push proposal reads only v's window and bucket, so it can change
    // only if v received an in-window record (pull mode never patches, so
    // its patched list stays empty) or moved. Each worker's patched
    // vertices lead its list: ApplyDeltas already proposed for them. Last
    // round's movers recompute unconditionally: a mover's `from` changed
    // even when offsetting moves cancelled every adjacent count delta, in
    // which case no dirty query or record reaches it.
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      const uint64_t patched = MarkForRecompute(w, patched_);
      prescanned_[static_cast<size_t>(w)] = patched;
      return patched + MarkForRecompute(w, last_movers_);
    }), &s2);
  }

  // Queries consumed their dirty flag by sending.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
      query_dirty_[q] = 0;
    }
    return 0;
  });
  s2.label = round->push && !round->bootstrap ? "2:ship-deltas+gains"
                                              : "2:ship-neighbor-data+gains";

#ifndef NDEBUG
  if (round->push) {
    // The patched accumulators must match a fresh build over the same
    // windows up to float summation order — and those windows must still be
    // the ones the current partition derives.
    std::vector<BucketWindow> windows = topo.GroupWindows(partition);
    SHP_CHECK(windows == sweep_.windows())
        << "a vertex left the accumulator window of its group";
    AffinitySweep fresh;
    fresh.Build(graph_, query_ndata_, gain_.pow_table(), pool,
                std::move(windows));
    SHP_CHECK(sweep_.ApproxEquals(fresh, 1e-9, 1e-9))
        << "patched BSP accumulators diverged from a fresh build";
  }
#endif
}

void BspRefiner::ProposeMoves(const MoveTopology& topo,
                              const Partition& partition,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty, ThreadPool* pool,
                              RoundState* round) {
  const int W = config_.num_workers;
  const auto replicas = QueryReplicas();
  // Work units of a push scan of v (in a refined bucket): the accumulator
  // entries scanned, plus the sibling candidates under a grouped topology.
  const auto push_work = [&](VertexId v) -> uint64_t {
    const uint64_t entries = sweep_.Entries(v).size();
    if (topo.full_k) return entries;
    const int32_t group =
        topo.group_of_bucket[static_cast<size_t>(partition.bucket_of(v))];
    return entries + topo.group_children[static_cast<size_t>(group)].size();
  };
  // Proposal of v from the replicas in either scan direction, finalized
  // (§5(i) anchor, nonpositive filter); adds the scan's work units to *work.
  // Push work is push_work, pull work the neighbor data entries scanned
  // (full-k) or count lookups (grouped).
  const auto propose = [&](int w, VertexId v, bool use_push,
                           uint64_t* work) -> GainComputer::BestTarget {
    const BucketId from = partition.bucket_of(v);
    const int32_t group = topo.group_of_bucket[static_cast<size_t>(from)];
    if (group < 0 || graph_.DataDegree(v) == 0) return {};
    const double degree = static_cast<double>(graph_.DataDegree(v));
    GainComputer::BestTarget best;
    if (use_push) {
      // One scan of v's accumulator, which holds its group's window.
      *work += push_work(v);
      best = PushScan(gain_, topo, from, sweep_.Entries(v), degree);
    } else if (topo.full_k) {
      std::vector<double>& affinity = pull_affinity_[static_cast<size_t>(w)];
      if (affinity.size() < static_cast<size_t>(topo.k)) {
        affinity.assign(static_cast<size_t>(topo.k), 0.0);
      }
      best = gain_.FindBestTarget(graph_, replicas, v, from, 0, topo.k,
                                  &affinity,
                                  &pull_touched_[static_cast<size_t>(w)], work);
    } else {
      best = gain_.FindBestTargetGrouped(
          graph_, replicas, v, from,
          topo.group_children[static_cast<size_t>(group)], work);
    }
    return FinalizeProposal(best, v, from, anchor, anchor_penalty,
                            options_.propose_nonpositive);
  };

  // A recompute-all round re-proposes every shard vertex, otherwise only
  // the marked blast radius. Its patched prefix was proposed inside
  // ApplyDeltas; those scans are charged here, as if they ran here.
  const std::vector<std::vector<VertexId>>& lists =
      round->recompute_all ? data_shards_ : recompute_lists_;
  AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
    uint64_t work = 0;
    const std::vector<VertexId>& list = lists[static_cast<size_t>(w)];
    const size_t prescanned = prescanned_[static_cast<size_t>(w)];
    for (size_t i = 0; i < prescanned; ++i) work += push_work(list[i]);
    for (size_t i = prescanned; i < list.size(); ++i) {
      const VertexId v = list[i];
      const GainComputer::BestTarget best = propose(w, v, round->push, &work);
      cached_target_[v] = best.bucket;
      cached_gain_[v] = best.gain;
    }
    return work;
  }), &round->s2);
  for (const auto& list : lists) round->stats.num_recomputed += list.size();
  proposals_valid_ = true;

  // Worker stall: a straggler's extra work units gate the simulated epoch
  // time (slowest worker holds the barrier) without touching any exchanged
  // data — the trajectory is unchanged by construction.
  if (!injector_.empty()) {
    for (int w = 0; w < W; ++w) {
      const uint64_t stall = injector_.StallWorkUnits(round->epoch, w);
      if (stall == 0) continue;
      round->s2.work_units[static_cast<size_t>(w)] += stall;
      ++round->stats.stalled_workers;
      ++counters_.stalled_workers;
    }
  }

#ifndef NDEBUG
  // Every cached proposal — recomputed or carried — must equal a fresh
  // recompute in the active scan direction (cache-staleness guard), and in
  // push mode must honor the pull tolerance contract.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    uint64_t scratch_work = 0;
    for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
      const GainComputer::BestTarget cached{cached_target_[v],
                                            cached_gain_[v]};
      const GainComputer::BestTarget fresh =
          propose(w, v, round->push, &scratch_work);
      SHP_CHECK(fresh.bucket == cached.bucket && fresh.gain == cached.gain)
          << "stale cached BSP proposal for v=" << v;
      if (!round->push) continue;
      const BucketId from = partition.bucket_of(v);
      CheckPushMatchesPull(
          v, propose(w, v, /*use_push=*/false, &scratch_work), cached,
          [&](BucketId to) {
            return gain_.MoveGain(graph_, replicas, v, from, to);
          });
    }
    return 0;
  });
#endif
}

void BspRefiner::UploadHistograms(const Partition& partition,
                                  ThreadPool* pool, RoundState* round) {
  const int W = config_.num_workers;
  // data -> master: per-worker (bucket-pair, gain-bin) histograms,
  // maintained incrementally from the compact changed-proposal list. Each
  // worker still uploads its full live histogram — the master's matching
  // needs every pair's totals — so bytes stay O(active pairs × bins); only
  // the accumulation work shrinks to the blast radius.
  const auto hist_update = [&](int w, VertexId v) {
    worker_hist_[static_cast<size_t>(w)].Update(
        &hist_contrib_[v], partition.bucket_of(v), cached_target_[v],
        cached_gain_[v]);
  };
  if (round->recompute_all || !hist_valid_) {
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      worker_hist_[static_cast<size_t>(w)].Clear();
      for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
        hist_contrib_[v] = {};
        hist_update(w, v);
        ++work;
      }
      return work;
    }), &round->s3);
    hist_valid_ = true;
  } else {
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (VertexId v : recompute_lists_[static_cast<size_t>(w)]) {
        hist_update(w, v);
        work += 2;
      }
      return work;
    }), &round->s3);
  }
  // The histograms were this round's last consumer of the recompute marks:
  // clear them through the compact lists — the mark array stays all-zero
  // between iterations without an O(n) sweep.
  for (const auto& list : recompute_lists_) {
    for (VertexId v : list) recompute_[v] = 0;
  }

#ifndef NDEBUG
  for (int w = 0; w < W; ++w) {
    worker_hist_[static_cast<size_t>(w)].CheckMatchesRebuild(
        data_shards_[static_cast<size_t>(w)], partition, cached_target_,
        cached_gain_, &hist_contrib_);
  }
#endif

  // Master merge (the master is a distinct machine; every worker's
  // histogram entries cross the wire) into its reused flat instance.
  uint64_t remote_entries = 0;
  for (const PairHistograms& hist : worker_hist_) {
    remote_entries += hist.num_pairs() *
                      static_cast<uint64_t>(options_.broker.binning.num_bins());
    round->stats.num_proposals += hist.num_proposals();
  }
  master_hist_.AssignSum(worker_hist_, &master_slots_);
#ifndef NDEBUG
  master_hist_.CheckMatchesRebuild(
      std::views::iota(VertexId{0}, graph_.num_data()), partition,
      cached_target_, cached_gain_, nullptr);
#endif
  round->s3.label = "3:propose-to-master";
  round->s3.traffic.remote_messages = remote_entries;
  round->s3.traffic.remote_bytes = remote_entries * sizeof(uint64_t);
}

void BspRefiner::DrawAndExecute(const MoveTopology& topo, uint64_t seed,
                                uint64_t iteration, Partition* partition,
                                ThreadPool* pool, RoundState* round) {
  const int W = config_.num_workers;
  // master -> data: probabilities; vertices draw and move; master repairs.
  // Active proposals draw unless their pair row is all zero (the draw
  // floor of ProbabilityDraw — skipping a probability-0 draw cannot change
  // the trajectory), and the drawn movers land in compact per-worker lists,
  // so execution, repair, and next round's superstep 1 touch O(moved) state.
  // A vertex's contribution, mapped into the master instance, names its
  // proposal's probability row and bin, so the draw needs no lookup.
  ComputePairProbabilities(topo, master_hist_, *partition,
                           options_.broker.use_capacity_slack, &table_);
  const ProbabilityDraw draw(table_, options_.broker, seed, iteration);
  std::vector<uint64_t> draws(static_cast<size_t>(W), 0);
  for (auto& movers : mover_lists_) movers.clear();
  AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
    uint64_t work = 0;
    std::vector<VertexId>& movers = mover_lists_[static_cast<size_t>(w)];
    const std::vector<uint32_t>& to_master =
        master_slots_[static_cast<size_t>(w)];
    for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
      const PairHistograms::Contribution c = hist_contrib_[v];
      if (c.slot == PairHistograms::kNoSlot) continue;
      ++work;
      const uint32_t slot = to_master[c.slot];
      SHP_DCHECK(master_hist_.key(slot) ==
                 PackPair(partition->bucket_of(v), cached_target_[v]));
      if (draw.Fires(v, slot, c.bin, &draws[static_cast<size_t>(w)])) {
        movers.push_back(v);
      }
    }
    return work;
  }), &round->s4);
  IterationStats& stats = round->stats;
  stats.num_draws = std::accumulate(draws.begin(), draws.end(), uint64_t{0});

  MoveOutcome outcome;
  movers_.clear();
  for (const auto& movers : mover_lists_) {
    movers_.insert(movers_.end(), movers.begin(), movers.end());
  }
  std::sort(movers_.begin(), movers_.end());
  MoveBroker::ExecuteMoves(topo, options_.broker.max_moves_per_round,
                           cached_target_, cached_gain_, &movers_, &original_,
                           partition, &outcome);
  pending_announce_ = std::move(outcome.moves);
  last_movers_.clear();
  for (const VertexMove& m : pending_announce_) last_movers_.push_back(m.v);
  state_valid_ = true;
  if (round->push &&
      static_cast<double>(pending_announce_.size()) >
          options_.incremental_rebuild_fraction *
              static_cast<double>(graph_.num_data())) {
    // High-churn fallback (mirrors the threaded refiner): with this many
    // moved pins, the delta records outweigh the full restricted lists and
    // patching costs more than rebuilding — drop the accumulators and
    // re-bootstrap next iteration.
    sweep_valid_ = false;
  }

  // Broadcast: the probability table goes to every worker, one row (key +
  // a float per bin) per message.
  round->s4.label = "4:probabilities+moves";
  const uint64_t row_bytes =
      sizeof(uint64_t) +
      static_cast<uint64_t>(options_.broker.binning.num_bins()) * sizeof(float);
  round->s4.traffic.remote_messages =
      table_.num_rows() * static_cast<uint64_t>(W);
  round->s4.traffic.remote_bytes =
      table_.num_rows() * row_bytes * static_cast<uint64_t>(W);

  stats.num_moved = outcome.num_moved;
  stats.num_reverted = outcome.num_reverted;
  stats.gain_moved = outcome.gain_moved;
  stats.moved_fraction =
      graph_.num_data() == 0
          ? 0.0
          : static_cast<double>(outcome.num_moved) /
                static_cast<double>(graph_.num_data());
}

void BspRefiner::MaybeCheckpoint(uint64_t epoch, const IterationStats& stats,
                                 const Partition& partition) {
  // Epoch checkpoint: the full partition assignment plus the stats subset
  // the caller's convergence loop consumes, written after the moves so a
  // restore replays from the next epoch.
  if (checkpoints_ == nullptr || config_.checkpoint_interval <= 0 ||
      epoch % static_cast<uint64_t>(config_.checkpoint_interval) != 0) {
    return;
  }
  CheckpointData ckpt;
  ckpt.epoch = epoch;
  ckpt.num_moved = stats.num_moved;
  ckpt.gain_moved = stats.gain_moved;
  ckpt.moved_fraction = stats.moved_fraction;
  ckpt.k = static_cast<uint32_t>(partition.k());
  ckpt.assignment = partition.assignment();
  const Status ckpt_status = checkpoints_->Write(ckpt);
  if (ckpt_status.ok()) {
    ++counters_.checkpoints_written;
  } else {
    SHP_LOG(Warning) << "checkpoint write failed: " << ckpt_status.ToString();
  }
}

uint64_t BspRefiner::RecoverKilledWorker(int worker) {
  // The replacement worker reloads its query shard's adjacency and rebuilds
  // each owned query's neighbor data from the authoritative partition state
  // the queries last saw (known_assignment_ mirrors it by construction —
  // exact integer counts, so the rebuilt replicas are bit-identical to the
  // lost ones and the Debug replica cross-check still passes).
  uint64_t work = 0;
  std::vector<BucketId> buckets;
  for (VertexId q : query_shards_[static_cast<size_t>(worker)]) {
    auto& entries = query_ndata_[q];
    entries.clear();
    buckets.clear();
    for (VertexId v : graph_.QueryNeighbors(q)) {
      SHP_DCHECK(known_assignment_[v] >= 0);
      buckets.push_back(known_assignment_[v]);
      ++work;
    }
    std::sort(buckets.begin(), buckets.end());
    for (size_t i = 0; i < buckets.size();) {
      size_t j = i;
      while (j < buckets.size() && buckets[j] == buckets[i]) ++j;
      entries.push_back({buckets[i], static_cast<uint32_t>(j - i)});
      i = j;
    }
  }
  return work;
}

bool BspRefiner::TransferEnveloped(uint64_t epoch,
                                   const MessageRouter<NeighborDelta>& router,
                                   SuperstepStats* s2, IterationStats* stats) {
  const int W = config_.num_workers;
  const int max_attempts = 1 + std::max(config_.max_link_retries, 0);
  bool all_ok = true;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> frame;
  std::vector<uint8_t> delivered;
  std::vector<NeighborDelta> decoded;
  for (int dst = 0; dst < W; ++dst) {
    uint64_t& received = s2_received_[static_cast<size_t>(dst)];
    received = 0;
    for (int src = 0; src < W; ++src) {
      const std::vector<NeighborDelta>& buffer = router.Incoming(src, dst);
      if (src == dst) {
        // Worker-local delivery is a memory read: no wire, no envelope.
        received += buffer.size();
        continue;
      }
      const size_t link = LinkIndex(src, dst);
      // Every remote link sends a frame every epoch — empty payloads too.
      // That keeps the per-link sequence chain gapless, which is what turns
      // a dropped frame into a *detectable* absence at the barrier.
      payload.clear();
      wire::EncodeGroupedDeltas(buffer, &payload);
      link_payload_bytes_[link] = payload.size();
      wire::EnvelopeHeader header;
      header.epoch = epoch;
      header.sequence = ++link_send_seq_[link];
      header.record_count = buffer.size();
      frame.clear();
      s2->envelope_bytes += wire::EncodeEnveloped(header, payload, &frame);
      bool accepted = false;
      for (int attempt = 0; attempt < max_attempts && !accepted; ++attempt) {
        if (attempt > 0) {
          // Same-sequence retransmission of the full frame.
          ++stats->retransmits;
          ++counters_.retransmits;
          s2->retry_bytes += frame.size();
        }
        delivered = frame;
        const FaultInjector::WireAction action = injector_.OnDelivery(
            epoch, src, dst, attempt, &delivered, link_last_wire_[link]);
        if (action.drop) {
          // Nothing arrives; the gapless sequence chain means the receiver
          // notices the missing frame at the barrier (the simulated
          // timeout) and requests a retransmit.
          ++stats->faults_detected;
          ++counters_.faults_detected;
          continue;
        }
        wire::EnvelopeHeader got;
        decoded.clear();
        const wire::WireVerdict verdict =
            wire::DecodeEnveloped(delivered, &got, &decoded);
        bool frame_ok = verdict == wire::WireVerdict::kOk;
        // Envelope-level anomalies are classified against the link state:
        // a wrong epoch is a stale replay (reordering), a sequence below
        // recv+1 a duplicate, above it a gap.
        if (frame_ok && got.epoch != epoch) frame_ok = false;
        if (frame_ok && got.sequence != link_recv_seq_[link] + 1) {
          frame_ok = false;
        }
        if (!frame_ok) {
          ++stats->faults_detected;
          ++counters_.faults_detected;
          continue;
        }
        if (action.duplicate) {
          // The second copy arrives with a sequence the receiver has
          // already advanced past — detected and discarded, no
          // retransmission needed.
          ++stats->faults_detected;
          ++counters_.faults_detected;
        }
#ifndef NDEBUG
        // Lossless-wire gate: an accepted frame must reproduce the sender's
        // records bit-identically — the per-delivery decode-equivalence
        // CHECK that pins the faulted trajectory to the fault-free one.
        SHP_CHECK(decoded.size() == buffer.size() &&
                  std::equal(decoded.begin(), decoded.end(), buffer.begin()))
            << "enveloped superstep-2 frame round-trip mismatch on link "
            << src << "->" << dst;
#endif
        link_recv_seq_[link] = got.sequence;
        link_last_wire_[link] = frame;
        received += decoded.size();
        accepted = true;
      }
      if (accepted) {
        link_fail_streak_[link] = 0;
        link_backoff_len_[link] = std::max(config_.link_backoff_epochs, 1);
      } else {
        all_ok = false;
        // Bounded exponential backoff once a link keeps failing whole
        // epochs: while it backs off, the engine degrades to full-reship
        // bootstraps instead of retrying the enveloped exchange.
        if (++link_fail_streak_[link] >= config_.link_degrade_threshold) {
          link_backoff_until_[link] =
              epoch + 1 + static_cast<uint64_t>(link_backoff_len_[link]);
          link_backoff_len_[link] =
              std::min(link_backoff_len_[link] * 2, config_.link_backoff_max);
        }
      }
    }
  }
  return all_ok;
}

void BspRefiner::ResyncLinks() {
  for (size_t l = 0; l < link_send_seq_.size(); ++l) {
    link_recv_seq_[l] = link_send_seq_[l];
    link_last_wire_[l].clear();
  }
}

Status BspRefiner::RestoreLatestCheckpoint(Partition* partition) {
  if (checkpoints_ == nullptr) {
    return Status::NotFound(
        "checkpointing disabled (BspConfig::checkpoint_dir is empty)");
  }
  Result<CheckpointData> result = checkpoints_->LoadLatest();
  if (!result.ok()) return result.status();
  CheckpointData ckpt = std::move(result).value();
  if (ckpt.assignment.size() != static_cast<size_t>(graph_.num_data())) {
    return Status::Corruption("checkpoint vertex count " +
                              std::to_string(ckpt.assignment.size()) +
                              " does not match graph");
  }
  const uint64_t restored_epoch = ckpt.epoch;
  *partition = Partition::FromAssignment(std::move(ckpt.assignment),
                                         static_cast<BucketId>(ckpt.k));
  // Invalidate every piece of incremental state so the next RunIteration
  // bootstraps from the restored assignment exactly like a cold start —
  // replay is then a pure function of (assignment, seed, iteration), i.e.
  // indistinguishable from a run that never crashed.
  state_valid_ = false;
  sweep_valid_ = false;
  proposals_valid_ = false;
  hist_valid_ = false;
  std::fill(known_assignment_.begin(), known_assignment_.end(), -1);
  // The cold full scan re-folds every vertex against before = -1, which only
  // ever *adds* counts — stale replica content must go first.
  for (auto& entries : query_ndata_) entries.clear();
  std::fill(query_dirty_.begin(), query_dirty_.end(), 1);
  pending_announce_.clear();
  last_movers_.clear();
  std::fill(hist_contrib_.begin(), hist_contrib_.end(),
            PairHistograms::Contribution{});
  epoch_ = restored_epoch + 1;
  std::fill(link_send_seq_.begin(), link_send_seq_.end(), 0);
  std::fill(link_recv_seq_.begin(), link_recv_seq_.end(), 0);
  for (auto& wire_image : link_last_wire_) wire_image.clear();
  std::fill(link_fail_streak_.begin(), link_fail_streak_.end(), 0);
  std::fill(link_backoff_until_.begin(), link_backoff_until_.end(), 0);
  std::fill(link_backoff_len_.begin(), link_backoff_len_.end(),
            std::max(config_.link_backoff_epochs, 1));
  ++counters_.rollbacks;
  return Status::Ok();
}

}  // namespace shp
