#include "engine/shp_bsp.h"

#include <algorithm>
#include <numeric>
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
      broker_(options.broker),
      log_(log) {
  SHP_CHECK_GT(config.num_workers, 0);
  // The master is the §3.4 histogram matcher; the plain strategy has no
  // BSP master here and exact pairing is single-machine by design.
  constexpr const char* kStrategyNames[] = {
      "kPlainProbability", "kHistogramMatching", "kExactPairing"};
  SHP_CHECK(options.broker.strategy ==
            MoveBrokerOptions::Strategy::kHistogramMatching)
      << "BspRefiner runs only the histogram-matching master; broker strategy "
      << kStrategyNames[static_cast<int>(options.broker.strategy)]
      << " is not supported";
  const size_t W = static_cast<size_t>(config.num_workers);
  data_shards_ = VertexSharding::BuildDataShards(sharding_, graph.num_data());
  query_shards_ =
      VertexSharding::BuildQueryShards(sharding_, graph.num_queries());
  data_owner_.resize(graph.num_data());
  for (VertexId v = 0; v < graph.num_data(); ++v) {
    data_owner_[v] = sharding_.DataWorker(v);
  }
  broker_.SetShardMap(data_owner_, config.num_workers);
  query_dirty_.assign(graph.num_queries(), 1);
  known_assignment_.assign(graph.num_data(), -1);
  cached_target_.assign(graph.num_data(), -1);
  cached_gain_.assign(graph.num_data(), 0.0);
  s1_stream_.resize(W);
  s1_record_begin_.assign(W + 1, 0);
  s2_received_.assign(W, 0);
  folded_.assign(graph.num_data(), 0);
  recompute_.assign(graph.num_data(), 0);
  recompute_lists_.resize(W);
  prescanned_.assign(W, 0);
  scratch_.resize(W);
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
  // Pull mode never builds the accumulators, so there are none to count;
  // before the first round there is no neighbor data either.
  const bool has_sweep = sweep_.num_vertices() > 0;
  const bool has_ndata = ndata_.num_queries() > 0;
  uint64_t worst = 0;
  for (int w = 0; w < config_.num_workers; ++w) {
    uint64_t bytes = 0;
    for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.DataDegree(v) * sizeof(VertexId) + 16;
      // The delta-exchange state: the live accumulator entries of owned
      // vertices (a windowed sweep's empty slots are not counted).
      if (has_sweep) bytes += sweep_.LiveEntries(v) * sizeof(AffinityEntry);
    }
    for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.QueryDegree(q) * sizeof(VertexId) + 16;
      if (has_ndata) bytes += ndata_.Fanout(q) * sizeof(BucketCount);
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
      round.s1.work_units[static_cast<size_t>(w)] +=
          RecoverKilledWorker(w, pool);
      sweep_valid_ = false;
      proposals_valid_ = false;
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
  draw_.Draw(topo, options_.exploration_probability, graph_.num_data(), seed,
             iteration);
  ExchangeNeighborData(topo, *partition, anchor, anchor_penalty,
                       round.stats.degraded_links > 0, pool, &round);
  ProposeMoves(topo, *partition, anchor, anchor_penalty, pool, &round);
  // Supersteps 3-4 on the threaded engine's master. A compact round hands it
  // the workers' recompute lists as the changed-proposal list: they hold
  // every vertex whose (bucket, target, gain) may differ from last round,
  // last round's movers included. A recompute-all round re-primes it.
  changed_.clear();
  for (const auto& list : recompute_lists_) {
    changed_.insert(changed_.end(), list.begin(), list.end());
  }
  MoveOutcome outcome =
      broker_.Apply(topo, cached_target_, cached_gain_, seed, iteration,
                    partition, pool, round.recompute_all ? nullptr : &changed_);
  UploadHistograms(&round);
  DrawAndExecute(std::move(outcome), &round);

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
  // Superstep-1 wire record: one CountDelta of one query's neighbor data,
  // combined per (source worker, query, bucket) before the wire (Giraph's
  // combiner). Folding these at the query owner is what produces the
  // NeighborDelta records superstep 2 ships in delta-exchange mode.
  MessageRouter<CountDelta> router(W);
  s1_combiner_.Reset(W);
  s1_records_.clear();
  std::fill(s1_record_begin_.begin(), s1_record_begin_.end(), 0);

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
  }
  pending_announce_.clear();
  round->stats.full_rebuild = round->full_scan;

  // Flush each source row of the combiner onto the wire: one message per
  // nonzero (query, bucket) sum, in ascending (query, bucket) order.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (int dst = 0; dst < W; ++dst) {
      for (const auto& [key, delta] : s1_combiner_.Drain(w, dst)) {
        router.Send(w, dst,
                    CountDelta{QueryOfKey(key), BucketOfKey(key), delta});
      }
    }
    return 0;
  });

  // Receive: owner workers fold their inbound runs into their queries'
  // neighbor data, each owner's one shard of ApplyCountDeltas. Records are
  // only worth emitting when valid accumulators will consume them; after a
  // high-churn round the accumulators were dropped and superstep 2
  // re-bootstraps instead. Only the records need a canonical fold order:
  // each source's run arrives strictly ascending by (query, bucket), and an
  // emitting owner merges its W runs into one stream, ties in ascending
  // source order, so each query's records come out contiguous (for the
  // grouped send) and do not depend on the message arrival interleaving.
  // The counts alone do not depend on the order — a count includes every
  // vertex leaving its bucket, so no partial sum drops below zero — and a
  // non-emitting owner's shard is its W runs as they arrived. A cold round
  // (first, or after a restore) would fold every pin into empty lists,
  // which is exactly a Build from the current assignment.
  const bool cold = !state_valid_;
  const bool emit = round->push && sweep_valid_;
  AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
    const auto key_of = [](const CountDelta& m) {
      return PackQueryBucket(m.q, m.bucket);
    };
    // Each source's read position and head key; an exhausted run's head
    // is the largest key, so the scan below never picks it.
    constexpr uint64_t kExhausted = ~uint64_t{0};
    std::vector<size_t> pos(static_cast<size_t>(W), 0);
    std::vector<uint64_t> head(static_cast<size_t>(W), kExhausted);
    size_t remaining = 0;
    for (int src = 0; src < W; ++src) {
      const std::vector<CountDelta>& run = router.Incoming(src, w);
      SHP_DCHECK(std::adjacent_find(run.begin(), run.end(),
                                    [&](const CountDelta& a,
                                        const CountDelta& b) {
                                      return key_of(a) >= key_of(b);
                                    }) == run.end())
          << "superstep-1 run from worker " << src << " is not ascending";
      if (!run.empty()) head[static_cast<size_t>(src)] = key_of(run.front());
      remaining += run.size();
      // Every query is still dirty on a cold round.
      if (!cold) {
        for (const CountDelta& m : run) query_dirty_[m.q] = 1;
      }
    }
    // One work unit per folded message.
    const uint64_t work = remaining;
    std::vector<CountDelta>& stream = s1_stream_[static_cast<size_t>(w)];
    stream.clear();
    if (!emit) return work;
    for (; remaining > 0; --remaining) {
      // Smallest head key; strict < keeps the lowest source on ties.
      size_t src = 0;
      for (size_t s = 1; s < head.size(); ++s) {
        if (head[s] < head[src]) src = s;
      }
      const std::vector<CountDelta>& run =
          router.Incoming(static_cast<int>(src), w);
      const CountDelta& m = run[pos[src]++];
      head[src] = pos[src] < run.size() ? key_of(run[pos[src]]) : kExhausted;
      stream.push_back(m);
    }
    return work;
  }), &s1);
  std::vector<std::span<const CountDelta>> runs;
  std::vector<size_t> shard_begin;
  for (int w = 0; w < W; ++w) {
    shard_begin.push_back(runs.size());
    if (emit) {
      runs.emplace_back(s1_stream_[static_cast<size_t>(w)]);
      s1_record_begin_[static_cast<size_t>(w) + 1] =
          s1_record_begin_[static_cast<size_t>(w)] +
          s1_stream_[static_cast<size_t>(w)].size();
    } else {
      for (int src = 0; src < W; ++src) {
        runs.emplace_back(router.Incoming(src, w));
      }
    }
  }
  shard_begin.push_back(runs.size());
  if (cold) {
    ndata_.Build(graph_, partition.assignment(), pool);
  } else {
    if (emit) s1_records_.resize(s1_record_begin_.back());
    ndata_.ApplyCountDeltas(runs, shard_begin, pool, s1_records_);
  }
  s1.traffic = router.CollectAndClear(sizeof(CountDelta));
  round->stats.num_delta_records = s1_records_.size();

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
    SHP_CHECK(ndata_.ContentEquals(fresh))
        << "BSP query replicas diverged from rebuild";
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
                                      std::span<const VertexId> vertices,
                                      bool skip_explorers) {
  uint64_t marked = 0;
  for (VertexId v : vertices) {
    if (data_owner_[v] != w || recompute_[v]) continue;
    if (skip_explorers && draw_.Target(v) >= 0) continue;
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
      const std::span<const NeighborDelta> records(
          s1_records_.data() + s1_record_begin_[static_cast<size_t>(w)],
          s1_records_.data() + s1_record_begin_[static_cast<size_t>(w) + 1]);
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
        const std::span<const BucketCount> entries = ndata_.Entries(q);
        const auto restricted = static_cast<uint32_t>(std::count_if(
            entries.begin(), entries.end(),
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
      sweep_.Build(graph_, ndata_, gain_.pow_table(), pool,
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
    sweep_.ApplyDeltas(graph_, s1_records_, gain_.pow_table(), pool,
                       &patched_, propose);
    AddWork(s2_received_, &s2);
    for (VertexId v : patched_) {
      s2.work_units[static_cast<size_t>(data_owner_[v])] += folded_[v];
    }
  }
  if (!round->recompute_all) {
    // A push proposal reads only v's window and bucket, so it can change
    // only if v received a member record (pull mode never patches, so
    // its patched list stays empty) or moved. Each worker's patched
    // vertices lead its list: ApplyDeltas already proposed for them, except
    // for this round's explorers. Last round's movers recompute
    // unconditionally: a mover's `from` changed even when offsetting moves
    // cancelled every adjacent count delta, in which case no dirty query or
    // record reaches it. Then the worker's explorers: last round's stale
    // ones and this round's firing ones (local to the worker, no message).
    AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
      const uint64_t patched =
          MarkForRecompute(w, patched_, /*skip_explorers=*/true);
      prescanned_[static_cast<size_t>(w)] = patched;
      return patched + MarkForRecompute(w, last_movers_) +
             MarkForRecompute(w, draw_.stale()) +
             MarkForRecompute(w, draw_.firing());
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
}

void BspRefiner::ProposeMoves(const MoveTopology& topo,
                              const Partition& partition,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty, ThreadPool* pool,
                              RoundState* round) {
  const int W = config_.num_workers;
  const ProposalInputs in{graph_, gain_, ndata_, sweep_, topo, partition,
                          anchor, anchor_penalty,
                          options_.propose_nonpositive, round->push, draw_};

  // A recompute-all round re-proposes every shard vertex, otherwise only
  // the marked blast radius. Its patched prefix was proposed inside
  // ApplyDeltas; those scans are charged here, as if they ran here.
  const std::vector<std::vector<VertexId>>& lists =
      round->recompute_all ? data_shards_ : recompute_lists_;
  AddWork(RunPhase(W, pool, [&](int w) -> uint64_t {
    uint64_t work = 0;
    const std::vector<VertexId>& list = lists[static_cast<size_t>(w)];
    const size_t prescanned = prescanned_[static_cast<size_t>(w)];
    for (size_t i = 0; i < prescanned; ++i) {
      const VertexId v = list[i];
      work += PushScanWork(sweep_, topo, partition.bucket_of(v), v);
    }
    for (size_t i = prescanned; i < list.size(); ++i) {
      const VertexId v = list[i];
      const GainComputer::BestTarget best =
          ComputeProposal(in, v, &scratch_[static_cast<size_t>(w)], &work);
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
  CheckProposals(in, cached_target_, cached_gain_, pool);
#endif
  // This round's exploration proposals are next round's stale list.
  draw_.EndRound(graph_, partition);
}

void BspRefiner::UploadHistograms(RoundState* round) {
  // data -> master: each worker's (bucket-pair, gain-bin) histograms are its
  // broker shard, patched from its changed proposals (two counter updates
  // each) or, on a recompute-all round, rebuilt over its shard (one per
  // vertex). Each worker still uploads its full live histogram — the
  // master's matching needs every pair's totals — so bytes stay O(active
  // pairs × bins); only the accumulation work shrinks to the blast radius.
  const uint64_t bins =
      static_cast<uint64_t>(options_.broker.binning.num_bins());
  for (int w = 0; w < config_.num_workers; ++w) {
    const size_t i = static_cast<size_t>(w);
    round->s3.work_units[i] = round->recompute_all
                                  ? data_shards_[i].size()
                                  : 2 * recompute_lists_[i].size();
    round->s3.traffic.remote_messages += broker_.shard(w).num_pairs() * bins;
  }
  // The broker took the recompute lists; the marks have no consumer left
  // this round: clear them through the compact lists — the mark array stays
  // all-zero between iterations without an O(n) sweep.
  for (const auto& list : recompute_lists_) {
    for (VertexId v : list) recompute_[v] = 0;
  }
  round->s3.label = "3:propose-to-master";
  round->s3.traffic.remote_bytes =
      round->s3.traffic.remote_messages * sizeof(uint64_t);
}

void BspRefiner::DrawAndExecute(MoveOutcome outcome, RoundState* round) {
  const int W = config_.num_workers;
  // master -> data: probabilities; each worker draws for its proposals
  // (unless their pair row is all zero, the broker's draw floor) and the
  // master repairs balance. The drawn movers come back ascending, so
  // execution, repair, and next round's superstep 1 touch O(moved) state.
  for (int w = 0; w < W; ++w) {
    round->s4.work_units[static_cast<size_t>(w)] =
        broker_.shard(w).num_proposals();
  }
  IterationStats& stats = round->stats;
  stats.num_proposals = outcome.num_proposals;
  stats.num_draws = outcome.num_draws;
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
  const uint64_t rows = broker_.table().num_rows();
  const uint64_t row_bytes =
      sizeof(uint64_t) +
      static_cast<uint64_t>(options_.broker.binning.num_bins()) * sizeof(float);
  round->s4.traffic.remote_messages = rows * static_cast<uint64_t>(W);
  round->s4.traffic.remote_bytes = rows * row_bytes * static_cast<uint64_t>(W);

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

uint64_t BspRefiner::RecoverKilledWorker(int worker, ThreadPool* pool) {
  // The replacement worker reloads its query shard's adjacency and rebuilds
  // each owned query's neighbor data from the authoritative partition state
  // the queries last saw (known_assignment_ mirrors it by construction —
  // exact integer counts, so the rebuilt replicas are bit-identical to the
  // lost ones, and rebuilding the whole store leaves the others unchanged).
  ndata_.Build(graph_, known_assignment_, pool);
  uint64_t work = 0;
  for (VertexId q : query_shards_[static_cast<size_t>(worker)]) {
    work += graph_.QueryDegree(q);
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
  std::fill(known_assignment_.begin(), known_assignment_.end(), -1);
  // The next round is cold: it rebuilds the neighbor data from the restored
  // assignment.
  std::fill(query_dirty_.begin(), query_dirty_.end(), 1);
  pending_announce_.clear();
  last_movers_.clear();
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
