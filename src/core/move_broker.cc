#include "core/move_broker.h"

#include <algorithm>
#include <ranges>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/proposal_matrix.h"

namespace shp {

void MoveBroker::CollectNetMoves(const std::vector<VertexId>& moved,
                                 const std::vector<BucketId>& original_bucket,
                                 const Partition& partition,
                                 MoveOutcome* outcome) {
  outcome->moves.reserve(outcome->num_moved);
  for (VertexId v : moved) {
    const BucketId now = partition.bucket_of(v);
    if (now != original_bucket[v]) {
      outcome->moves.push_back({v, original_bucket[v], now});
    }
  }
  SHP_DCHECK(outcome->moves.size() == outcome->num_moved);
}

void MoveBroker::ExecuteMoves(const MoveTopology& topo, uint64_t budget,
                              const std::vector<BucketId>& targets,
                              const std::vector<double>& gains,
                              std::vector<VertexId>* movers,
                              std::vector<BucketId>* original,
                              Partition* partition, MoveOutcome* outcome) {
  // Per-round move budget (partition stability): keep only the
  // highest-gain drawn movers. Applied before execution, so post-repair
  // executed moves can only be fewer.
  TrimToBudget(budget, gains, movers);
  if (original->size() < partition->num_data()) {
    original->resize(partition->num_data(), -1);
  }
  for (const VertexId v : *movers) {
    (*original)[v] = partition->bucket_of(v);
    partition->Move(v, targets[v]);
    ++outcome->num_moved;
    outcome->gain_moved += gains[v];
  }
  RepairBalance(topo, *movers, *original, gains, partition, outcome);
  CollectNetMoves(*movers, *original, *partition, outcome);
}

void MoveBroker::TrimToBudget(uint64_t budget,
                              const std::vector<double>& gains,
                              std::vector<VertexId>* movers) {
  if (budget == 0 || movers->size() <= budget) return;
  std::nth_element(movers->begin(),
                   movers->begin() + static_cast<int64_t>(budget),
                   movers->end(), [&gains](VertexId a, VertexId b) {
                     if (gains[a] != gains[b]) return gains[a] > gains[b];
                     return a < b;
                   });
  movers->resize(budget);
  std::sort(movers->begin(), movers->end());
}

MoveOutcome MoveBroker::Apply(const MoveTopology& topo,
                              const std::vector<BucketId>& targets,
                              const std::vector<double>& gains, uint64_t seed,
                              uint64_t iteration, Partition* partition,
                              ThreadPool* pool,
                              const std::vector<VertexId>* changed) {
  if (pool == nullptr) pool = &GlobalThreadPool();
  switch (options_.strategy) {
    case MoveBrokerOptions::Strategy::kPlainProbability:
      return ApplyPlain(topo, targets, gains, seed, iteration, partition,
                        pool);
    case MoveBrokerOptions::Strategy::kHistogramMatching:
      return ApplyHistogram(topo, targets, gains, seed, iteration, partition,
                            pool, changed);
    case MoveBrokerOptions::Strategy::kExactPairing:
      return ApplyExactPairing(topo, targets, gains, seed, iteration,
                               partition);
  }
  SHP_CHECK(false) << "unknown strategy";
  return {};
}

MoveOutcome MoveBroker::ApplyExactPairing(const MoveTopology& topo,
                                          const std::vector<BucketId>& targets,
                                          const std::vector<double>& gains,
                                          uint64_t seed, uint64_t iteration,
                                          Partition* partition) {
  const VertexId n = partition->num_data();
  SHP_CHECK_EQ(targets.size(), n);
  MoveOutcome outcome;

  // Two sorted queues per unordered bucket pair (§3.4 "ideal serial
  // implementation"): queue[(i,j)] holds vertices of i targeting j.
  std::unordered_map<uint64_t, std::vector<VertexId>> queues;
  for (VertexId v = 0; v < n; ++v) {
    if (targets[v] < 0) continue;
    ++outcome.num_proposals;
    queues[PackPair(partition->bucket_of(v), targets[v])].push_back(v);
  }
  std::vector<uint64_t> keys;
  keys.reserve(queues.size());
  for (auto& [key, queue] : queues) {
    // Highest gain first; stable tie-break on a per-iteration hash so the
    // same vertices are not perpetually preferred.
    std::sort(queue.begin(), queue.end(), [&](VertexId a, VertexId b) {
      if (gains[a] != gains[b]) return gains[a] > gains[b];
      return HashCombine(seed, iteration, a) <
             HashCombine(seed, iteration, b);
    });
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());

  // Pair off the two queues of each pair while the summed gain is positive;
  // each executed pair is one exact swap, so bucket sizes never change and
  // no repair is needed. Leftover one-sided positive demand may still use
  // capacity slack, highest gain first.
  std::vector<int64_t> slack(static_cast<size_t>(topo.k), 0);
  for (BucketId b = 0; b < topo.k; ++b) {
    slack[static_cast<size_t>(b)] =
        static_cast<int64_t>(topo.capacity[static_cast<size_t>(b)]) -
        static_cast<int64_t>(partition->bucket_size(b));
  }
  auto execute = [&](VertexId v) {
    outcome.moves.push_back({v, partition->bucket_of(v), targets[v]});
    partition->Move(v, targets[v]);
    ++outcome.num_moved;
    outcome.gain_moved += gains[v];
  };
  // Per-round move budget at pair granularity: a swap is only started when
  // both of its moves fit (executing half a pair would unbalance the
  // buckets this strategy promises never to touch).
  const uint64_t budget = options_.max_moves_per_round;
  auto budget_allows = [&](uint64_t extra_moves) {
    return budget == 0 || outcome.num_moved + extra_moves <= budget;
  };
  for (uint64_t key : keys) {
    const BucketId i = static_cast<BucketId>(key >> 32);
    const BucketId j = static_cast<BucketId>(key & 0xffffffffULL);
    if (i > j && queues.count(PackPair(j, i)) > 0) continue;  // done as (j,i)
    auto& forward = queues[key];
    static const std::vector<VertexId> kEmpty;
    const auto it_back = queues.find(PackPair(j, i));
    const std::vector<VertexId>& backward =
        it_back != queues.end() ? it_back->second : kEmpty;
    // Cap the swapped fraction below 1 for the same reason as the
    // probabilistic movers: swapping two whole buckets merely relabels them.
    const size_t max_pairs = std::max<size_t>(
        1, static_cast<size_t>(options_.max_move_probability *
                               std::min(forward.size(), backward.size())));
    size_t a = 0, b = 0;
    while (a < forward.size() && b < backward.size() && a < max_pairs &&
           budget_allows(2) &&
           gains[forward[a]] + gains[backward[b]] > 0.0) {
      execute(forward[a++]);
      execute(backward[b++]);
    }
    if (options_.use_capacity_slack) {
      // One-sided extras into spare capacity (positive gains only).
      while (a < forward.size() && gains[forward[a]] > 0.0 &&
             budget_allows(1) &&
             slack[static_cast<size_t>(j)] > 0) {
        --slack[static_cast<size_t>(j)];
        ++slack[static_cast<size_t>(i)];
        execute(forward[a++]);
      }
      while (b < backward.size() && gains[backward[b]] > 0.0 &&
             budget_allows(1) &&
             slack[static_cast<size_t>(i)] > 0) {
        --slack[static_cast<size_t>(i)];
        ++slack[static_cast<size_t>(j)];
        execute(backward[b++]);
      }
    }
  }
  // Pairing order is per bucket pair; normalize to the ascending-by-vertex
  // invariant the incremental consumers rely on.
  std::sort(outcome.moves.begin(), outcome.moves.end(),
            [](const VertexMove& a, const VertexMove& b) { return a.v < b.v; });
  return outcome;
}

MoveOutcome MoveBroker::ApplyPlain(const MoveTopology& topo,
                                   const std::vector<BucketId>& targets,
                                   const std::vector<double>& gains,
                                   uint64_t seed, uint64_t iteration,
                                   Partition* partition, ThreadPool* pool) {
  const VertexId n = partition->num_data();
  SHP_CHECK_EQ(targets.size(), n);
  MoveOutcome outcome;

  // "Update matrix": S[i][j] = #vertices in i proposing j with gain > 0.
  // (Paper Algorithm 1 counts only strictly improving proposals.)
  ProposalMatrix matrix;
  for (VertexId v = 0; v < n; ++v) {
    if (targets[v] < 0 || gains[v] <= 0.0) continue;
    ++outcome.num_proposals;
    matrix.Add(partition->bucket_of(v), targets[v]);
  }

  // "Change buckets": move with probability min(S_ij, S_ji)/S_ij. The random
  // draw is a pure hash of (seed, iteration, v) so the outcome is
  // independent of thread scheduling. Per-pair probabilities are computed
  // once; the draw floor skips pairs at probability 0 (no reciprocal
  // demand) — those draws can never fire, so the trajectory is unchanged.
  std::unordered_map<uint64_t, double> pair_prob;
  pair_prob.reserve(matrix.num_pairs());
  for (const auto& [i, j] : matrix.SortedPairs()) {
    pair_prob[PackPair(i, j)] = matrix.MoveProbability(i, j);
  }
  std::vector<uint8_t> decided(n, 0);
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  std::vector<uint64_t> draws_per_worker(num_workers, 0);
  pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
    uint64_t draws = 0;
    for (size_t v = begin; v < end; ++v) {
      if (targets[v] < 0 || gains[v] <= 0.0) continue;
      const BucketId from =
          partition->bucket_of(static_cast<VertexId>(v));
      const double pair = pair_prob.at(PackPair(from, targets[v]));
      if (pair <= 0.0) continue;
      ++draws;
      const double prob = std::min(pair, options_.max_move_probability) *
                          options_.probability_damping;
      if (HashToUnitDouble(seed ^ 0xabcdef12, iteration, v) < prob) {
        decided[v] = 1;
      }
    }
    draws_per_worker[w] += draws;
  });
  for (const uint64_t d : draws_per_worker) outcome.num_draws += d;

  std::vector<VertexId> moved;
  for (VertexId v = 0; v < n; ++v) {
    if (decided[v]) moved.push_back(v);
  }
  ExecuteMoves(topo, options_.max_moves_per_round, targets, gains, &moved,
               &original_, partition, &outcome);
  return outcome;
}

double PairProbabilityTable::Lookup(const GainBinning& binning, BucketId from,
                                    BucketId to, double gain) const {
  const auto it = probabilities.find(PackPair(from, to));
  if (it == probabilities.end()) return 0.0;
  return it->second[static_cast<size_t>(binning.BinFor(gain))];
}

std::unordered_set<uint64_t> PairProbabilityTable::LivePairKeys() const {
  std::unordered_set<uint64_t> live;
  for (const auto& [key, probs] : probabilities) {
    for (const double p : probs) {
      if (p > 0.0) {
        live.insert(key);
        break;
      }
    }
  }
  return live;
}

void PairHistograms::Update(Contribution* c, BucketId from, BucketId target,
                            double gain) {
  if (c->pair != kNoPair) {
    const auto it = pairs_.find(c->pair);
    SHP_DCHECK(it != pairs_.end());
    SHP_DCHECK(it->second.hist.counts[static_cast<size_t>(c->bin)] > 0);
    --it->second.hist.counts[static_cast<size_t>(c->bin)];
    if (--it->second.total == 0) pairs_.erase(it);
    --num_proposals_;
    c->pair = kNoPair;
  }
  if (target < 0) return;
  const uint64_t pair = PackPair(from, target);
  PairState& state = pairs_[pair];
  if (state.hist.counts.empty()) state.hist.Init(binning_);
  const int bin = binning_.BinFor(gain);
  ++state.hist.counts[static_cast<size_t>(bin)];
  ++state.total;
  ++num_proposals_;
  *c = {pair, bin};
}

void PairHistograms::MergeInto(
    std::unordered_map<uint64_t, DirectedGainHistogram>* merged) const {
  for (const auto& [key, state] : pairs_) {
    DirectedGainHistogram& into = (*merged)[key];
    if (into.counts.empty()) into.Init(binning_);
    for (size_t bin = 0; bin < state.hist.counts.size(); ++bin) {
      into.counts[bin] += state.hist.counts[bin];
    }
  }
}

ProbabilityDraw::ProbabilityDraw(const PairProbabilityTable& table,
                                 const MoveBrokerOptions& options,
                                 uint64_t seed, uint64_t iteration)
    : table_(table),
      binning_(options.binning),
      max_move_probability_(options.max_move_probability),
      probability_damping_(options.probability_damping),
      seed_(seed),
      iteration_(iteration),
      live_pairs_(table.LivePairKeys()) {}

PairProbabilityTable ComputePairProbabilities(
    const MoveTopology& topo, const GainBinning& binning,
    const std::unordered_map<uint64_t, DirectedGainHistogram>& histograms,
    const Partition& partition, bool use_capacity_slack) {
  // Match each unordered pair once, in deterministic key order.
  std::vector<uint64_t> keys;
  keys.reserve(histograms.size());
  for (const auto& [key, h] : histograms) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  PairProbabilityTable table;
  for (uint64_t key : keys) {
    const BucketId i = static_cast<BucketId>(key >> 32);
    const BucketId j = static_cast<BucketId>(key & 0xffffffffULL);
    if (i > j && histograms.count(PackPair(j, i)) > 0) {
      continue;  // handled from the (j, i) side
    }
    const auto it_fwd = histograms.find(PackPair(i, j));
    const auto it_bwd = histograms.find(PackPair(j, i));
    DirectedGainHistogram fwd;
    DirectedGainHistogram bwd;
    if (it_fwd != histograms.end()) fwd = it_fwd->second;
    if (it_bwd != histograms.end()) bwd = it_bwd->second;
    if (fwd.counts.empty()) fwd.Init(binning);
    if (bwd.counts.empty()) bwd.Init(binning);
    PairMoveProbabilities match = MatchHistograms(binning, fwd, bwd);
    table.probabilities[PackPair(i, j)] = std::move(match.forward);
    table.probabilities[PackPair(j, i)] = std::move(match.backward);
  }

  // §3.4 imbalanced swaps: spend spare capacity on unmatched positive bins,
  // highest gain first. Expected inflow is tracked so slack is not
  // oversubscribed in expectation.
  if (use_capacity_slack) {
    std::vector<double> slack(static_cast<size_t>(topo.k), 0.0);
    for (BucketId b = 0; b < topo.k; ++b) {
      slack[static_cast<size_t>(b)] =
          static_cast<double>(topo.capacity[static_cast<size_t>(b)]) -
          static_cast<double>(partition.bucket_size(b));
    }
    for (uint64_t key : keys) {
      const BucketId to = static_cast<BucketId>(key & 0xffffffffULL);
      auto& probs = table.probabilities[key];
      const auto& counts = histograms.at(key).counts;
      double& budget = slack[static_cast<size_t>(to)];
      for (int bin = binning.num_bins() - 1; bin > binning.zero_bin();
           --bin) {
        if (budget <= 0.0) break;
        const double unmatched =
            static_cast<double>(counts[static_cast<size_t>(bin)]) *
            (1.0 - probs[static_cast<size_t>(bin)]);
        if (unmatched <= 0.0) continue;
        const double extra = std::min(unmatched, budget);
        probs[static_cast<size_t>(bin)] +=
            extra / static_cast<double>(counts[static_cast<size_t>(bin)]);
        probs[static_cast<size_t>(bin)] =
            std::min(1.0, probs[static_cast<size_t>(bin)]);
        budget -= extra;
      }
    }
  }
  return table;
}

MoveOutcome MoveBroker::ApplyHistogram(const MoveTopology& topo,
                                       const std::vector<BucketId>& targets,
                                       const std::vector<double>& gains,
                                       uint64_t seed, uint64_t iteration,
                                       Partition* partition, ThreadPool* pool,
                                       const std::vector<VertexId>* changed) {
  const VertexId n = partition->num_data();
  SHP_CHECK_EQ(targets.size(), n);
  MoveOutcome outcome;
  const GainBinning& binning = options_.binning;

  // Directed gain histograms per ordered bucket pair (the master state;
  // O(#occupied pairs × bins) memory, k²·bins worst case as in the paper).
  // Maintained incrementally when the caller hands a changed-proposal list:
  // only the listed vertices' contributions are re-derived — O(|changed|)
  // counter updates instead of the O(n) re-accumulation.
  const bool incremental = changed != nullptr && hist_valid_ &&
                           hist_contrib_.size() == static_cast<size_t>(n);
  const auto update = [&](VertexId v) {
    hist_.Update(&hist_contrib_[v], partition->bucket_of(v), targets[v],
                 gains[v]);
  };
  if (incremental) {
    for (const VertexId v : *changed) update(v);
  } else {
    hist_.Clear();
    hist_contrib_.assign(static_cast<size_t>(n), {});
    for (VertexId v = 0; v < n; ++v) update(v);
    hist_valid_ = true;
  }
#ifndef NDEBUG
  hist_.CheckMatchesRebuild(std::views::iota(VertexId{0}, n), *partition,
                            targets, gains);
#endif
  outcome.num_proposals = hist_.num_proposals();

  std::unordered_map<uint64_t, DirectedGainHistogram> histograms;
  hist_.MergeInto(&histograms);
  const PairProbabilityTable table = ComputePairProbabilities(
      topo, binning, histograms, *partition, options_.use_capacity_slack);

  // Superstep 4: probabilistic simultaneous moves.
  const ProbabilityDraw draw(table, options_, seed, iteration);
  std::vector<uint8_t> decided(n, 0);
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  std::vector<uint64_t> draws_per_worker(num_workers, 0);
  pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
    uint64_t draws = 0;
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      if (targets[v] >= 0 && draw.Fires(v, partition->bucket_of(v),
                                        targets[v], gains[v], &draws)) {
        decided[v] = 1;
      }
    }
    draws_per_worker[w] += draws;
  });
  for (const uint64_t d : draws_per_worker) outcome.num_draws += d;

  std::vector<VertexId> moved;
  for (VertexId v = 0; v < n; ++v) {
    if (decided[v]) moved.push_back(v);
  }
  ExecuteMoves(topo, options_.max_moves_per_round, targets, gains, &moved,
               &original_, partition, &outcome);
  return outcome;
}

void MoveBroker::RepairBalance(const MoveTopology& topo,
                               const std::vector<VertexId>& moved,
                               const std::vector<BucketId>& original_bucket,
                               const std::vector<double>& gains,
                               Partition* partition, MoveOutcome* outcome) {
  // Group this round's inbound moves per destination bucket, lowest gain
  // first (ties broken by vertex id) so reversions sacrifice the least.
  std::unordered_map<BucketId, std::vector<VertexId>> inbound;
  for (VertexId v : moved) inbound[partition->bucket_of(v)].push_back(v);
  for (auto& [b, candidates] : inbound) {
    std::sort(candidates.begin(), candidates.end(),
              [&gains](VertexId a, VertexId c) {
                if (gains[a] != gains[c]) return gains[a] < gains[c];
                return a < c;
              });
  }

  // Iterate to a fixpoint: a reversion returns a vertex to its original
  // bucket, which may push *that* bucket over capacity, whose own arrivals
  // are then revertible. Reverting every arrival restores the pre-round
  // state, which satisfied all capacities, so the loop terminates with all
  // buckets within capacity (or with nothing left to revert, if the caller
  // handed us an infeasible pre-round state).
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<BucketId> buckets;
    buckets.reserve(inbound.size());
    for (const auto& [b, vs] : inbound) {
      if (!vs.empty()) buckets.push_back(b);
    }
    std::sort(buckets.begin(), buckets.end());
    for (BucketId b : buckets) {
      const uint64_t cap = topo.capacity[static_cast<size_t>(b)];
      auto& candidates = inbound[b];
      size_t next = 0;
      while (partition->bucket_size(b) > cap && next < candidates.size()) {
        const VertexId v = candidates[next++];
        partition->Move(v, original_bucket[v]);
        ++outcome->num_reverted;
        --outcome->num_moved;
        outcome->gain_moved -= gains[v];
        changed = true;
      }
      candidates.erase(candidates.begin(),
                       candidates.begin() + static_cast<int64_t>(next));
    }
  }
}

}  // namespace shp
