#include "core/move_broker.h"

#include <algorithm>
#include <ranges>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/proposal_matrix.h"

namespace shp {

namespace {

/// Superstep-4 draw over vertices [0, n): `fires(v, &draws)` decides v.
/// Each pool worker draws one contiguous chunk into a list of its own, on
/// its stack while it draws (the vector headers of adjacent entries of
/// *lists share cache lines, and each push_back writes one) and stored back
/// into (*lists)[w] after, keeping its capacity for the next round. The
/// lists concatenate in worker order, so *movers ends ascending by vertex
/// id — no n-sized decision array and no serial scan of one.
template <typename Fires>
void DrawMovers(ThreadPool* pool, VertexId n, const Fires& fires,
                std::vector<std::vector<VertexId>>* lists,
                std::vector<VertexId>* movers, uint64_t* num_draws) {
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  lists->resize(std::max(lists->size(), num_workers));
  std::vector<uint64_t> draws_per_worker(num_workers, 0);
  for (auto& list : *lists) list.clear();
  pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
    std::vector<VertexId> list = std::move((*lists)[w]);
    uint64_t draws = 0;
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = static_cast<VertexId>(i);
      if (fires(v, &draws)) list.push_back(v);
    }
    (*lists)[w] = std::move(list);
    draws_per_worker[w] = draws;
  });
  movers->clear();
  for (size_t w = 0; w < num_workers; ++w) {
    movers->insert(movers->end(), (*lists)[w].begin(), (*lists)[w].end());
    *num_draws += draws_per_worker[w];
  }
}

}  // namespace

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
  const auto fires = [&](VertexId v, uint64_t* draws) {
    if (targets[v] < 0 || gains[v] <= 0.0) return false;
    const double pair =
        pair_prob.at(PackPair(partition->bucket_of(v), targets[v]));
    if (pair <= 0.0) return false;
    ++*draws;
    const double prob = std::min(pair, options_.max_move_probability) *
                        options_.probability_damping;
    return HashToUnitDouble(seed ^ 0xabcdef12, iteration, v) < prob;
  };
  std::vector<VertexId> moved;
  DrawMovers(pool, n, fires, &mover_lists_, &moved, &outcome.num_draws);
  ExecuteMoves(topo, options_.max_moves_per_round, targets, gains, &moved,
               &original_, partition, &outcome);
  return outcome;
}

PairHistograms::PairHistograms(const GainBinning& binning)
    : binning_(binning),
      bins_(binning.num_bins()),
      words_(OccupiedWords(binning.num_bins())),
      shift_(64 - 4),
      index_(16) {}

void PairHistograms::Clear() {
  std::fill(index_.begin(), index_.end(), IndexCell{});
  slot_key_.clear();
  totals_.clear();
  counts_.clear();
  occupied_.clear();
  free_slots_.clear();
  num_pairs_ = 0;
  num_proposals_ = 0;
}

uint32_t PairHistograms::Find(uint64_t key) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (index_[i].key == key) return index_[i].slot;
    if (index_[i].key == kNoPair) return kNoSlot;
  }
}

uint32_t PairHistograms::Acquire(uint64_t key) {
  size_t mask = index_.size() - 1;
  size_t i = Home(key);
  for (; index_[i].key != kNoPair; i = (i + 1) & mask) {
    if (index_[i].key == key) return index_[i].slot;
  }
  if (2 * (num_pairs_ + 1) > index_.size()) {
    GrowIndex();
    mask = index_.size() - 1;
    for (i = Home(key); index_[i].key != kNoPair; i = (i + 1) & mask) {
    }
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = num_slots();
    slot_key_.push_back(kNoPair);
    totals_.push_back(0);
    counts_.resize(counts_.size() + static_cast<size_t>(bins_), 0);
    occupied_.resize(occupied_.size() + static_cast<size_t>(words_), 0);
  }
  slot_key_[slot] = key;
  index_[i] = {key, slot};
  ++num_pairs_;
  return slot;
}

void PairHistograms::Release(uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t hole = Home(slot_key_[slot]);
  while (index_[hole].key != slot_key_[slot]) hole = (hole + 1) & mask;
  // Backward-shift delete: pull later cells of the probe run into the hole
  // unless their home lies cyclically in (hole, cell] — no tombstones, so
  // probe runs stay as short as the live load makes them.
  for (size_t i = (hole + 1) & mask; index_[i].key != kNoPair;
       i = (i + 1) & mask) {
    const size_t home = Home(index_[i].key);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = IndexCell{};
  slot_key_[slot] = kNoPair;
  free_slots_.push_back(slot);
  --num_pairs_;
}

void PairHistograms::GrowIndex() {
  index_.assign(2 * index_.size(), IndexCell{});
  --shift_;
  const size_t mask = index_.size() - 1;
  for (uint32_t slot = 0; slot < num_slots(); ++slot) {
    const uint64_t key = slot_key_[slot];
    if (key == kNoPair) continue;
    size_t i = Home(key);
    while (index_[i].key != kNoPair) i = (i + 1) & mask;
    index_[i] = {key, slot};
  }
}

void PairHistograms::AddCount(uint32_t slot, int bin, uint32_t n) {
  uint32_t& count = counts_[static_cast<size_t>(slot) * bins_ +
                            static_cast<size_t>(bin)];
  if (count == 0) {
    occupied_[static_cast<size_t>(slot) * words_ +
              static_cast<size_t>(bin / 64)] |= uint64_t{1} << (bin % 64);
  }
  count += n;
}

void PairHistograms::Update(Contribution* c, BucketId from, BucketId target,
                            double gain) {
  const uint64_t key = target < 0 ? kNoPair : PackPair(from, target);
  uint32_t slot = kNoSlot;
  if (c->slot != kNoSlot) {
    const size_t at = static_cast<size_t>(c->slot) * bins_ +
                      static_cast<size_t>(c->bin);
    SHP_DCHECK(counts_[at] > 0);
    if (--counts_[at] == 0) {
      occupied_[static_cast<size_t>(c->slot) * words_ +
                static_cast<size_t>(c->bin / 64)] &=
          ~(uint64_t{1} << (c->bin % 64));
    }
    --num_proposals_;
    --totals_[c->slot];
    if (slot_key_[c->slot] == key) {
      slot = c->slot;  // same pair: keep the slot even if it just emptied
    } else if (totals_[c->slot] == 0) {
      Release(c->slot);
    }
    c->slot = kNoSlot;
  }
  if (key == kNoPair) return;
  if (slot == kNoSlot) slot = Acquire(key);
  const int bin = binning_.BinFor(gain);
  AddCount(slot, bin, 1);
  ++totals_[slot];
  ++num_proposals_;
  *c = {slot, bin};
}

void PairHistograms::AssignSum(
    std::span<const PairHistograms> parts,
    std::vector<std::vector<uint32_t>>* slot_maps) {
  // Zero the rows but keep the pairs: most of last round's pairs are live
  // again, so they are found where they were instead of re-inserted.
  for (uint32_t slot = 0; slot < num_slots(); ++slot) {
    if (slot_key_[slot] == kNoPair) continue;
    uint64_t* occupied = &occupied_[static_cast<size_t>(slot) * words_];
    uint32_t* counts = &counts_[static_cast<size_t>(slot) * bins_];
    for (int bin = PrevOccupiedBin(occupied, bins_ - 1); bin >= 0;
         bin = PrevOccupiedBin(occupied, bin - 1)) {
      counts[bin] = 0;
    }
    std::fill(occupied, occupied + words_, 0);
    totals_[slot] = 0;
  }
  num_proposals_ = 0;
  slot_maps->resize(parts.size());
  for (size_t w = 0; w < parts.size(); ++w) {
    const PairHistograms& part = parts[w];
    SHP_DCHECK(part.bins_ == bins_);
    std::vector<uint32_t>& map = (*slot_maps)[w];
    map.assign(part.num_slots(), kNoSlot);
    for (uint32_t from = 0; from < part.num_slots(); ++from) {
      if (part.slot_key_[from] == kNoPair) continue;
      const uint32_t slot = Acquire(part.slot_key_[from]);
      map[from] = slot;
      const GainRow row = part.row(from);
      for (int bin = PrevOccupiedBin(row.occupied, bins_ - 1); bin >= 0;
           bin = PrevOccupiedBin(row.occupied, bin - 1)) {
        AddCount(slot, bin, row.counts[bin]);
      }
      totals_[slot] += part.totals_[from];
      num_proposals_ += part.totals_[from];
    }
  }
  for (uint32_t slot = 0; slot < num_slots(); ++slot) {
    if (slot_key_[slot] != kNoPair && totals_[slot] == 0) Release(slot);
  }
}

ProbabilityDraw::ProbabilityDraw(const PairProbabilityTable& table,
                                 const MoveBrokerOptions& options,
                                 uint64_t seed, uint64_t iteration)
    : table_(table),
      max_move_probability_(options.max_move_probability),
      probability_damping_(options.probability_damping),
      seed_(seed),
      iteration_(iteration) {}

void ComputePairProbabilities(const MoveTopology& topo,
                              const PairHistograms& histograms,
                              const Partition& partition,
                              bool use_capacity_slack,
                              PairProbabilityTable* table) {
  const GainBinning& binning = histograms.binning();
  const int bins = binning.num_bins();
  const uint32_t slots = histograms.num_slots();
  table->hist_ = &histograms;
  table->bins_ = static_cast<size_t>(bins);
  // Rows are written on occupied bins only (Probability masks the rest), so
  // growing the storage is the only time it is touched wholesale.
  if (table->probs_.size() < static_cast<size_t>(slots) * table->bins_) {
    table->probs_.resize(static_cast<size_t>(slots) * table->bins_);
  }
  table->live_.assign(slots, 0);
  table->num_rows_ = 0;

  // Deterministic ascending key order (the capacity-slack pass below
  // depends on it).
  auto& order = table->order_;
  order.clear();
  for (uint32_t slot = 0; slot < slots; ++slot) {
    const uint64_t key = histograms.key(slot);
    if (key != PairHistograms::kNoPair) order.emplace_back(key, slot);
  }
  std::sort(order.begin(), order.end());

  // Match each unordered pair once.
  for (const auto& [key, slot] : order) {
    const BucketId i = static_cast<BucketId>(key >> 32);
    const BucketId j = static_cast<BucketId>(key & 0xffffffffULL);
    const uint32_t back = i == j ? slot : histograms.Find(PackPair(j, i));
    if (i > j && back != PairHistograms::kNoSlot) {
      continue;  // handled from the (j, i) side
    }
    table->num_rows_ += i == j ? 1 : 2;
    const bool two_sided = back != PairHistograms::kNoSlot;
    MatchHistograms(binning, histograms.row(slot),
                    two_sided ? histograms.row(back) : GainRow{},
                    table->row(slot), two_sided ? table->row(back) : nullptr);
  }

  // §3.4 imbalanced swaps: spend spare capacity on unmatched positive bins,
  // highest gain first. Expected inflow is tracked so slack is not
  // oversubscribed in expectation. Bins without proposals have nothing
  // unmatched, so only occupied bins are visited.
  if (use_capacity_slack) {
    std::vector<double>& slack = table->slack_;
    slack.assign(static_cast<size_t>(topo.k), 0.0);
    for (BucketId b = 0; b < topo.k; ++b) {
      slack[static_cast<size_t>(b)] =
          static_cast<double>(topo.capacity[static_cast<size_t>(b)]) -
          static_cast<double>(partition.bucket_size(b));
    }
    for (const auto& [key, slot] : order) {
      const BucketId to = static_cast<BucketId>(key & 0xffffffffULL);
      const GainRow counts = histograms.row(slot);
      double* probs = table->row(slot);
      double& budget = slack[static_cast<size_t>(to)];
      for (int bin = PrevOccupiedBin(counts.occupied, bins - 1);
           bin > binning.zero_bin();
           bin = PrevOccupiedBin(counts.occupied, bin - 1)) {
        if (budget <= 0.0) break;
        const double count = static_cast<double>(counts.counts[bin]);
        const double unmatched = count * (1.0 - probs[bin]);
        if (unmatched <= 0.0) continue;
        const double extra = std::min(unmatched, budget);
        probs[bin] += extra / count;
        probs[bin] = std::min(1.0, probs[bin]);
        budget -= extra;
      }
    }
  }

  for (const auto& [key, slot] : order) {
    const GainRow counts = histograms.row(slot);
    const double* probs = table->row(slot);
    for (int bin = PrevOccupiedBin(counts.occupied, bins - 1); bin >= 0;
         bin = PrevOccupiedBin(counts.occupied, bin - 1)) {
      if (probs[bin] > 0.0) {
        table->live_[slot] = 1;
        break;
      }
    }
  }
}

void MoveBroker::SetShardMap(std::vector<int32_t> shard_of, int num_shards) {
  shard_of_ = std::move(shard_of);
  custom_shards_ = true;
  hist_valid_ = false;
  IndexShards(num_shards);
}

void MoveBroker::IndexShards(int num_shards) {
  SHP_CHECK_GT(num_shards, 0);
  for (VertexId v = 0; v < shard_of_.size(); ++v) {
    SHP_CHECK(shard_of_[v] >= 0 && shard_of_[v] < num_shards)
        << "vertex " << v << " maps to shard " << shard_of_[v];
  }
  shards_.assign(static_cast<size_t>(num_shards),
                 PairHistograms(options_.binning));
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

  // Default layout: one contiguous vertex range per pool thread, re-laid
  // (and re-primed) when the pool size or the vertex count changes.
  const size_t threads = std::max<size_t>(1, pool->num_threads());
  if (custom_shards_) {
    SHP_CHECK_EQ(shard_of_.size(), n);
  } else if (shards_.size() != threads || shard_of_.size() != n) {
    shard_of_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      shard_of_[v] = static_cast<int32_t>(uint64_t{v} * threads / n);
    }
    IndexShards(static_cast<int>(threads));
    hist_valid_ = false;
  }

  // Superstep 3: directed gain histograms per ordered bucket pair, one
  // instance per shard (O(#occupied pairs × bins) memory each, k²·bins
  // worst case as in the paper). Given a changed-proposal list, each shard
  // re-derives only the listed vertices it owns — O(|changed|) counter
  // updates instead of the O(n) re-accumulation; otherwise it re-primes
  // over its own vertices. The shards run in parallel: each writes only its
  // instance and its own vertices' contributions.
  const bool incremental = changed != nullptr && hist_valid_ &&
                           hist_contrib_.size() == static_cast<size_t>(n);
  hist_contrib_.resize(n);
  pool->ParallelForEach(shards_.size(), [&](size_t s) {
    PairHistograms& hist = shards_[s];
    const auto update = [&](VertexId v) {
      if (static_cast<size_t>(shard_of_[v]) != s) return;
      if (!incremental) hist_contrib_[v] = {};
      hist.Update(&hist_contrib_[v], partition->bucket_of(v), targets[v],
                  gains[v]);
    };
    if (incremental) {
      for (const VertexId v : *changed) update(v);
    } else {
      hist.Clear();
      for (VertexId v = 0; v < n; ++v) update(v);
    }
  });
  hist_valid_ = true;
  // The master's merge, in shard order, into its reused flat instance.
  hist_.AssignSum(shards_, &slot_maps_);
#ifndef NDEBUG
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (static_cast<size_t>(shard_of_[v]) == s) members.push_back(v);
    }
    shards_[s].CheckMatchesRebuild(members, *partition, targets, gains,
                                   &hist_contrib_);
  }
  hist_.CheckMatchesRebuild(std::views::iota(VertexId{0}, n), *partition,
                            targets, gains, nullptr);
#endif
  outcome.num_proposals = hist_.num_proposals();
  ComputePairProbabilities(topo, hist_, *partition,
                           options_.use_capacity_slack, &table_);

  // Superstep 4: probabilistic simultaneous moves. A vertex's contribution,
  // mapped into the master instance, names its proposal's row and bin, so
  // the draw needs no lookup.
  const ProbabilityDraw draw(table_, options_, seed, iteration);
  const auto fires = [&](VertexId v, uint64_t* draws) {
    const PairHistograms::Contribution c = hist_contrib_[v];
    if (c.slot == PairHistograms::kNoSlot) return false;
    const uint32_t slot =
        slot_maps_[static_cast<size_t>(shard_of_[v])][c.slot];
    SHP_DCHECK(hist_.key(slot) ==
               PackPair(partition->bucket_of(v), targets[v]));
    return draw.Fires(v, slot, c.bin, draws);
  };
  std::vector<VertexId> moved;
  DrawMovers(pool, n, fires, &mover_lists_, &moved, &outcome.num_draws);
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
  // first (ties broken by vertex id) so reversions sacrifice the least: one
  // array sorted by (bucket, gain, id), with a cursor range per bucket.
  struct Group {
    BucketId bucket;
    size_t next;  ///< first arrival not reverted yet
    size_t end;
  };
  std::vector<VertexId> inbound(moved.begin(), moved.end());
  std::sort(inbound.begin(), inbound.end(), [&](VertexId a, VertexId c) {
    const BucketId ba = partition->bucket_of(a);
    const BucketId bc = partition->bucket_of(c);
    if (ba != bc) return ba < bc;
    if (gains[a] != gains[c]) return gains[a] < gains[c];
    return a < c;
  });
  std::vector<Group> groups;
  for (size_t i = 0; i < inbound.size(); ++i) {
    const BucketId b = partition->bucket_of(inbound[i]);
    if (groups.empty() || groups.back().bucket != b) {
      groups.push_back({b, i, i});
    }
    groups.back().end = i + 1;
  }

  // Iterate to a fixpoint, bucket-ascending in each pass: a reversion
  // returns a vertex to its original bucket, which may push *that* bucket
  // over capacity, whose own arrivals are then revertible. Reverting every
  // arrival restores the pre-round state, which satisfied all capacities,
  // so the loop terminates with all buckets within capacity (or with
  // nothing left to revert, if the caller handed us an infeasible pre-round
  // state).
  bool changed = true;
  while (changed) {
    changed = false;
    for (Group& g : groups) {
      const uint64_t cap = topo.capacity[static_cast<size_t>(g.bucket)];
      while (partition->bucket_size(g.bucket) > cap && g.next < g.end) {
        const VertexId v = inbound[g.next++];
        partition->Move(v, original_bucket[v]);
        ++outcome->num_reverted;
        --outcome->num_moved;
        outcome->gain_moved -= gains[v];
        changed = true;
      }
    }
  }
}

}  // namespace shp
