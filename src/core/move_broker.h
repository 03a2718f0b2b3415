// The move broker is the "master" of paper Fig. 3 supersteps 3-4, for the
// threaded Refiner and the BSP engine alike: it aggregates per-vertex move
// proposals, computes per-pair move probabilities, and executes the
// simultaneous probabilistic moves.
//
// Two strategies:
//  * kPlainProbability — Algorithm 1 verbatim: only positive-gain proposals
//    count; probability for direction (i→j) is min(S_ij, S_ji)/S_ij.
//  * kHistogramMatching — the §3.4 production scheme: per-pair signed gain
//    histograms matched top-down, so the highest gains move first and
//    positive/negative bins can pair when their sum is positive.
//
// Both preserve balance in expectation; a deterministic post-move repair
// pass reverts the lowest-gain surplus moves of any bucket that exceeded
// its hard capacity, so the ε constraint is never violated (the paper runs
// with ε = 0.05 slack absorbing stochastic fluctuations; we enforce it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/gain_histogram.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

struct MoveBrokerOptions {
  enum class Strategy {
    kPlainProbability,   ///< Algorithm 1 verbatim
    kHistogramMatching,  ///< §3.4 distributed scheme (default)
    /// §3.4's "ideal serial implementation": per bucket pair, two queues of
    /// vertices sorted by gain, paired off highest-to-lowest while the pair
    /// sum stays positive. Exact (no binning loss) and exactly
    /// balance-preserving, but inherently centralized — usable only
    /// single-machine; kept as the quality reference the histogram scheme
    /// approximates.
    kExactPairing,
  };
  Strategy strategy = Strategy::kHistogramMatching;
  GainBinning binning;
  /// Multiplies every move probability; <1 damps movement (used by
  /// incremental repartitioning, paper §5(i)).
  double probability_damping = 1.0;
  /// Ceiling on any per-vertex move probability. Strictly below 1 so that
  /// fully matched symmetric demands do not all execute simultaneously —
  /// with probability exactly 1 a matched bucket pair swaps its entire
  /// populations, which merely relabels the buckets and oscillates forever
  /// (visible on the paper's Fig. 2 example). A 0.9 cap breaks the symmetry
  /// while keeping expected flow balanced.
  double max_move_probability = 0.9;
  /// §3.4 "imbalanced swaps": also move unmatched positive-gain vertices
  /// into buckets with spare capacity (histogram strategy only).
  bool use_capacity_slack = true;
  /// Ceiling on executed moves per round; 0 = unlimited. The online
  /// repartitioning stability knob (paper §5(i) alongside damping): when a
  /// round's drawn movers exceed the budget, the highest-gain movers are
  /// kept (deterministic tie-break on vertex id) and the rest stay put, so
  /// a serving tier migrates at a bounded rate per epoch. Enforced by all
  /// three strategies (the BSP engine runs the histogram one); post-repair
  /// executed moves never exceed the budget (balance reversions only
  /// shrink the set).
  uint64_t max_moves_per_round = 0;
};

struct MoveOutcome {
  uint64_t num_proposals = 0;  ///< vertices with a valid target
  uint64_t num_moved = 0;      ///< moves that stuck (after repair)
  uint64_t num_reverted = 0;   ///< repair reversions
  /// Probability draws evaluated (≤ num_proposals: the draw floor skips
  /// all-zero probability rows; kExactPairing draws nothing).
  uint64_t num_draws = 0;
  double gain_moved = 0.0;     ///< Σ gains of surviving moves
  /// Net executed moves of the round (post balance-repair; a reverted vertex
  /// does not appear), ascending by vertex id. This is exactly the partition
  /// delta: incremental neighbor-data maintenance consumes it directly, and
  /// QueryNeighborData::ApplyMoves expands it into the per-query
  /// NeighborDelta records that patch the query-major affinity sweep.
  std::vector<VertexMove> moves;
};

/// Directed bucket-pair key (from << 32 | to) of the superstep-3 histograms
/// and the superstep-4 probability tables.
inline uint64_t PackPair(BucketId from, BucketId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

/// Incrementally maintained superstep-3 state: one directed gain histogram
/// per (from, to) bucket pair over a set of proposals. The caller keeps one
/// Contribution per vertex — where its proposal currently counts — so a
/// changed proposal costs two counter updates instead of a term in an O(n)
/// re-accumulation. The MoveBroker holds one instance per vertex shard
/// (the BSP engine's data workers are its shards), updated in parallel,
/// and one more for the master, the sum of those.
///
/// Flat storage, reused across rounds: each live pair owns a slot — a row
/// of per-bin counts, an occupied-bin bitmask and a live total — found
/// through an open-addressing key→slot index (linear probing, Fibonacci
/// hashing of the whole PackPair key, backward-shift deletes). A pair is
/// dropped as soon as its last proposal leaves, and its slot goes to a free
/// list for the next new pair, so only live pairs are indexed and a steady
/// state allocates nothing. The superstep-4 probability table keeps one row
/// per slot. Cache-line aligned: the shards are updated concurrently.
class alignas(64) PairHistograms {
 public:
  static constexpr uint64_t kNoPair = ~0ull;
  static constexpr uint32_t kNoSlot = ~0u;
  /// Where one vertex's proposal counts: its pair's slot and its gain bin;
  /// slot == kNoSlot when nowhere.
  struct Contribution {
    uint32_t slot = kNoSlot;
    int32_t bin = 0;
  };

  explicit PairHistograms(const GainBinning& binning);

  const GainBinning& binning() const { return binning_; }

  /// Drops every histogram. The caller resets its contributions.
  void Clear();

  /// Re-derives one vertex's contribution: removes the counter *c records,
  /// then counts the proposal (from → target, gain) unless target < 0.
  /// Idempotent, so duplicate updates of one vertex are harmless.
  void Update(Contribution* c, BucketId from, BucketId target, double gain);

  /// Makes this instance the sum of `parts` (the master merge). Pairs
  /// this instance already holds keep their slots; (*slot_maps)[w][s] is
  /// the slot here of parts[w]'s slot s (kNoSlot for a free one).
  void AssignSum(std::span<const PairHistograms> parts,
                 std::vector<std::vector<uint32_t>>* slot_maps);

  /// Slot of the pair `key` (PackPair), or kNoSlot when it is not live.
  uint32_t Find(uint64_t key) const;

  /// Slots handed out so far, live or free; slot ids lie below it.
  uint32_t num_slots() const { return static_cast<uint32_t>(slot_key_.size()); }
  /// PackPair key of a slot's pair; kNoPair for a free slot.
  uint64_t key(uint32_t slot) const { return slot_key_[slot]; }
  GainRow row(uint32_t slot) const {
    return {&counts_[static_cast<size_t>(slot) * bins_],
            &occupied_[static_cast<size_t>(slot) * words_]};
  }
  uint32_t count(uint32_t slot, int bin) const {
    return counts_[static_cast<size_t>(slot) * bins_ +
                   static_cast<size_t>(bin)];
  }

  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t num_proposals() const { return num_proposals_; }

  /// Debug cross-check: the patched histograms must equal a from-scratch
  /// accumulation of the proposals of `vertices`, and, if `contrib` is
  /// given, each such vertex's contribution must name its proposal's pair
  /// slot and gain bin.
  template <typename Vertices>
  void CheckMatchesRebuild(const Vertices& vertices,
                           const Partition& partition,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains,
                           const std::vector<Contribution>* contrib) const;

 private:
  struct IndexCell {
    uint64_t key = kNoPair;  ///< kNoPair: empty
    uint32_t slot = kNoSlot;
  };

  size_t Home(uint64_t key) const {
    // The top bits of the product depend on both halves of the key; the low
    // bits would ignore `from` (key >> 32) entirely.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  /// Slot of `key`, allocating one (index entry + zeroed row) if absent.
  uint32_t Acquire(uint64_t key);
  /// Drops the pair of a slot whose total reached 0 (its row is all zero).
  void Release(uint32_t slot);
  /// Doubles the index and re-inserts every live pair.
  void GrowIndex();
  /// Adds n to the count of `bin` in `slot`, keeping the bitmask.
  void AddCount(uint32_t slot, int bin, uint32_t n);

  GainBinning binning_;
  int bins_;
  int words_;
  int shift_;  ///< 64 − log2(index_.size())
  std::vector<IndexCell> index_;
  std::vector<uint64_t> slot_key_;   ///< per slot
  std::vector<uint32_t> totals_;     ///< per slot: live proposals
  std::vector<uint32_t> counts_;     ///< slot × bins
  std::vector<uint64_t> occupied_;   ///< slot × words
  std::vector<uint32_t> free_slots_;
  uint64_t num_pairs_ = 0;
  uint64_t num_proposals_ = 0;
};

/// Superstep-4 probabilities, one row per slot of the PairHistograms they
/// were computed from (ComputePairProbabilities): per-gain-bin move
/// probabilities for that directed pair, and whether any is positive. A row
/// is meaningful on its pair's occupied bins only — every other bin has
/// probability 0 (no proposal to move), whatever the storage holds — so a
/// round writes O(occupied bins), not pairs × num_bins. Reused across
/// rounds: a steady state allocates nothing.
class PairProbabilityTable {
 public:
  /// Probability of gain bin `bin` on the pair in histogram slot `slot`.
  double Probability(uint32_t slot, int bin) const {
    return hist_->count(slot, bin) == 0 ? 0.0 : ProbabilityAt(slot, bin);
  }

  /// Whether slot's row holds any positive entry — the superstep-4 draw
  /// floor's support set. A proposal on any other pair draws against
  /// probability 0 in every bin, so its draw can never fire and is skipped
  /// without changing the move trajectory.
  bool live(uint32_t slot) const { return live_[slot] != 0; }

  /// Rows of the broadcast table: two per unordered bucket pair with a live
  /// direction (the missing direction's row is all zero), one for a pair
  /// from a bucket to itself.
  uint64_t num_rows() const { return num_rows_; }

 private:
  friend class ProbabilityDraw;
  friend void ComputePairProbabilities(const MoveTopology& topo,
                                       const PairHistograms& histograms,
                                       const Partition& partition,
                                       bool use_capacity_slack,
                                       PairProbabilityTable* table);

  double ProbabilityAt(uint32_t slot, int bin) const {
    return probs_[static_cast<size_t>(slot) * bins_ + static_cast<size_t>(bin)];
  }
  double* row(uint32_t slot) {
    return &probs_[static_cast<size_t>(slot) * bins_];
  }

  const PairHistograms* hist_ = nullptr;
  size_t bins_ = 0;
  std::vector<double> probs_;  ///< slot × bins
  std::vector<uint8_t> live_;  ///< per slot
  uint64_t num_rows_ = 0;
  /// ComputePairProbabilities scratch: (key, slot) of the live pairs in
  /// ascending key order, and per-bucket capacity slack.
  std::vector<std::pair<uint64_t, uint32_t>> order_;
  std::vector<double> slack_;
};

/// Superstep-4 probabilistic draw against a matched probability table. The
/// draw for vertex v is a pure hash of (seed, iteration, v), so the outcome
/// does not depend on thread scheduling or on which shard owns v.
class ProbabilityDraw {
 public:
  /// `table` must outlive the draw.
  ProbabilityDraw(const PairProbabilityTable& table,
                  const MoveBrokerOptions& options, uint64_t seed,
                  uint64_t iteration);

  /// True iff v's proposal moves this round; `slot` and `bin` say where it
  /// counts in the table's histograms (its Contribution, mapped into the
  /// master instance). Every evaluated draw increments *draws. Draw floor: a
  /// proposal on a pair whose probability row is all zero can never fire,
  /// so its draw is skipped — the trajectory is that of drawing everything,
  /// while a converged instance stops paying for dead pairs.
  bool Fires(VertexId v, uint32_t slot, int bin, uint64_t* draws) const {
    if (!table_.live(slot)) {
      // HashToUnitDouble lies in [0, 1), so a probability-0 draw never
      // fires.
      SHP_DCHECK(table_.Probability(slot, bin) == 0.0)
          << "draw floor skipped a live proposal of v=" << v;
      return false;
    }
    ++*draws;
    const double prob =
        std::min(table_.ProbabilityAt(slot, bin), max_move_probability_) *
        probability_damping_;
    return HashToUnitDouble(seed_ ^ 0x5108e77a, iteration_, v) < prob;
  }

 private:
  const PairProbabilityTable& table_;
  double max_move_probability_;
  double probability_damping_;
  uint64_t seed_;
  uint64_t iteration_;
};

/// The master computation of supersteps 3-4 under histogram matching:
/// matches the two directed histograms of every bucket pair and (optionally)
/// spends spare capacity on unmatched positive bins (§3.4 imbalanced swaps),
/// in ascending pair-key order. Reads `histograms` in place and writes
/// *table's rows aligned with its slots; `histograms` must outlive the
/// table's use.
void ComputePairProbabilities(const MoveTopology& topo,
                              const PairHistograms& histograms,
                              const Partition& partition,
                              bool use_capacity_slack,
                              PairProbabilityTable* table);

/// The master of supersteps 3-4, for both engines. Under histogram matching
/// the superstep-3 histograms are kept per vertex shard: each round updates
/// every shard's changed proposals in parallel, merges the shards in shard
/// order into the master instance, matches it and draws through its slots.
/// The matching reads pair counts in ascending pair-key order and each draw
/// hashes (seed, iteration, v), so the master's sums alone — not the shard
/// layout or its slot numbering — fix every probability and every draw.
class MoveBroker {
 public:
  explicit MoveBroker(MoveBrokerOptions options)
      : options_(options), hist_(options.binning) {}

  const MoveBrokerOptions& options() const { return options_; }

  /// Shards the superstep-3 histograms by `shard_of` (vertex → shard in
  /// [0, num_shards); the BSP engine passes its data-worker map) instead of
  /// the default, one contiguous vertex range per pool thread. The next
  /// Apply re-primes.
  void SetShardMap(std::vector<int32_t> shard_of, int num_shards);

  /// Histograms of shard s as of the last histogram-matching Apply.
  const PairHistograms& shard(int s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// Probability table of the last histogram-matching Apply.
  const PairProbabilityTable& table() const { return table_; }

  /// Adjusts the per-round move budget between rounds (the serving loop
  /// passes its remaining epoch budget before every iteration). 0 =
  /// unlimited. Does not disturb the incremental histogram state.
  void set_max_moves_per_round(uint64_t max_moves) {
    options_.max_moves_per_round = max_moves;
  }

  /// Executes one move round. targets[v] = proposed bucket (or -1);
  /// gains[v] = proposal gain (improvement; may be ≤ 0 under histogram
  /// matching). Deterministic in (seed, iteration) for a fixed thread count.
  ///
  /// `changed`, if non-null, is the compact changed-proposal list: every
  /// vertex whose (current bucket, target, gain) differs from the previous
  /// Apply call on this broker must be listed (duplicates are fine — the
  /// update is idempotent). Under kHistogramMatching the broker then patches
  /// its persistent per-pair histograms in O(|changed|) instead of
  /// re-accumulating the n-sized targets/gains arrays; the move trajectory
  /// is identical (Debug builds verify against a from-scratch accumulation).
  /// nullptr (the default, and the only mode the other strategies use)
  /// rebuilds from scratch and re-primes the incremental state.
  MoveOutcome Apply(const MoveTopology& topo,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, uint64_t seed,
                    uint64_t iteration, Partition* partition,
                    ThreadPool* pool = nullptr,
                    const std::vector<VertexId>* changed = nullptr);

  /// Superstep-4 execution of the drawn movers (ascending by vertex id),
  /// shared by the drawing strategies: trims them to the per-round
  /// `budget` (TrimToBudget), moves each v to targets[v], reverts
  /// surplus moves of over-capacity buckets, and emits the net executed
  /// moves into outcome->moves. `original` is per-vertex scratch (grown to
  /// the vertex count; only mover slots are written).
  static void ExecuteMoves(const MoveTopology& topo, uint64_t budget,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains,
                           std::vector<VertexId>* movers,
                           std::vector<BucketId>* original,
                           Partition* partition, MoveOutcome* outcome);

  /// Trims a drawn mover list to `budget` vertices (0 = unlimited): keeps
  /// the highest gains, ties broken on the lower vertex id, and restores
  /// ascending-by-vertex order on return. Deterministic for a fixed input.
  static void TrimToBudget(uint64_t budget, const std::vector<double>& gains,
                           std::vector<VertexId>* movers);

 private:
  MoveOutcome ApplyPlain(const MoveTopology& topo,
                         const std::vector<BucketId>& targets,
                         const std::vector<double>& gains, uint64_t seed,
                         uint64_t iteration, Partition* partition,
                         ThreadPool* pool);
  MoveOutcome ApplyHistogram(const MoveTopology& topo,
                             const std::vector<BucketId>& targets,
                             const std::vector<double>& gains, uint64_t seed,
                             uint64_t iteration, Partition* partition,
                             ThreadPool* pool,
                             const std::vector<VertexId>* changed);
  MoveOutcome ApplyExactPairing(const MoveTopology& topo,
                                const std::vector<BucketId>& targets,
                                const std::vector<double>& gains,
                                uint64_t seed, uint64_t iteration,
                                Partition* partition);

  /// Reverts lowest-gain surplus moves of over-capacity buckets until every
  /// bucket fits its capacity (or nothing is left to revert).
  static void RepairBalance(const MoveTopology& topo,
                            const std::vector<VertexId>& moved,
                            const std::vector<BucketId>& original_bucket,
                            const std::vector<double>& gains,
                            Partition* partition, MoveOutcome* outcome);

  /// Emits the net executed moves (vertices whose post-repair bucket differs
  /// from their pre-round bucket) into outcome->moves, ascending by vertex
  /// id.
  static void CollectNetMoves(const std::vector<VertexId>& moved,
                              const std::vector<BucketId>& original_bucket,
                              const Partition& partition,
                              MoveOutcome* outcome);

  /// Checks shard_of_ against `num_shards` and lays out as many empty
  /// shards.
  void IndexShards(int num_shards);

  MoveBrokerOptions options_;

  // kHistogramMatching state kept across rounds (see Apply's `changed`
  // list): one histogram instance per vertex shard, each vertex's
  // contribution (a slot of its shard's instance), the master's merge of
  // the shards, where slot_maps_[s][slot] is the master slot of shard s's
  // slot, and the probability table reused from round to round.
  std::vector<int32_t> shard_of_;  ///< per vertex
  bool custom_shards_ = false;  ///< shard_of_ came from SetShardMap
  std::vector<PairHistograms> shards_;
  std::vector<PairHistograms::Contribution> hist_contrib_;
  bool hist_valid_ = false;
  PairHistograms hist_;
  std::vector<std::vector<uint32_t>> slot_maps_;
  PairProbabilityTable table_;

  std::vector<std::vector<VertexId>> mover_lists_;  ///< per pool worker
  std::vector<BucketId> original_;  ///< ExecuteMoves scratch
};

template <typename Vertices>
void PairHistograms::CheckMatchesRebuild(
    const Vertices& vertices, const Partition& partition,
    const std::vector<BucketId>& targets, const std::vector<double>& gains,
    const std::vector<Contribution>* contrib) const {
  // The fresh accumulation is laid out on this instance's slots: a proposal
  // on a pair without a slot is itself the divergence.
  std::vector<uint32_t> fresh(counts_.size(), 0);
  uint64_t proposals = 0;
  uint64_t cells = 0;  // nonzero fresh bins
  for (const VertexId v : vertices) {
    const BucketId from = partition.bucket_of(v);
    const uint32_t slot =
        targets[v] < 0 ? kNoSlot : Find(PackPair(from, targets[v]));
    const int bin = binning_.BinFor(gains[v]);
    if (contrib != nullptr) {
      const Contribution& c = (*contrib)[v];
      SHP_CHECK(c.slot == slot && (slot == kNoSlot || c.bin == bin))
          << "contribution of v=" << v << " does not name its proposal";
    }
    if (targets[v] < 0) continue;
    ++proposals;
    SHP_CHECK(slot != kNoSlot)
        << "incremental histograms lost pair " << from << "->" << targets[v];
    cells += fresh[static_cast<size_t>(slot) * bins_ +
                   static_cast<size_t>(bin)]++ == 0;
  }
  SHP_CHECK_EQ(proposals, num_proposals_);
  if (!std::equal(counts_.begin(), counts_.end(), fresh.begin())) {
    const size_t at = static_cast<size_t>(
        std::mismatch(counts_.begin(), counts_.end(), fresh.begin()).first -
        counts_.begin());
    const uint64_t key = slot_key_[at / static_cast<size_t>(bins_)];
    SHP_CHECK(false)
        << "incremental histogram diverged from full accumulation (pair "
        << (key >> 32) << "->" << (key & 0xffffffffULL) << ")";
  }
  // The counts match. Every occupied bit must sit on a nonzero count, and
  // the bits must be as many as the nonzero bins, so they mark exactly
  // those; each slot's total and liveness then follow from its bits.
  uint64_t bits = 0;
  uint64_t live = 0;
  for (uint32_t slot = 0; slot < num_slots(); ++slot) {
    const GainRow r = row(slot);
    uint64_t total = 0;
    for (int bin = PrevOccupiedBin(r.occupied, bins_ - 1); bin >= 0;
         bin = PrevOccupiedBin(r.occupied, bin - 1)) {
      SHP_CHECK(r.counts[bin] > 0)
          << "occupied bit on an empty bin (slot " << slot << ")";
      total += r.counts[bin];
      ++bits;
    }
    SHP_CHECK_EQ(total, totals_[slot]);
    SHP_CHECK((total > 0) == (slot_key_[slot] != kNoPair))
        << "slot " << slot << " is live without proposals, or the reverse";
    live += total > 0;
  }
  SHP_CHECK_EQ(bits, cells) << "a nonzero bin lacks its occupied bit";
  SHP_CHECK_EQ(live, num_pairs_);
}

}  // namespace shp
