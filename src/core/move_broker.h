// The move broker is the "master" of paper Fig. 3 supersteps 3-4: it
// aggregates per-vertex move proposals, computes per-pair move
// probabilities, and executes the simultaneous probabilistic moves.
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
#include <unordered_map>
#include <unordered_set>
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
  /// three strategies and by the BSP master; post-repair executed moves
  /// never exceed the budget (balance reversions only shrink the set).
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
/// re-accumulation. The threaded MoveBroker holds one instance over all
/// vertices; the BSP engine holds one per worker over its shard. A pair is
/// dropped as soon as its last proposal leaves, so only live pairs remain.
/// Cache-line aligned: BSP workers update their own instances concurrently.
class alignas(64) PairHistograms {
 public:
  static constexpr uint64_t kNoPair = ~0ull;
  /// Where one vertex's proposal counts; pair == kNoPair when nowhere.
  struct Contribution {
    uint64_t pair = kNoPair;
    int32_t bin = 0;
  };

  explicit PairHistograms(const GainBinning& binning) : binning_(binning) {}

  /// Drops every histogram. The caller resets its contributions.
  void Clear() {
    pairs_.clear();
    num_proposals_ = 0;
  }

  /// Re-derives one vertex's contribution: removes the counter *c records,
  /// then counts the proposal (from → target, gain) unless target < 0.
  /// Idempotent, so duplicate updates of one vertex are harmless.
  void Update(Contribution* c, BucketId from, BucketId target, double gain);

  /// Adds every live pair's counts into *merged (the master merge).
  void MergeInto(
      std::unordered_map<uint64_t, DirectedGainHistogram>* merged) const;

  uint64_t num_pairs() const { return pairs_.size(); }
  uint64_t num_proposals() const { return num_proposals_; }

  /// Debug cross-check: the patched histograms must equal a from-scratch
  /// accumulation of the proposals of `vertices`.
  template <typename Vertices>
  void CheckMatchesRebuild(const Vertices& vertices,
                           const Partition& partition,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains) const;

 private:
  struct PairState {
    DirectedGainHistogram hist;
    uint64_t total = 0;  ///< live proposals; the pair is dropped at 0
  };

  GainBinning binning_;
  std::unordered_map<uint64_t, PairState> pairs_;
  uint64_t num_proposals_ = 0;
};

/// Master-side state: per directed bucket pair (PackPair), per-gain-bin move
/// probabilities.
struct PairProbabilityTable {
  std::unordered_map<uint64_t, std::vector<double>> probabilities;

  /// Probability for a proposal (from, to, gain); 0 if the pair is unknown.
  double Lookup(const GainBinning& binning, BucketId from, BucketId to,
                double gain) const;

  /// Keys of pairs whose probability row holds any positive entry — the
  /// superstep-4 draw floor's support set. A proposal on any other pair
  /// draws against probability 0 in every bin, so its draw can never fire
  /// and is skipped without changing the move trajectory.
  std::unordered_set<uint64_t> LivePairKeys() const;
};

/// Superstep-4 probabilistic draw against a matched probability table,
/// shared by the threaded histogram broker and the BSP master. The draw for
/// vertex v is a pure hash of (seed, iteration, v), so the outcome does not
/// depend on thread scheduling or on which worker owns v.
class ProbabilityDraw {
 public:
  /// `table` must outlive the draw.
  ProbabilityDraw(const PairProbabilityTable& table,
                  const MoveBrokerOptions& options, uint64_t seed,
                  uint64_t iteration);

  /// True iff the proposal (v: from → target, gain) moves this round; every
  /// evaluated draw increments *draws. Draw floor: a proposal on a pair whose
  /// probability row is all zero can never fire, so its draw is skipped —
  /// the trajectory is that of drawing everything, while a converged
  /// instance stops paying for dead pairs.
  bool Fires(VertexId v, BucketId from, BucketId target, double gain,
             uint64_t* draws) const {
    if (!live_pairs_.contains(PackPair(from, target))) {
      // HashToUnitDouble lies in [0, 1), so a probability-0 draw never
      // fires.
      SHP_DCHECK(table_.Lookup(binning_, from, target, gain) == 0.0)
          << "draw floor skipped a live proposal of v=" << v;
      return false;
    }
    ++*draws;
    const double prob = std::min(table_.Lookup(binning_, from, target, gain),
                                 max_move_probability_) *
                        probability_damping_;
    return HashToUnitDouble(seed_ ^ 0x5108e77a, iteration_, v) < prob;
  }

 private:
  const PairProbabilityTable& table_;
  GainBinning binning_;
  double max_move_probability_;
  double probability_damping_;
  uint64_t seed_;
  uint64_t iteration_;
  std::unordered_set<uint64_t> live_pairs_;
};

/// The master computation of supersteps 3-4 under histogram matching:
/// matches the two directed histograms of every bucket pair and (optionally)
/// spends spare capacity on unmatched positive bins (§3.4 imbalanced swaps).
/// Shared between the threaded MoveBroker and the BSP master.
PairProbabilityTable ComputePairProbabilities(
    const MoveTopology& topo, const GainBinning& binning,
    const std::unordered_map<uint64_t, DirectedGainHistogram>& histograms,
    const Partition& partition, bool use_capacity_slack);

class MoveBroker {
 public:
  explicit MoveBroker(MoveBrokerOptions options)
      : options_(options), hist_(options.binning) {}

  const MoveBrokerOptions& options() const { return options_; }

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
  /// shared by the drawing strategies and the BSP master: trims them to the
  /// per-round `budget` (TrimToBudget), moves each v to targets[v], reverts
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

  MoveBrokerOptions options_;

  // kHistogramMatching master state kept across rounds (see Apply's
  // `changed` list), with one contribution per vertex.
  PairHistograms hist_;
  std::vector<PairHistograms::Contribution> hist_contrib_;
  bool hist_valid_ = false;

  std::vector<BucketId> original_;  ///< ExecuteMoves scratch
};

template <typename Vertices>
void PairHistograms::CheckMatchesRebuild(
    const Vertices& vertices, const Partition& partition,
    const std::vector<BucketId>& targets,
    const std::vector<double>& gains) const {
  std::unordered_map<uint64_t, DirectedGainHistogram> fresh;
  uint64_t proposals = 0;
  for (const VertexId v : vertices) {
    if (targets[v] < 0) continue;
    ++proposals;
    DirectedGainHistogram& h =
        fresh[PackPair(partition.bucket_of(v), targets[v])];
    if (h.counts.empty()) h.Init(binning_);
    h.Add(binning_, gains[v]);
  }
  SHP_CHECK_EQ(proposals, num_proposals_);
  SHP_CHECK_EQ(fresh.size(), pairs_.size())
      << "incremental histogram pair set diverged from full accumulation";
  for (const auto& [key, h] : fresh) {
    const auto it = pairs_.find(key);
    SHP_CHECK(it != pairs_.end() && it->second.hist.counts == h.counts)
        << "incremental histogram diverged from full accumulation (pair "
        << (key >> 32) << "->" << (key & 0xffffffffULL) << ")";
  }
}

}  // namespace shp
