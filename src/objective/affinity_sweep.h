// Affinity sweep: per-vertex sparse affinity accumulators for the
// superstep-2 gain scan, maintained by a full vertex-major gather (Build) or
// by folding in ApplyMoves delta records (steady state).
//
// The pull-based gain scan (GainComputer::FindBestTarget) gathers, for every
// recomputed vertex v, the entry lists of all its adjacent queries and
// recomputes each query's per-bucket contribution every iteration. The
// paper's superstep 2 is naturally query-major: each query q contributes
// 1 − B^{n_j(q)} to the affinity of bucket j for *every* data neighbor of q.
// This module keeps the result alive across iterations:
//
//   affinity_v[b] = Σ_{q ∈ N(v), n_b(q) > 0} (1 − B^{n_b(q)})
//   support_v[b]  = #{q ∈ N(v) : n_b(q) > 0}
//
// Build gathers each vertex over its ascending DataNeighbors(v) into a
// per-thread dense k-wide scratch reset through a touched-bucket list (the
// QueryNeighborData::Build idiom). In steady state, ApplyDeltas consumes the
// (q, bucket, old, new) records that QueryNeighborData::ApplyMoves emits,
// indexes them per query, and patches only the vertices adjacent to a
// changed query (a blast-radius byte mask, scanned once per call) — no
// rescan of untouched queries' adjacency. Each
// vertex applies its dirty queries' records in ascending q, either through
// the dense scratch (when its op count m satisfies 4·m ≥ |acc_v|) or by a
// binary search per record into the sorted accumulator.
//
// Bit-identity: every (v, bucket) slot receives its adds in one fixed order —
// ascending q, then each (q, bucket) chain in emission order — whichever
// kernel, shard layout or thread count applies them. Build and ApplyDeltas
// are therefore pure functions of the neighbor data and the executed move
// history, and match a serial query-major / record-major reference exactly
// (tests/affinity_sweep_test.cc). A patched accumulator still differs from a
// fresh Build by summation order, so the refiner's patched-vs-fresh check is
// tolerance-based (see docs/refinement.md).
//
// Per-level windows (SHP-2/r recursion, docs/refinement.md): Build may take
// one bucket window per vertex — the sibling buckets of its subtree node, the
// only buckets its recursion level ever reads. A windowed sweep gathers only
// the in-window part of each query's bucket-sorted entry list, and
// ApplyDeltas folds a record into v only when its bucket lies in v's window,
// so a recursion level stores O(r) entries per vertex instead of one per
// occupied bucket. The surviving slots receive exactly the adds they would
// unwindowed, in the same order, so they hold the same floats. Without
// windows (the threaded engine's direct k-way refinement) every occupied
// bucket is kept.
//
// The BSP engine (engine/shp_bsp.h) gives each simulated data worker its own
// windowed sweep over the same vertex ids: an owned vertex keeps its group's
// window ([0, k) under direct k-way), every other vertex an empty one. An
// empty window stores nothing and gets no arena slack, so the windows double
// as the ownership filter and W replicas hold one copy of the in-window
// state between them.
//
// The integer support count makes entry lifetime exact: an accumulator entry
// exists iff some adjacent query occupies the bucket, and dropping the entry
// at support == 0 resets the float to exactly 0, so cancellation drift never
// fabricates phantom affinity.
//
// Storage mirrors QueryNeighborData: one flat arena of entries plus a packed
// per-vertex {begin, size, cap} record with slack, tail relocation on growth,
// and epoch compaction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "objective/neighbor_data.h"
#include "objective/pow_table.h"

namespace shp {

class ThreadPool;

/// One accumulator slot: bucket, number of adjacent queries occupying it,
/// and their summed affinity contribution Σ (1 − B^{n_bucket(q)}).
struct AffinityEntry {
  BucketId bucket;
  uint32_t support;
  double affinity;

  bool operator==(const AffinityEntry&) const = default;
};

/// Half-open bucket range [first, second) whose accumulator slots a vertex
/// keeps in a windowed sweep; first == second keeps none.
using BucketWindow = std::pair<BucketId, BucketId>;

class AffinitySweep {
 public:
  /// Full vertex-major pass: each vertex sums 1 − B^{n_b(q)} over its
  /// ascending DataNeighbors(v) into a per-thread dense k-wide scratch.
  /// Vertices are split into Σ-degree-weighted contiguous ranges, one per
  /// worker. O(Σ_q deg(q) · fanout(q)); windowed, O(Σ_v Σ_{q ∈ N(v)}
  /// (log fanout(q) + in-window entries)).
  ///
  /// `windows`, if non-empty, holds one window per vertex: v keeps only the
  /// buckets in windows[v], and the sweep stores the windows for
  /// ApplyDeltas. Empty keeps every occupied bucket.
  ///
  /// Each query's bucket-sorted neighbor data comes from a QueryNeighborData
  /// arena (the threaded Refiner) or from per-query lists (the BSP engine's
  /// query replicas); both overloads run the same gather. Returns the
  /// accumulator adds performed — one per in-window (query, bucket) entry
  /// gathered into a vertex, the BSP engine's simulated work unit.
  uint64_t Build(const BipartiteGraph& graph, const QueryNeighborData& ndata,
                 const PowTable& pow, ThreadPool* pool = nullptr,
                 std::vector<BucketWindow> windows = {});
  uint64_t Build(const BipartiteGraph& graph,
                 const std::vector<std::vector<BucketCount>>& query_lists,
                 const PowTable& pow, ThreadPool* pool = nullptr,
                 std::vector<BucketWindow> windows = {});

  /// Steady-state patch: folds ApplyMoves delta records into the affected
  /// accumulators. Records are grouped per query, each query's kept in
  /// emission order; each worker marks the blast radius of its Σ-degree
  /// vertex range and applies every marked vertex's dirty queries in
  /// ascending q — per (v, bucket) slot, the canonical (q, bucket) order
  /// with chains in emission order. Returns at once when there are no
  /// records. Otherwise a call costs O(n) for the serial degree prefix and
  /// the blast-mask scans (n/shards bytes per worker), O(R) to group the
  /// records, O(shards · Σ_dirty q log deg(q)) to mark, and O(Σ_marked v
  /// deg(v) + ops) to patch: beyond the two byte-cheap O(n) passes, the
  /// cost follows the move blast radius. `pow` must match Build's.
  ///
  /// A windowed sweep folds a record into v only when the record's bucket
  /// lies in v's window (each query's records are stably sorted by bucket
  /// first, so a window is a binary-searched stretch of the run). If
  /// `patched` is non-null it receives, ascending, the vertices that
  /// received at least one record — in-window ones, for a windowed sweep.
  /// Returns the records folded into accumulators, counted once per
  /// receiving vertex.
  uint64_t ApplyDeltas(const BipartiteGraph& graph,
                   std::span<const NeighborDelta> deltas, const PowTable& pow,
                   ThreadPool* pool = nullptr,
                   std::vector<VertexId>* patched = nullptr);

  /// Accumulator entries of vertex v, sorted by bucket id ascending.
  std::span<const AffinityEntry> Entries(VertexId v) const {
    const Loc& loc = loc_[v];
    return {entries_.data() + loc.begin,
            entries_.data() + loc.begin + loc.size};
  }

  /// affinity_v[b] (0 if no adjacent query occupies b). O(log entries).
  double AffinityFor(VertexId v, BucketId b) const;

  VertexId num_vertices() const { return static_cast<VertexId>(loc_.size()); }

  /// Total live accumulator entries Σ_v |occupied buckets of N(v)| (in
  /// v's window, for a windowed sweep).
  uint64_t TotalEntries() const { return live_entries_; }

  /// The per-vertex windows of the last Build (empty when not windowed).
  const std::vector<BucketWindow>& windows() const { return windows_; }

  /// Adjacency neighbor reads performed by the most recent Build: Σ deg(v)
  /// over the vertices it gathered (those with a non-empty window). Summed
  /// over the BSP engine's per-worker sweeps this is graph.num_edges() when
  /// every vertex is refined — each pin is read once, whatever the worker
  /// count (the bootstrap-cost gate of bench/refine_iteration.cc).
  uint64_t last_build_adjacency_reads() const {
    return last_build_adjacency_reads_;
  }

  /// Arena slots including slack and relocation garbage (≥ TotalEntries()).
  uint64_t ArenaSlots() const { return entries_.size(); }

  /// Repacks the arena in vertex order with fresh slack, dropping relocation
  /// garbage. Called automatically when garbage exceeds half the live
  /// volume; public for tests and memory-pressure callers.
  void Compact();

  /// Tolerance comparison against another sweep (typically a fresh Build):
  /// identical buckets and support everywhere, affinities equal within
  /// |a − b| ≤ atol + rtol · max(|a|, |b|). The debug cross-check the
  /// refiner runs per iteration.
  bool ApproxEquals(const AffinitySweep& other, double atol,
                    double rtol) const;

 private:
  /// Per-vertex accumulator location (same packing rationale as
  /// QueryNeighborData::Loc: one record per random access).
  struct Loc {
    uint64_t begin;
    uint32_t size;
    uint32_t cap;
  };

  /// Shard-local store for accumulators that outgrew their slack during a
  /// parallel ApplyDeltas (the shared arena cannot be grown concurrently).
  using ShardOverflow =
      std::vector<std::pair<VertexId, std::vector<AffinityEntry>>>;

  /// One delta record as a patch op: (bucket, support delta, affinity add),
  /// with add = B^old − B^new computed once per record instead of once per
  /// neighbor of its query.
  struct PatchOp {
    BucketId bucket;
    int32_t sup;
    double add;
  };

  /// Reusable ApplyDeltas scratch (cleared, not reallocated, per call).
  struct PatchScratch {
    /// [first, last) of q's run of patch ops, in emission order; {0, 0}
    /// for clean queries between calls.
    std::vector<std::pair<uint32_t, uint32_t>> query_records;
    std::vector<uint64_t> dirty_bits;     ///< bit q set iff q has records
    std::vector<VertexId> dirty_queries;  ///< queries with records
    std::vector<PatchOp> ops;             ///< records grouped per query
    std::vector<uint8_t> blast;           ///< per-vertex blast-radius mask
    std::vector<ShardOverflow> overflow;
    std::vector<int64_t> live_delta;
    std::vector<uint64_t> deg_prefix;  ///< Σ-degree shard-bound scratch
    std::vector<std::vector<VertexId>> patched;  ///< per-shard patched list
  };

  /// The gather behind both Build overloads; `entries_of(q)` returns q's
  /// bucket-sorted std::span<const BucketCount>.
  template <typename EntriesOf>
  uint64_t Gather(const BipartiteGraph& graph, const EntriesOf& entries_of,
                  const PowTable& pow, ThreadPool* pool,
                  std::vector<BucketWindow> windows);

  /// Arena slack of v: kSlackPad, or none when v's window is empty (no
  /// record ever lands there).
  uint32_t SlackOf(VertexId v) const;

  /// Build's layout: assigns every vertex's arena offset and slack from
  /// loc_[v].size and allocates the arena; the caller then copies the
  /// entries in.
  void LayoutFromSizes();

  /// Folds one (bucket, affinity-add, support-delta) contribution into v's
  /// arena accumulator. Returns false, changing nothing, when the delta
  /// inserts a bucket and the accumulator has no slack left.
  bool PatchInPlace(VertexId v, BucketId bucket, double add, int32_t sup,
                    int64_t* live_delta);

  void MaybeCompact();

  std::vector<AffinityEntry> entries_;  ///< flat arena (accumulators + slack)
  std::vector<Loc> loc_;                ///< per-vertex accumulator location
  std::vector<BucketWindow> windows_;   ///< per-vertex window, or empty
  uint64_t live_entries_ = 0;           ///< Σ_v loc_[v].size
  uint64_t garbage_ = 0;                ///< arena slots abandoned by relocation
  uint64_t last_build_adjacency_reads_ = 0;  ///< see accessor
  PatchScratch scratch_;
};

}  // namespace shp
