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
// rescan of untouched queries' adjacency. Each vertex applies its dirty
// queries' records in ascending q, either through the dense scratch (when
// its op count m satisfies 4·m ≥ |acc_v|) or by one streaming merge of its
// bucket-ordered ops into the sorted accumulator, while the next marked
// vertex's accumulator is prefetched. An optional
// PatchVisitor sees each patched vertex's final entries right after its
// patch, while they are cache-hot: both refinement engines compute the
// vertex's push proposal there instead of rescanning it later.
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
// The BSP engine (engine/shp_bsp.h) keeps one sweep for all its simulated
// data workers, each vertex's accumulator the state of its owner, and charges
// each worker the adds (entry supports) and folded records (the visitor's
// count) of its own vertices. A vertex in a bucket its recursion level does
// not refine gets an empty window: no entries, no arena slack.
//
// The integer support count makes entry lifetime exact: an accumulator entry
// exists iff some adjacent query occupies the bucket, and dropping the entry
// at support == 0 resets the float to exactly 0, so cancellation drift never
// fabricates phantom affinity.
//
// Storage is a block arena. Each vertex's accumulator, with its slack, is a
// run of slots carved from a fixed-size block; one wider than a block gets a
// block of its own size. Blocks are never resized or reallocated, so placing
// an accumulator never moves another one. Build drains every vertex straight
// into its gather shard's own blocks, and the sweep then takes those blocks
// over: nothing is staged or copied. An accumulator that outgrows its slack
// is relocated to fresh slots in the tail block, leaving its old ones as
// garbage, and epoch compaction repacks the live accumulators into fresh
// blocks. Neither Build nor a relocation therefore holds a second copy of the
// accumulators. (QueryNeighborData keeps one flat arena with tail regrowth;
// its lists are a few MB even at k=512.)
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
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

/// Non-owning reference to a callable `f(VertexId v, std::span<const
/// AffinityEntry> entries, uint32_t records)` that ApplyDeltas runs once per
/// patched vertex; `records` is the number of records folded into v.
/// Copying it copies the reference; the callable must outlive the call it is
/// passed to (a lambda argument does).
class PatchVisitor {
 public:
  PatchVisitor() = default;
  template <typename F>
    requires std::invocable<const F&, VertexId,
                            std::span<const AffinityEntry>, uint32_t> &&
             (!std::same_as<F, PatchVisitor>)
  PatchVisitor(const F& f)  // NOLINT(runtime/explicit)
      : callable_(&f),
        invoke_([](const void* callable, VertexId v,
                   std::span<const AffinityEntry> entries, uint32_t records) {
          (*static_cast<const F*>(callable))(v, entries, records);
        }) {}

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()(VertexId v, std::span<const AffinityEntry> entries,
                  uint32_t records) const {
    invoke_(callable_, v, entries, records);
  }

 private:
  const void* callable_ = nullptr;
  void (*invoke_)(const void*, VertexId, std::span<const AffinityEntry>,
                  uint32_t) = nullptr;
};

/// Move-only: the accumulators live in blocks the sweep owns, and a move
/// hands the blocks over, so every entry keeps its address.
class AffinitySweep {
 public:
  /// Entries per arena block (64 KB). A fixed size, not an option: every
  /// gather shard leaves part of its last block unused, and larger blocks
  /// would waste more per shard.
  static constexpr uint32_t kBlockEntries = 4096;

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
  /// gathered into a vertex. Each add raises one entry's support by 1, so
  /// this equals Σ_v Σ_e support over the built entries.
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
  /// (deg(v) + |acc_v| + m_v log m_v)) to patch: a vertex with m_v ops is
  /// folded through the dense scratch (4·m_v ≥ |acc_v|) or by one streaming
  /// merge of its bucket-sorted ops into the accumulator, while the next
  /// marked vertex's accumulator is prefetched — a patch streams each
  /// accumulator once, the way the engines' visitor reads it anyway.
  /// Beyond the two byte-cheap O(n) passes, the cost follows the move blast
  /// radius. `pow` must match Build's.
  ///
  /// A windowed sweep folds a record into v only when the record's bucket
  /// lies in v's window (each query's records are stably sorted by bucket
  /// first, so a window is a binary-searched stretch of the run). If
  /// `patched` is non-null it receives, ascending, the vertices that
  /// received at least one record — in-window ones, for a windowed sweep.
  /// Returns the records folded into accumulators, counted once per
  /// receiving vertex.
  ///
  /// `on_patched`, if set, runs exactly once for each vertex in that patched
  /// set (and never for an empty delta batch), right after its accumulator
  /// is patched and while it is still cache-hot: the engines compute the
  /// vertex's push proposal there instead of rescanning the accumulator
  /// later. It receives v's final entries — in place, or the shard-local
  /// copy of an accumulator that outgrew its slack, before the serial
  /// relocation, so they equal Entries(v) after the call — and the records
  /// folded into v, which sum over the calls to the return value. Calls for
  /// distinct vertices run concurrently on the pool's workers; the callable
  /// must not read another vertex's sweep state and should not allocate.
  uint64_t ApplyDeltas(const BipartiteGraph& graph,
                   std::span<const NeighborDelta> deltas, const PowTable& pow,
                   ThreadPool* pool = nullptr,
                   std::vector<VertexId>* patched = nullptr,
                   PatchVisitor on_patched = {});

  /// Accumulator entries of vertex v, sorted by bucket id ascending.
  std::span<const AffinityEntry> Entries(VertexId v) const {
    return {loc_[v].data, loc_[v].size};
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
  /// over the vertices it gathered (those with a non-empty window), so
  /// graph.num_edges() when every vertex is refined — each pin is read once
  /// (the BSP bootstrap-cost gate of bench/refine_iteration.cc).
  uint64_t last_build_adjacency_reads() const {
    return last_build_adjacency_reads_;
  }

  /// Arena slots handed out to accumulators: live entries, slack and
  /// relocation garbage (≥ TotalEntries()).
  uint64_t ArenaSlots() const { return arena_.slots(); }

  /// Repacks the accumulators in vertex order into fresh blocks with fresh
  /// slack, then frees the old blocks, dropping relocation garbage. Called
  /// automatically when garbage exceeds half the live volume; public for
  /// tests and memory-pressure callers.
  void Compact();

  /// Tolerance comparison against another sweep (typically a fresh Build):
  /// identical buckets and support everywhere, affinities equal within
  /// |a − b| ≤ atol + rtol · max(|a|, |b|). The debug cross-check the
  /// refiner runs per iteration.
  bool ApproxEquals(const AffinitySweep& other, double atol,
                    double rtol) const;

 private:
  /// Per-vertex accumulator location (same packing rationale as
  /// QueryNeighborData::Loc: one record per random access). data is null
  /// when cap is 0.
  struct Loc {
    AffinityEntry* data;
    uint32_t size;
    uint32_t cap;
  };
  static_assert(sizeof(Loc) == 16);

  /// Accumulator storage: uninitialized slots carved from blocks that are
  /// never resized, so a carve never moves a slot already handed out.
  class BlockArena {
   public:
    // Move-only (std::vector alone would still claim to be copyable).
    BlockArena() = default;
    BlockArena(BlockArena&&) = default;
    BlockArena& operator=(BlockArena&&) = default;

    /// n contiguous slots within one block (null for n = 0): the rest of
    /// the tail block, a fresh tail block, or, for n > kBlockEntries, a
    /// block of exactly n that leaves the tail block as it is.
    AffinityEntry* Carve(uint32_t n);

    /// Takes over other's blocks; later carves continue in its tail block.
    void Append(BlockArena&& other);

    /// Slots handed out by Carve.
    uint64_t slots() const { return slots_; }

   private:
    std::vector<std::unique_ptr<AffinityEntry[]>> blocks_;
    AffinityEntry* tail_ = nullptr;  ///< next free slot of the tail block
    uint32_t tail_free_ = 0;         ///< free slots left in the tail block
    uint64_t slots_ = 0;
  };

  /// Shard-local store for accumulators that outgrew their slack during a
  /// parallel ApplyDeltas (relocation carves from the shared tail block, so
  /// it runs serially afterwards).
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

  void MaybeCompact();

  BlockArena arena_;                    ///< accumulators + slack + garbage
  std::vector<Loc> loc_;                ///< per-vertex accumulator location
  std::vector<BucketWindow> windows_;   ///< per-vertex window, or empty
  uint64_t live_entries_ = 0;           ///< Σ_v loc_[v].size
  uint64_t garbage_ = 0;                ///< arena slots abandoned by relocation
  uint64_t last_build_adjacency_reads_ = 0;  ///< see accessor
  PatchScratch scratch_;
};

}  // namespace shp
