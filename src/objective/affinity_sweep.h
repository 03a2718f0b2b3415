// Affinity sweep: per-vertex sparse affinity accumulators for the
// superstep-2 gain scan, maintained by a full gather (Build) or by folding in
// the neighbor data's delta records (steady state).
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
// Unwindowed (direct k-way), Build gathers each vertex over its ascending
// DataNeighbors(v) into a per-thread dense k-wide scratch reset through a
// touched-bucket list (the QueryNeighborData::Build idiom). In steady state,
// ApplyDeltas consumes the (q, bucket, old, new) records that
// QueryNeighborData::ApplyCountDeltas emits (through ApplyMoves in the
// threaded Refiner, through the superstep-1 fold in the BSP engine), indexes
// them per query, and patches only the vertices adjacent to a changed query
// (a blast-radius byte mask, scanned once per call) — no rescan of untouched
// queries' adjacency. Each vertex applies its dirty queries' records in
// ascending q, either through the dense scratch (when its op count m
// satisfies 4·m ≥ |acc_v|) or by one streaming merge of its bucket-ordered
// ops into the sorted accumulator, while the next marked vertex's
// accumulator is prefetched. An optional PatchVisitor sees each patched
// vertex's final entries right after its patch, while they are cache-hot:
// both refinement engines compute the vertex's push proposal there instead
// of rescanning it later.
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
// one window per vertex — the sibling buckets of its subtree node, the only
// buckets its recursion level ever reads. A window names its r member
// buckets, and a windowed vertex's accumulator is r positional slots, one
// per member in ascending order; an unoccupied member's slot holds support 0
// and an affinity of exactly 0.0. A record folds by direct index (a
// bucket → slot table built once per Build): no search, no shifting, no
// overflow. A record whose bucket is not a member of the vertex's window is
// skipped. A support that drops to 0 resets the float to 0.0 and the next
// insert adds to that 0.0, the operations a packed list performs by erasing
// and re-inserting the entry, so the member slots hold the same floats as
// the unwindowed gather's entries for those buckets. Both windowed passes
// are one record-major fold: each shard visits queries in ascending q (all
// of them for Build, the dirty ones for ApplyDeltas) and folds each query's
// member records — a Build entry of count n is the record 0 → n — into its
// neighbors in the shard's vertex range. Without windows (the threaded
// engine's direct k-way refinement) every occupied bucket is kept, packed.
//
// Both engines read each query's neighbor data from the same store, a
// QueryNeighborData, so there is one Build. The BSP engine
// (engine/shp_bsp.h) keeps one sweep for all its simulated data workers,
// each vertex's accumulator the state of its owner, and charges
// each worker the adds (entry supports) and folded records (the visitor's
// count) of its own vertices. A vertex in a bucket its recursion level does
// not refine gets no window: no entries, no arena slots.
//
// The integer support count makes entry lifetime exact: an accumulator entry
// is live iff some adjacent query occupies the bucket (unwindowed, only live
// entries are stored), and a support that reaches 0 resets the float to
// exactly 0, so cancellation drift never fabricates phantom affinity.
//
// Storage is a block arena. Each vertex's accumulator, with its slack, is a
// run of slots carved from a fixed-size block; one wider than a block gets a
// block of its own size. Blocks are never resized or reallocated, so placing
// an accumulator never moves another one. Build carves every vertex straight
// from its shard's own blocks, and the sweep then takes those blocks over:
// nothing is staged or copied. An accumulator that outgrows its slack is
// relocated to fresh slots in the tail block, leaving its old ones as
// garbage (unwindowed only: r positional slots never grow), and epoch
// compaction repacks the live accumulators into fresh blocks. Neither Build
// nor a relocation therefore holds a second copy of the accumulators.
// (QueryNeighborData keeps one flat arena with tail regrowth; its lists are
// a few MB even at k=512.)
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

/// The windows of a windowed sweep. Each window names its member buckets,
/// ascending — a recursion group's children, MoveTopology::group_children —
/// and no bucket is a member of two windows. Each vertex has one window, or
/// none (kNone: no slots, no entries).
struct BucketWindows {
  static constexpr int32_t kNone = -1;

  std::vector<std::vector<BucketId>> members;  ///< per window, ascending
  std::vector<int32_t> of;                     ///< per vertex: window or kNone

  /// No windows: the sweep keeps every occupied bucket.
  bool empty() const { return of.empty(); }

  bool operator==(const BucketWindows&) const = default;
};

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

  /// Full pass. Unwindowed, each vertex sums 1 − B^{n_b(q)} over its
  /// ascending DataNeighbors(v) into a per-thread dense k-wide scratch,
  /// O(Σ_q deg(q) · fanout(q)). Windowed, each shard folds every query's
  /// entries, in ascending q, as records 0 → n straight from the neighbor
  /// data into the positional slots of the query's neighbors in the shard's
  /// range — one slot lookup per entry, one membership test per (neighbor,
  /// entry): O(shards · Σ_q log deg(q) + Σ_q deg(q) · fanout(q)). Vertices
  /// are split into Σ-degree-weighted contiguous ranges, one per worker.
  ///
  /// `windows`, if non-empty, gives each vertex its window: v keeps one
  /// slot per member bucket of windows.of[v], none without a window, and
  /// the sweep stores the windows for ApplyDeltas. Empty keeps every
  /// occupied bucket.
  ///
  /// Each query's bucket-sorted neighbor data comes from the one
  /// QueryNeighborData store both engines keep. Returns the accumulator adds
  /// performed — one per (query, member bucket) entry gathered into a
  /// vertex. Each add raises one entry's support by 1, so this equals
  /// Σ_v Σ_e support over the built entries.
  uint64_t Build(const BipartiteGraph& graph, const QueryNeighborData& ndata,
                 const PowTable& pow, ThreadPool* pool = nullptr,
                 BucketWindows windows = {});

  /// Steady-state patch: folds neighbor-data delta records into the affected
  /// accumulators. Records are grouped per query, each query's kept in
  /// emission order, and every (v, bucket) slot receives them in the
  /// canonical (q, bucket) order with chains in emission order. Returns at
  /// once when there are no records. Otherwise a call costs O(n) for the
  /// serial degree prefix and one per-vertex mask scan (n/shards entries
  /// per worker) and O(R) to group the records, plus:
  ///
  /// - unwindowed: O(shards · Σ_dirty q log deg(q)) to mark the blast
  ///   radius and O(Σ_marked v (deg(v) + |acc_v| + m_v log m_v)) to patch —
  ///   a vertex with m_v ops is folded through the dense scratch (4·m_v ≥
  ///   |acc_v|) or by one streaming merge of its bucket-sorted ops into the
  ///   accumulator, while the next marked vertex's accumulator is
  ///   prefetched, so a patch streams each accumulator once, the way the
  ///   engines' visitor reads it anyway;
  /// - windowed: O(|Q|/64) to list the dirty queries ascending, then one
  ///   record-major fold, O(shards · Σ_dirty q log deg(q) + Σ_dirty q
  ///   deg(q) · R_q): each shard walks every dirty query's run once, in
  ///   emission order, and folds each record by index into the slot of
  ///   every neighbor in its range whose window has the record's bucket as
  ///   a member.
  ///
  /// Beyond the byte-cheap O(n) passes, the cost follows the move blast
  /// radius. `pow` must match Build's.
  ///
  /// A windowed sweep folds a record into v only when the record's bucket
  /// is a member of v's window. If `patched` is non-null it receives,
  /// ascending, the vertices that received at least one record — member
  /// ones, for a windowed sweep. Returns the records folded into accumulators, counted
  /// once per receiving vertex.
  ///
  /// `on_patched`, if set, runs exactly once for each vertex in that patched
  /// set (and never for an empty delta batch) while its accumulator is
  /// still cache-hot: unwindowed, right after the vertex's patch; windowed,
  /// in ascending order over the shard's range once its fold is done. The
  /// engines compute the vertex's push proposal there instead of rescanning
  /// the accumulator later. It receives v's final entries — in place, or
  /// (unwindowed) the shard-local copy of an accumulator that outgrew its
  /// slack, before the serial relocation, so they equal Entries(v) after
  /// the call — and
  /// the records folded into v, which sum over the calls to the return
  /// value. Calls for distinct vertices run concurrently on the pool's
  /// workers; the callable must not read another vertex's sweep state and
  /// should not allocate.
  uint64_t ApplyDeltas(const BipartiteGraph& graph,
                   std::span<const NeighborDelta> deltas, const PowTable& pow,
                   ThreadPool* pool = nullptr,
                   std::vector<VertexId>* patched = nullptr,
                   PatchVisitor on_patched = {});

  /// Accumulator entries of vertex v, sorted by bucket id ascending: its
  /// live entries unwindowed; windowed, one slot per member of its window,
  /// where an unoccupied member has support 0 and affinity 0.0.
  std::span<const AffinityEntry> Entries(VertexId v) const {
    return {loc_[v].data, loc_[v].size};
  }

  /// Entries of v with support > 0 (all of them, unwindowed). O(entries).
  uint32_t LiveEntries(VertexId v) const;

  /// affinity_v[b] (0 if no adjacent query occupies b). O(log entries).
  double AffinityFor(VertexId v, BucketId b) const;

  VertexId num_vertices() const { return static_cast<VertexId>(loc_.size()); }

  /// Total live (support > 0) accumulator entries Σ_v |occupied buckets of
  /// N(v)| (members of v's window, for a windowed sweep).
  uint64_t TotalEntries() const { return live_entries_; }

  /// The per-vertex windows of the last Build (empty when not windowed).
  const BucketWindows& windows() const { return windows_; }

  /// Adjacency neighbor reads performed by the most recent Build: Σ deg(v)
  /// over the vertices it gathered (those with a window), so
  /// graph.num_edges() when every vertex is refined — each pin is read once
  /// (the BSP bootstrap-cost gate of bench/refine_iteration.cc).
  uint64_t last_build_adjacency_reads() const {
    return last_build_adjacency_reads_;
  }

  /// Arena slots handed out to accumulators: live entries, slack and
  /// relocation garbage (≥ TotalEntries()). A windowed sweep holds exactly
  /// Σ_v r_v, the member counts of the vertices' windows, before and after
  /// every ApplyDeltas.
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

  /// An accumulator that outgrew its slack during a parallel pass
  /// (unwindowed patch), held in
  /// a shard-local buffer until the serial relocation (which carves from the
  /// shared tail block). `entries` holds its final entries; `abandoned` is
  /// the arena capacity it leaves behind as garbage.
  struct Overflow {
    VertexId v;
    uint32_t abandoned;
    std::vector<AffinityEntry> entries;
  };
  using ShardOverflow = std::vector<Overflow>;

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
    std::vector<uint32_t> folds;  ///< per-vertex records folded (windowed)
    std::vector<ShardOverflow> overflow;  ///< per shard (unwindowed)
    std::vector<int64_t> live_delta;
    std::vector<std::vector<VertexId>> patched;  ///< per-shard patched list
  };

  /// slot_of_ entry of a bucket that is no window's member.
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  /// Arena slots of an accumulator holding `size` entries at Compact: size
  /// + kSlackPad unwindowed; windowed, exactly its size (r positional slots
  /// never grow).
  uint32_t CapacityOf(uint32_t size) const;

  /// The record-major fold of one shard's vertex range [vbegin, vend): for
  /// each query of `queries`, ascending, folds the records of `run_of(q)`
  /// whose bucket is a member of a neighbor's window, in run order — so
  /// each (q, bucket) chain keeps its order — into that neighbor's
  /// positional slot, for every neighbor in the range. Bucket b's slot is
  /// i = slot_of_[b], and b is a member of v's window iff i < r_v and v's
  /// slot i holds b (no bucket is a member of two windows). `op_of(record)`
  /// gives a member record's PatchOp. Adds each neighbor's folded records to
  /// (*folds)[v] when `folds` is non-null and returns their sum; adds the
  /// change in live entries to *live_delta.
  template <typename Queries, typename RunOf, typename OpOf>
  uint64_t FoldShard(const BipartiteGraph& graph, VertexId vbegin,
                     VertexId vend, const Queries& queries,
                     const RunOf& run_of, const OpOf& op_of,
                     std::vector<uint32_t>* folds, int64_t* live_delta);

  /// Serially relocates the shards' overflowed accumulators to fresh slots
  /// in the tail block; no other accumulator moves.
  void RelocateOverflow(size_t shards);

  void MaybeCompact();

  BlockArena arena_;                    ///< accumulators + slack + garbage
  std::vector<Loc> loc_;                ///< per-vertex accumulator location
  BucketWindows windows_;               ///< per-vertex window, or empty
  /// Per bucket, its slot within the window it is a member of (kNoSlot for
  /// none); windowed sweeps only.
  std::vector<uint32_t> slot_of_;
  uint64_t live_entries_ = 0;           ///< entries with support > 0
  uint64_t garbage_ = 0;                ///< arena slots abandoned by relocation
  uint64_t last_build_adjacency_reads_ = 0;  ///< see accessor
  /// Data-degree prefix sums (n + 1) of the graph the last Build saw: the
  /// Σ-degree shard bounds of that Build and of every ApplyDeltas after it
  /// (the graph does not change between them).
  std::vector<uint64_t> deg_prefix_;
  PatchScratch scratch_;
};

}  // namespace shp
