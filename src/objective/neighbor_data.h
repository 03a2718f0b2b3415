// Sparse per-query neighbor data: the multiset {n_i(q)} of how many of query
// q's data neighbors sit in each bucket i (paper §3.2, "neighbor data").
//
// Storage is sparse — one (bucket, count) entry per *occupied* bucket —
// giving total size Σ_q fanout(q) entries, exactly the message volume the
// paper's superstep-2 communication bound counts. A dense |Q|×k matrix would
// defeat the scalability analysis for large k.
//
// The structure is *incrementally maintained*: a full Build runs once per
// topology change, and the per-iteration refinement loop folds the executed
// move list in with ApplyMoves — O(Σ deg(moved) · fanout) instead of the
// O(|E| log maxdeg) rebuild. To make in-place splicing cheap, each query's
// entry list owns a small slack capacity inside one flat arena; a list that
// outgrows its slack is relocated to the arena tail, and the arena is
// compacted (epoch compaction) once relocation garbage plus slack exceed the
// live volume.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

/// Bucket label type. Buckets are dense ints 0..k-1 at every stage; -1 marks
/// "unassigned" in intermediate states.
using BucketId = int32_t;

struct BucketCount {
  BucketId bucket;
  uint32_t count;

  bool operator==(const BucketCount&) const = default;
};

/// n_b of a bucket-sorted entry list (0 if b is absent). O(log |entries|).
inline uint32_t CountIn(std::span<const BucketCount> entries, BucketId b) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const BucketCount& e, BucketId bucket) { return e.bucket < bucket; });
  return it != entries.end() && it->bucket == b ? it->count : 0;
}

/// One executed move: data vertex v relocated from bucket `from` to `to`.
/// The move broker reports the net executed moves of a round in this form
/// (post balance-repair), and QueryNeighborData::ApplyMoves consumes them.
struct VertexMove {
  VertexId v;
  BucketId from;
  BucketId to;

  bool operator==(const VertexMove&) const = default;
};

/// One observed bucket-count transition of a query during ApplyMoves:
/// n_bucket(q) went from old_count to new_count (new_count = old_count ± 1).
/// Records for the same (q, bucket) chain — a later record's old_count equals
/// the previous record's new_count. The emission order preserves each chain:
/// all of a query's records come from its owning shard, which drains the
/// per-worker scatter buffers in move-list order (the ParallelFor split is a
/// contiguous ascending range per worker), so a query's records appear in
/// executed-move order for *any* thread count. Consumers that fold records
/// into derived state (the affinity sweep) may interleave different queries'
/// records freely but must keep each (q, bucket) chain in emission order —
/// the occupancy transitions (old == 0 adds support, new == 0 removes it)
/// are only well-formed along the chain.
struct NeighborDelta {
  VertexId q;
  BucketId bucket;
  uint32_t old_count;
  uint32_t new_count;

  bool operator==(const NeighborDelta&) const = default;
};

class QueryNeighborData {
 public:
  QueryNeighborData() = default;

  /// Builds neighbor data for all queries under `assignment` (size
  /// graph.num_data(), entries in [0, k)). Runs on `pool` if given, else the
  /// global pool. Counting-sort over a per-thread dense bucket scratch:
  /// O(|E| + Σ_q fanout(q) log fanout(q)) work — no per-query std::sort over
  /// the full pin list.
  void Build(const BipartiteGraph& graph,
             const std::vector<BucketId>& assignment,
             ThreadPool* pool = nullptr);

  /// Entries of query q, sorted by bucket id ascending.
  std::span<const BucketCount> Entries(VertexId q) const {
    const Loc& loc = loc_[q];
    return {entries_.data() + loc.begin, entries_.data() + loc.begin +
                                             loc.size};
  }

  /// n_b(q): count of q's neighbors in bucket b (0 if none). O(log fanout).
  uint32_t CountFor(VertexId q, BucketId b) const {
    return CountIn(Entries(q), b);
  }

  /// fanout(q) = number of occupied buckets.
  uint32_t Fanout(VertexId q) const { return loc_[q].size; }

  VertexId num_queries() const { return static_cast<VertexId>(loc_.size()); }

  /// Total entries = Σ_q fanout(q); proxy for superstep-2 message volume.
  uint64_t TotalEntries() const { return live_entries_; }

  /// Applies a single move (v: from -> to) to all queries adjacent to v,
  /// splicing each affected entry list in place (relocating to the arena
  /// tail only when a list outgrows its slack). O(deg(v) · fanout).
  void ApplyMove(const BipartiteGraph& graph, VertexId v, BucketId from,
                 BucketId to);

  /// Applies a batch of executed moves in parallel: the query space is
  /// over-decomposed into contiguous mini-shards, per-query bucket-count
  /// deltas are scattered to their owning mini-shard, and mini-shards are
  /// then grouped into per-worker apply ranges *weighted by their scattered
  /// delta counts* (the Σ-deg-of-dirty-queries measure) — uniform ranges let
  /// one hub query serialize a whole shard. Each worker splices its queries'
  /// entry lists in place. O(Σ_v deg(v) · fanout) total work over the moved
  /// vertices —
  /// independent of |E|. If `touched_queries` is non-null, the ids of all
  /// queries whose entries changed are appended (each id once, ascending).
  /// If `deltas` is non-null, every bucket-count transition is appended as a
  /// NeighborDelta record (two per applied move × adjacent query) — the
  /// steady-state feed of the affinity sweep.
  void ApplyMoves(const BipartiteGraph& graph,
                  std::span<const VertexMove> moves, ThreadPool* pool = nullptr,
                  std::vector<VertexId>* touched_queries = nullptr,
                  std::vector<NeighborDelta>* deltas = nullptr);

  /// Repacks the arena in query order with fresh slack, dropping relocation
  /// garbage. Called automatically by ApplyMove/ApplyMoves when overhead
  /// exceeds the live volume; public for tests and memory-pressure callers.
  void Compact();

  /// True iff both structures hold the same logical content (identical entry
  /// spans for every query), regardless of arena layout.
  bool ContentEquals(const QueryNeighborData& other) const;

  /// Arena slots including slack and relocation garbage (≥ TotalEntries());
  /// memory-overhead diagnostic for tests and stats.
  uint64_t ArenaSlots() const { return entries_.size(); }

 private:
  /// Per-query entry-list location, packed into one 16-byte record so the
  /// random-access gain scan touches a single cache line per query instead
  /// of three parallel arrays.
  struct Loc {
    uint64_t begin;  ///< arena offset of q's entry list
    uint32_t size;   ///< live entries of q
    uint32_t cap;    ///< arena slots owned by q (≥ size)
  };

  /// One scattered bucket-count delta: query q loses a neighbor in `from`
  /// and gains one in `to`.
  struct DeltaRec {
    VertexId q;
    BucketId from;
    BucketId to;
  };

  /// Shard-local store for entry lists that outgrew their slack during a
  /// parallel ApplyMoves (the shared arena cannot be grown concurrently).
  struct ShardOverflow {
    std::vector<std::pair<VertexId, std::vector<BucketCount>>> lists;
    std::unordered_map<VertexId, size_t> index;
  };

  /// Reusable ApplyMoves scratch: scatter buffers (workers × shards,
  /// flattened), per-shard overflow/accounting/touched lists. Cleared, not
  /// reallocated, between calls — ApplyMoves runs once per refinement
  /// iteration and the buffer count scales with cores².
  struct ApplyScratch {
    std::vector<std::vector<DeltaRec>> buffers;
    std::vector<ShardOverflow> overflow;
    std::vector<int64_t> live_delta;
    std::vector<std::vector<VertexId>> touched;
    std::vector<std::vector<NeighborDelta>> emitted;
    std::vector<uint64_t> mini_weight;  ///< scattered deltas per mini-shard
    std::vector<size_t> group_begin;    ///< weighted mini-shard → worker map
  };

  /// Outcome of an in-place delta application attempt.
  enum class DeltaResult { kDone, kNeedsGrowth };

  /// Applies (−1 at `from`, +1 at `to`) to q's entry list, accumulating the
  /// entry-count change into *live_delta. The decrement always fits; if the
  /// increment must insert a new bucket and the list is at capacity, returns
  /// kNeedsGrowth with the decrement applied (and recorded in `emitted` if
  /// non-null) and the insert still pending — the caller must record the
  /// pending (to, 0, 1) transition itself after performing the insert.
  DeltaResult ApplyDeltaInPlace(VertexId q, BucketId from, BucketId to,
                                int64_t* live_delta,
                                std::vector<NeighborDelta>* emitted = nullptr);

  /// Serial growth path: relocates q's list to the arena tail with fresh
  /// slack and performs the pending insert of `to`.
  void RelocateAndInsert(VertexId q, BucketId to);

  void MaybeCompact();

  std::vector<BucketCount> entries_;  ///< flat arena (entry lists + slack)
  std::vector<Loc> loc_;              ///< per-query list location
  uint64_t live_entries_ = 0;         ///< Σ_q loc_[q].size
  uint64_t garbage_ = 0;              ///< arena slots abandoned by relocation
  ApplyScratch scratch_;              ///< reusable ApplyMoves workspace
};

}  // namespace shp
