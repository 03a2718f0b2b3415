#include "objective/affinity_sweep.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace shp {

namespace {

/// Slack slots appended to every accumulator at Build/Compact time so the
/// common "move occupies one new bucket" insert stays in place.
constexpr uint32_t kSlackPad = 2;

/// Contiguous vertex range owned by shard s of `shards` over n vertices.
inline VertexId ShardBegin(VertexId n, size_t shards, size_t s) {
  return static_cast<VertexId>(static_cast<uint64_t>(n) * s / shards);
}

/// Fills *prefix (n + 1 entries) with the data-degree prefix sum; returns
/// the total. One O(n) pass, shared by every split count of the call.
uint64_t FillDegreePrefix(const BipartiteGraph& graph, VertexId n,
                          std::vector<uint64_t>* prefix) {
  prefix->resize(static_cast<size_t>(n) + 1);
  uint64_t sum = 0;
  (*prefix)[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    sum += graph.DataDegree(v);
    (*prefix)[static_cast<size_t>(v) + 1] = sum;
  }
  return sum;
}

/// Σ-degree-weighted shard boundary: smallest v whose degree prefix reaches
/// total·s/shards (uniform split when the graph has no edges). The per-shard
/// sweep/patch cost is proportional to the Σ-degree of its vertex range, not
/// the vertex count — uniform ranges let a few hubs straggle the phase.
/// Compared as prefix·shards ≥ total·s in uint64 (no overflow at realistic
/// |E| × core counts, ≪ 2^64).
VertexId DegShardBegin(const std::vector<uint64_t>& prefix, VertexId n,
                       size_t shards, size_t s) {
  if (s >= shards) return n;
  const uint64_t total = prefix[static_cast<size_t>(n)];
  if (total == 0) return ShardBegin(n, shards, s);
  const uint64_t target = total * s;
  VertexId lo = 0;
  VertexId hi = n;
  while (lo < hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (prefix[static_cast<size_t>(mid)] * shards >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The stretch of a bucket-sorted list with bucket in `window` (two binary
/// searches).
template <typename Entry>  // BucketCount or AffinitySweep::PatchOp
std::span<const Entry> InWindow(std::span<const Entry> list,
                                BucketWindow window) {
  const auto cmp = [](const Entry& e, BucketId b) { return e.bucket < b; };
  const auto lo = std::lower_bound(list.begin(), list.end(), window.first, cmp);
  const auto hi = std::lower_bound(lo, list.end(), window.second, cmp);
  return {lo, hi};
}

/// Folds (support += sup, affinity += add, drop at support 0) into an owned
/// (overflowed) accumulator vector.
void ApplyToVec(std::vector<AffinityEntry>* vec, BucketId b, double add,
                int32_t sup, int64_t* live_delta) {
  auto it = std::lower_bound(
      vec->begin(), vec->end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != vec->end() && it->bucket == b) {
    it->affinity += add;
    SHP_DCHECK(sup >= 0 || it->support > 0);
    it->support = static_cast<uint32_t>(static_cast<int64_t>(it->support) + sup);
    if (it->support == 0) {
      vec->erase(it);
      --*live_delta;
    }
    return;
  }
  SHP_DCHECK(sup == 1) << "accumulator entry absent for a non-insert delta";
  vec->insert(it, {b, 1, add});
  ++*live_delta;
}

/// Per-thread dense k-wide accumulator for one vertex at a time: a slot per
/// bucket plus the touched-bucket list that resets it in O(touched) (the
/// QueryNeighborData::Build idiom). Each Add lands on its slot in call
/// order, so a slot's float is the same sum in the same order as the sparse
/// sorted-list kernel would produce; a support drop to 0 resets the float to
/// 0.0 exactly as erasing the sparse entry does.
class DenseAccumulator {
 public:
  /// Grows the slot array to cover bucket b (no-op in the common case).
  void Reserve(BucketId b) {
    if (static_cast<size_t>(b) >= slots_.size()) {
      slots_.resize(static_cast<size_t>(b) + 1, Slot{});
    }
  }

  /// Loads an existing bucket-sorted accumulator (slots must cover it).
  void Load(std::span<const AffinityEntry> entries) {
    for (const AffinityEntry& e : entries) {
      slots_[static_cast<size_t>(e.bucket)] = {e.affinity, e.support, 1};
      touched_.push_back(e.bucket);
    }
    sorted_prefix_ = touched_.size();
    live_ = static_cast<uint32_t>(entries.size());
  }

  /// Adds one adjacent query's contribution to bucket b (Build).
  void Add(BucketId b, double add) {
    Slot& s = slots_[static_cast<size_t>(b)];
    if (s.support++ == 0) {
      s.touched = 1;
      touched_.push_back(b);
      ++live_;
    }
    s.affinity += add;
  }

  /// Folds the ops from `op` up to `end` that share op->bucket (a stretch
  /// of one (q, bucket) chain) into its slot; returns the first op past it.
  /// The chain's adds run in order on a register copy of the slot — the
  /// same operations as folding each record into the slot in turn, without
  /// a store-to-load round trip between consecutive adds.
  template <typename Op>  // AffinitySweep::PatchOp
  const Op* FoldChain(const Op* op, const Op* end) {
    const BucketId b = op->bucket;
    Slot& s = slots_[static_cast<size_t>(b)];
    if (s.touched == 0) {
      s.touched = 1;
      touched_.push_back(b);
    }
    double affinity = s.affinity;
    uint32_t support = s.support;
    uint32_t live = live_;
    for (; op != end && op->bucket == b; ++op) {
      SHP_DCHECK(support > 0 || op->sup == 1)
          << "accumulator entry absent for a non-insert delta";
      if (support == 0) ++live;
      affinity += op->add;
      support = static_cast<uint32_t>(static_cast<int64_t>(support) + op->sup);
      if (support == 0) {
        affinity = 0.0;
        --live;
      }
    }
    s.affinity = affinity;
    s.support = support;
    live_ = live;
    return op;
  }

  /// Entries with support > 0 after the adds so far.
  uint32_t live() const { return live_; }

  /// Writes the live() entries bucket-ascending to `out` and resets the
  /// scratch. The loaded prefix of the touched list is already sorted; the
  /// buckets added since Load are either sorted and merged with it or, when
  /// they fill over a quarter of the slot array (a hub's Build gather),
  /// collected by one in-order scan of the slots instead of a sort — 20%
  /// off the k=512 Build (docs/refinement.md).
  void Drain(AffinityEntry* out) {
    const auto emit = [&](BucketId bucket) {
      Slot& s = slots_[static_cast<size_t>(bucket)];
      if (s.support > 0) *out++ = {bucket, s.support, s.affinity};
      s = Slot{};
    };
    const auto mid = touched_.begin() + static_cast<ptrdiff_t>(sorted_prefix_);
    if (4 * static_cast<size_t>(touched_.end() - mid) > slots_.size()) {
      for (size_t b = 0; b < slots_.size(); ++b) {
        if (slots_[b].touched != 0) emit(static_cast<BucketId>(b));
      }
    } else {
      std::sort(mid, touched_.end());
      auto a = touched_.begin();
      auto b = mid;
      while (a != mid || b != touched_.end()) {
        emit((b == touched_.end() || (a != mid && *a < *b)) ? *a++ : *b++);
      }
    }
    touched_.clear();
    sorted_prefix_ = 0;
    live_ = 0;
  }

 private:
  struct Slot {
    double affinity;
    uint32_t support;
    uint32_t touched;
  };

  std::vector<Slot> slots_;
  std::vector<BucketId> touched_;
  size_t sorted_prefix_ = 0;
  uint32_t live_ = 0;
};

}  // namespace

uint64_t AffinitySweep::Build(const BipartiteGraph& graph,
                              const QueryNeighborData& ndata,
                              const PowTable& pow, ThreadPool* pool,
                              std::vector<BucketWindow> windows) {
  return Gather(
      graph, [&ndata](VertexId q) { return ndata.Entries(q); }, pow, pool,
      std::move(windows));
}

uint64_t AffinitySweep::Build(
    const BipartiteGraph& graph,
    const std::vector<std::vector<BucketCount>>& query_lists,
    const PowTable& pow, ThreadPool* pool, std::vector<BucketWindow> windows) {
  return Gather(
      graph,
      [&query_lists](VertexId q) {
        return std::span<const BucketCount>(query_lists[q]);
      },
      pow, pool, std::move(windows));
}

template <typename EntriesOf>
uint64_t AffinitySweep::Gather(const BipartiteGraph& graph,
                               const EntriesOf& entries_of,
                               const PowTable& pow, ThreadPool* pool,
                               std::vector<BucketWindow> windows) {
  const VertexId n = graph.num_data();
  if (pool == nullptr) pool = &GlobalThreadPool();
  SHP_CHECK(windows.empty() || windows.size() == n);
  windows_ = std::move(windows);
  const bool windowed = !windows_.empty();
  // The previous accumulators go before the new ones are gathered.
  arena_ = BlockArena();
  loc_.assign(n, Loc{});
  garbage_ = 0;
  live_entries_ = 0;
  last_build_adjacency_reads_ = 0;
  if (n == 0) return 0;

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, n);
  // Shard boundaries weighted by Σ-degree, not vertex count: a vertex's
  // gather cost is proportional to its degree, and power-law hubs make
  // uniform ranges straggle.
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);

  // Vertex-major gather: each vertex walks its ascending DataNeighbors(v),
  // so every (v, bucket) slot sums its contributions in ascending q — the
  // same order a query-major scatter delivers them in. Each shard drains its
  // vertices straight into slots carved from its own blocks, and the sweep
  // then takes the blocks over, so no entry is staged or copied. A windowed
  // vertex reads only the in-window stretch of each query's bucket-sorted
  // list, so its slots see the same adds in the same order as unwindowed.
  std::vector<BlockArena> shard_arenas(shards);
  std::vector<uint64_t> adds(shards, 0);
  std::vector<uint64_t> reads(shards, 0);
  std::vector<uint64_t> live(shards, 0);
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    // Per-worker scratch on the worker's own stack: no false sharing.
    DenseAccumulator acc;
    for (size_t s = sbegin; s < send; ++s) {
      const VertexId vbegin = DegShardBegin(scratch_.deg_prefix, n, shards, s);
      const VertexId vend =
          DegShardBegin(scratch_.deg_prefix, n, shards, s + 1);
      BlockArena arena;  // local until done: no false sharing
      uint64_t shard_adds = 0;
      uint64_t shard_reads = 0;
      uint64_t shard_live = 0;
      for (VertexId v = vbegin; v < vend; ++v) {
        if (windowed && windows_[v].first >= windows_[v].second) continue;
        shard_reads += graph.DataDegree(v);
        for (const VertexId q : graph.DataNeighbors(v)) {
          const std::span<const BucketCount> entries =
              windowed ? InWindow(entries_of(q), windows_[v]) : entries_of(q);
          if (entries.empty()) continue;
          acc.Reserve(entries.back().bucket);
          for (const BucketCount& e : entries) {
            acc.Add(e.bucket, 1.0 - pow.Pow(e.count));
          }
          shard_adds += entries.size();
        }
        const uint32_t size = acc.live();
        const uint32_t cap = size + SlackOf(v);
        AffinityEntry* data = arena.Carve(cap);
        acc.Drain(data);
        loc_[v] = {data, size, cap};
        shard_live += size;
      }
      shard_arenas[s] = std::move(arena);
      adds[s] = shard_adds;
      reads[s] = shard_reads;
      live[s] = shard_live;
    }
  });

  uint64_t total_adds = 0;
  for (size_t s = 0; s < shards; ++s) {
    arena_.Append(std::move(shard_arenas[s]));
    total_adds += adds[s];
    last_build_adjacency_reads_ += reads[s];
    live_entries_ += live[s];
  }
  return total_adds;
}

uint32_t AffinitySweep::SlackOf(VertexId v) const {
  return windows_.empty() || windows_[v].first < windows_[v].second ? kSlackPad
                                                                    : 0;
}

AffinityEntry* AffinitySweep::BlockArena::Carve(uint32_t n) {
  if (n == 0) return nullptr;
  slots_ += n;
  if (n > kBlockEntries) {
    blocks_.push_back(std::make_unique_for_overwrite<AffinityEntry[]>(n));
    return blocks_.back().get();
  }
  if (n > tail_free_) {
    blocks_.push_back(
        std::make_unique_for_overwrite<AffinityEntry[]>(kBlockEntries));
    tail_ = blocks_.back().get();
    tail_free_ = kBlockEntries;
  }
  AffinityEntry* out = tail_;
  tail_ += n;
  tail_free_ -= n;
  return out;
}

void AffinitySweep::BlockArena::Append(BlockArena&& other) {
  blocks_.insert(blocks_.end(), std::make_move_iterator(other.blocks_.begin()),
                 std::make_move_iterator(other.blocks_.end()));
  slots_ += other.slots_;
  if (other.tail_ != nullptr) {
    tail_ = other.tail_;
    tail_free_ = other.tail_free_;
  }
  other = BlockArena();
}

double AffinitySweep::AffinityFor(VertexId v, BucketId b) const {
  const auto entries = Entries(v);
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != entries.end() && it->bucket == b) return it->affinity;
  return 0.0;
}

// Defined ahead of its caller and inline: it is the sparse patch kernel's
// per-op step.
inline bool AffinitySweep::PatchInPlace(VertexId v, BucketId bucket,
                                        double add, int32_t sup,
                                        int64_t* live_delta) {
  Loc& loc = loc_[v];
  AffinityEntry* base = loc.data;
  AffinityEntry* pos = std::lower_bound(
      base, base + loc.size, bucket,
      [](const AffinityEntry& e, BucketId b) { return e.bucket < b; });
  if (pos != base + loc.size && pos->bucket == bucket) {
    pos->affinity += add;
    SHP_DCHECK(sup >= 0 || pos->support > 0);
    pos->support =
        static_cast<uint32_t>(static_cast<int64_t>(pos->support) + sup);
    if (pos->support == 0) {
      // Dropping the entry resets the float to an exact 0 — no cancellation
      // drift survives an emptied bucket.
      std::copy(pos + 1, base + loc.size, pos);
      --loc.size;
      --*live_delta;
    }
    return true;
  }
  SHP_DCHECK(sup == 1) << "accumulator entry absent for a non-insert delta";
  if (loc.size == loc.cap) return false;
  std::copy_backward(pos, base + loc.size, base + loc.size + 1);
  *pos = {bucket, 1, add};
  ++loc.size;
  ++*live_delta;
  return true;
}

uint64_t AffinitySweep::ApplyDeltas(const BipartiteGraph& graph,
                                    std::span<const NeighborDelta> deltas,
                                    const PowTable& pow, ThreadPool* pool,
                                    std::vector<VertexId>* patched,
                                    PatchVisitor on_patched) {
  if (patched != nullptr) patched->clear();
  if (deltas.empty()) return 0;
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId n = num_vertices();
  if (n == 0) return 0;
  const bool windowed = !windows_.empty();

  // Per-query record index, by a counting scatter: count each query's
  // records, lay the runs out back to back, and scatter the records into
  // them in emission order — so each (q, bucket) chain keeps its order.
  // query_records[q] ends as q's run of patch ops, and dirty_bits flags the
  // queries that have one (an L1-sized filter for the adjacency walk). The
  // run layout carries no order: the walk below visits a vertex's queries
  // in ascending q.
  const VertexId nq = graph.num_queries();
  auto& query_records = scratch_.query_records;
  std::vector<uint64_t>& dirty_bits = scratch_.dirty_bits;
  std::vector<VertexId>& dirty = scratch_.dirty_queries;
  if (query_records.size() < nq) query_records.resize(nq, {0, 0});
  dirty_bits.resize((static_cast<size_t>(nq) + 63) / 64, 0);
  dirty.clear();
  for (const NeighborDelta& rec : deltas) {
    if (query_records[rec.q].second++ == 0) dirty.push_back(rec.q);
  }
  uint32_t cursor = 0;
  for (const VertexId q : dirty) {
    auto& run = query_records[q];
    run.first = cursor;
    cursor += run.second;
    run.second = run.first;  // fill cursor of the scatter below
    dirty_bits[q / 64] |= uint64_t{1} << (q % 64);
  }
  std::vector<PatchOp>& ops = scratch_.ops;
  ops.resize(deltas.size());
  BucketId max_bucket = 0;
  for (const NeighborDelta& rec : deltas) {
    ops[query_records[rec.q].second++] = {
        rec.bucket,
        static_cast<int32_t>(rec.old_count == 0) -
            static_cast<int32_t>(rec.new_count == 0),
        pow.Pow(rec.old_count) - pow.Pow(rec.new_count)};
    max_bucket = std::max(max_bucket, rec.bucket);
  }
  if (windowed) {
    // Bucket-sort each query's run, stably: each (q, bucket) chain keeps its
    // emission order, and a vertex's window becomes a contiguous stretch.
    for (const VertexId q : dirty) {
      const auto [first, last] = query_records[q];
      std::stable_sort(ops.begin() + first, ops.begin() + last,
                       [](const PatchOp& a, const PatchOp& b) {
                         return a.bucket < b.bucket;
                       });
    }
  }

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, n);
  // Σ-degree-weighted ranges: a range's patch cost is the degree mass of
  // its blast-radius vertices, for which the range's degree mass is the
  // stable proxy (uniform ranges straggle on hub-heavy shards).
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);
  std::vector<uint8_t>& blast = scratch_.blast;
  blast.resize(n, 0);
  std::vector<ShardOverflow>& overflow = scratch_.overflow;
  std::vector<int64_t>& live_delta = scratch_.live_delta;
  std::vector<std::vector<VertexId>>& shard_patched = scratch_.patched;
  overflow.resize(std::max(overflow.size(), shards));
  live_delta.assign(std::max(live_delta.size(), shards), 0);
  shard_patched.resize(std::max(shard_patched.size(), shards));
  for (size_t s = 0; s < shards; ++s) {
    overflow[s].clear();
    shard_patched[s].clear();
  }
  std::vector<uint64_t> folded(shards, 0);

  // Vertex-major patch. Each shard marks the blast radius inside its own
  // vertex range, then walks the marked vertices in ascending order; a
  // vertex applies the records of its dirty queries in ascending q (its
  // DataNeighbors order), each query's in emission order. A (v, bucket)
  // slot sees only its own bucket's records, so it receives the same adds
  // in the same order as a record-major pass in canonical (q, bucket)
  // order, with each chain in emission order — the order is fixed by the
  // records alone, not by how ApplyMoves sharded its emission across
  // threads. Growth beyond the slack goes to a shard-local overflow store
  // merged serially below. `on_patched` sees each vertex's final entries
  // right after its patch, in place or in the overflow copy.
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    // Per-worker scratch on the worker's own stack: no false sharing.
    DenseAccumulator acc;
    acc.Reserve(max_bucket);
    std::vector<std::pair<uint32_t, uint32_t>> runs;  // v's dirty-query runs
    for (size_t s = sbegin; s < send; ++s) {
      const VertexId vbegin = DegShardBegin(scratch_.deg_prefix, n, shards, s);
      const VertexId vend =
          DegShardBegin(scratch_.deg_prefix, n, shards, s + 1);
      if (vbegin == vend) continue;
      for (const VertexId q : dirty) {
        const auto nbrs = graph.QueryNeighbors(q);
        auto it = std::lower_bound(nbrs.begin(), nbrs.end(), vbegin);
        for (; it != nbrs.end() && *it < vend; ++it) blast[*it] = 1;
      }
      ShardOverflow& ovf = overflow[s];
      int64_t delta = 0;
      uint64_t shard_folded = 0;
      for (VertexId v = vbegin; v < vend; ++v) {
        if (blast[v] == 0) continue;
        blast[v] = 0;
        if (windowed && windows_[v].first >= windows_[v].second) continue;
        runs.clear();
        uint32_t m = 0;
        for (const VertexId q : graph.DataNeighbors(v)) {
          if (((dirty_bits[q / 64] >> (q % 64)) & 1) == 0) continue;
          auto run = query_records[q];
          if (windowed) {
            const auto in = InWindow(
                std::span<const PatchOp>(ops.data() + run.first,
                                         ops.data() + run.second),
                windows_[v]);
            if (in.empty()) continue;
            run = {static_cast<uint32_t>(in.data() - ops.data()),
                   static_cast<uint32_t>(in.data() + in.size() - ops.data())};
          }
          runs.push_back(run);
          m += run.second - run.first;
        }
        if (m == 0) continue;  // every record fell outside v's window
        shard_folded += m;
        if (patched != nullptr) shard_patched[s].push_back(v);
        Loc& loc = loc_[v];
        if (4 * static_cast<uint64_t>(m) >= loc.size) {
          // Dense kernel: load, fold, write back in one merge — O(|acc| +
          // m) instead of a binary search (and splice) per op.
          const auto entries = Entries(v);
          if (!entries.empty()) acc.Reserve(entries.back().bucket);
          acc.Load(entries);
          for (const auto& [first, last] : runs) {
            const PatchOp* end = ops.data() + last;
            for (const PatchOp* op = ops.data() + first; op != end;) {
              op = acc.FoldChain(op, end);
            }
          }
          delta += static_cast<int64_t>(acc.live()) - loc.size;
          if (acc.live() <= loc.cap) {
            loc.size = acc.live();
            acc.Drain(loc.data);
            if (on_patched) on_patched(v, Entries(v));
          } else {
            std::vector<AffinityEntry> vec(acc.live());
            acc.Drain(vec.data());
            if (on_patched) on_patched(v, vec);
            ovf.emplace_back(v, std::move(vec));
          }
          continue;
        }
        // Sparse kernel: few ops against a wide accumulator — binary-search
        // each op in place, spilling to an owned copy if an insert finds no
        // slack.
        std::vector<AffinityEntry> spill;
        bool spilled = false;
        for (const auto& [first, last] : runs) {
          for (uint32_t i = first; i < last; ++i) {
            const PatchOp& op = ops[i];
            if (!spilled) {
              if (PatchInPlace(v, op.bucket, op.add, op.sup, &delta)) continue;
              const auto entries = Entries(v);
              spill.assign(entries.begin(), entries.end());
              spilled = true;
            }
            ApplyToVec(&spill, op.bucket, op.add, op.sup, &delta);
          }
        }
        if (on_patched) {
          on_patched(v, spilled ? std::span<const AffinityEntry>(spill)
                                : Entries(v));
        }
        if (spilled) ovf.emplace_back(v, std::move(spill));
      }
      live_delta[s] = delta;
      folded[s] = shard_folded;
    }
  });

  for (const VertexId q : dirty) {
    query_records[q] = {0, 0};
    dirty_bits[q / 64] = 0;
  }
  // Serial merge: relocate overflowed accumulators to fresh slots in the
  // tail block (no other accumulator moves) and fold the per-shard
  // accounting.
  int64_t total_delta = 0;
  uint64_t total_folded = 0;
  for (size_t s = 0; s < shards; ++s) {
    if (patched != nullptr) {
      patched->insert(patched->end(), shard_patched[s].begin(),
                      shard_patched[s].end());
    }
    total_delta += live_delta[s];
    total_folded += folded[s];
    for (auto& [v, vec] : overflow[s]) {
      const uint32_t sz = static_cast<uint32_t>(vec.size());
      const uint32_t new_cap = sz + std::max(kSlackPad, sz / 2);
      AffinityEntry* data = arena_.Carve(new_cap);
      std::copy(vec.begin(), vec.end(), data);
      Loc& loc = loc_[v];
      garbage_ += loc.cap;
      loc = {data, sz, new_cap};
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);
  MaybeCompact();
  return total_folded;
}

void AffinitySweep::Compact() {
  BlockArena fresh;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    Loc& loc = loc_[v];
    const uint32_t cap = loc.size + SlackOf(v);
    AffinityEntry* data = fresh.Carve(cap);
    std::copy(loc.data, loc.data + loc.size, data);
    loc.data = data;
    loc.cap = cap;
  }
  arena_ = std::move(fresh);
  garbage_ = 0;
}

void AffinitySweep::MaybeCompact() {
  if (garbage_ > live_entries_ / 2 + 1024) Compact();
}

bool AffinitySweep::ApproxEquals(const AffinitySweep& other, double atol,
                                 double rtol) const {
  if (num_vertices() != other.num_vertices()) return false;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto a = Entries(v);
    const auto b = other.Entries(v);
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].bucket != b[i].bucket || a[i].support != b[i].support) {
        return false;
      }
      const double tol =
          atol + rtol * std::max(std::fabs(a[i].affinity),
                                 std::fabs(b[i].affinity));
      if (std::fabs(a[i].affinity - b[i].affinity) > tol) return false;
    }
  }
  return true;
}

}  // namespace shp
