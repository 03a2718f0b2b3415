#include "objective/affinity_sweep.h"

#include <algorithm>
#include <cmath>
#include <deque>

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

void AffinitySweep::Build(const BipartiteGraph& graph,
                          const QueryNeighborData& ndata, const PowTable& pow,
                          ThreadPool* pool,
                          std::vector<BucketWindow> windows) {
  const VertexId n = graph.num_data();
  if (pool == nullptr) pool = &GlobalThreadPool();
  SHP_CHECK(windows.empty() || windows.size() == n);
  windows_ = std::move(windows);
  const bool windowed = !windows_.empty();
  loc_.assign(n, Loc{});
  garbage_ = 0;
  live_entries_ = 0;
  if (n == 0) {
    entries_.clear();
    return;
  }

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, n);
  // Shard boundaries weighted by Σ-degree, not vertex count: a vertex's
  // gather cost is proportional to its degree, and power-law hubs make
  // uniform ranges straggle.
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);

  // Vertex-major gather: each vertex walks its ascending DataNeighbors(v),
  // so every (v, bucket) slot sums its contributions in ascending q — the
  // same order a query-major scatter delivers them in. Entries go to a
  // shard-local buffer in vertex order (a deque: it grows block by block,
  // never holding a doubled copy), sizes straight into loc_. A windowed
  // vertex reads only the in-window stretch of each query's bucket-sorted
  // list, so its slots see the same adds in the same order as unwindowed.
  std::vector<std::deque<AffinityEntry>> gathered(shards);
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    // Per-worker scratch on the worker's own stack: no false sharing.
    DenseAccumulator acc;
    std::vector<AffinityEntry> staged;  // one vertex's drained entries
    for (size_t s = sbegin; s < send; ++s) {
      const VertexId vbegin = DegShardBegin(scratch_.deg_prefix, n, shards, s);
      const VertexId vend =
          DegShardBegin(scratch_.deg_prefix, n, shards, s + 1);
      std::deque<AffinityEntry> out;  // local until done: no false sharing
      for (VertexId v = vbegin; v < vend; ++v) {
        if (windowed && windows_[v].first >= windows_[v].second) continue;
        for (const VertexId q : graph.DataNeighbors(v)) {
          const auto entries = windowed
                                   ? InWindow(ndata.Entries(q), windows_[v])
                                   : ndata.Entries(q);
          if (entries.empty()) continue;
          acc.Reserve(entries.back().bucket);
          for (const BucketCount& e : entries) {
            acc.Add(e.bucket, 1.0 - pow.Pow(e.count));
          }
        }
        loc_[v].size = acc.live();
        staged.resize(acc.live());
        acc.Drain(staged.data());
        out.insert(out.end(), staged.begin(), staged.end());
      }
      gathered[s] = std::move(out);
    }
  });

  LayoutFromSizes();
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    for (size_t s = sbegin; s < send; ++s) {
      auto in = gathered[s].cbegin();
      const VertexId vend =
          DegShardBegin(scratch_.deg_prefix, n, shards, s + 1);
      for (VertexId v = DegShardBegin(scratch_.deg_prefix, n, shards, s);
           v < vend; ++v) {
        const auto next = in + loc_[v].size;
        std::copy(in, next,
                  entries_.begin() + static_cast<ptrdiff_t>(loc_[v].begin));
        in = next;
      }
    }
  });
}

void AffinitySweep::LayoutFromSizes() {
  // Per-vertex slack after every accumulator; the arena is sized once.
  uint64_t cursor = 0;
  for (Loc& loc : loc_) {
    loc.begin = cursor;
    loc.cap = loc.size + kSlackPad;
    cursor += loc.cap;
    live_entries_ += loc.size;
  }
  entries_.assign(cursor, AffinityEntry{});
}

std::vector<uint64_t> AffinitySweep::BuildSharded(
    const BipartiteGraph& graph, const EntriesFn& entries_of,
    const PowTable& pow, const std::vector<int32_t>& owner_of, int num_shards,
    ThreadPool* pool) {
  const VertexId n = graph.num_data();
  const VertexId nq = graph.num_queries();
  if (pool == nullptr) pool = &GlobalThreadPool();
  SHP_CHECK_GT(num_shards, 0);
  SHP_CHECK_EQ(owner_of.size(), static_cast<size_t>(n));
  windows_.clear();
  loc_.assign(n, Loc{});
  garbage_ = 0;
  live_entries_ = 0;
  std::vector<uint64_t> work(static_cast<size_t>(num_shards), 0);
  if (n == 0) {
    entries_.clear();
    return work;
  }

  // One-pass bootstrap. Pass 1 bins the adjacency by owner shard: host
  // workers take contiguous ascending query ranges and append, per
  // (host range, shard) bin, a (q, neighbor count) head plus the owned
  // neighbors themselves. Every (query, pin) is read exactly once — the old
  // layout streamed the full adjacency once PER shard (W × |E| reads per
  // re-bootstrap).
  const size_t host = std::max<size_t>(1, pool->num_threads());
  const size_t ranges = std::min<size_t>(host, std::max<VertexId>(nq, 1));
  struct OwnerBin {
    std::vector<std::pair<VertexId, uint32_t>> heads;  ///< (q, #owned nbrs)
    std::vector<VertexId> verts;  ///< owned neighbors, grouped per head
  };
  std::vector<OwnerBin> bins(ranges * static_cast<size_t>(num_shards));
  std::vector<uint64_t> reads(ranges, 0);
  pool->ParallelFor(ranges, [&](size_t hbegin, size_t hend, size_t) {
    for (size_t h = hbegin; h < hend; ++h) {
      const VertexId qbegin =
          ShardBegin(nq, ranges, h);  // query ranges ascend with h
      const VertexId qend = ShardBegin(nq, ranges, h + 1);
      OwnerBin* row = bins.data() + h * static_cast<size_t>(num_shards);
      uint64_t scanned = 0;
      for (VertexId q = qbegin; q < qend; ++q) {
        for (VertexId v : graph.QueryNeighbors(q)) {
          ++scanned;
          SHP_DCHECK(owner_of[v] >= 0 && owner_of[v] < num_shards);
          OwnerBin& bin = row[static_cast<size_t>(owner_of[v])];
          if (bin.heads.empty() || bin.heads.back().first != q) {
            bin.heads.emplace_back(q, 0);
          }
          ++bin.heads.back().second;
          bin.verts.push_back(v);
        }
      }
      reads[h] = scanned;
    }
  });
  last_build_adjacency_reads_ = 0;
  for (const uint64_t r : reads) last_build_adjacency_reads_ += r;

  // Pass 2: each shard walks its bins in host-range order — query ids ascend
  // globally across ranges, so every vertex's contributions still arrive in
  // ascending query order and the accumulator floats are identical to the
  // old layout for any shard count. Single-writer per vertex (disjoint
  // ownership). Only the merges are charged as work, matching the old
  // accounting (the binning pass, like the old redundant per-shard rescan,
  // is a shared-memory-simulation artifact a real worker never pays).
  std::vector<std::vector<AffinityEntry>> lists(n);
  pool->ParallelForEach(static_cast<size_t>(num_shards), [&](size_t s) {
    std::vector<std::pair<BucketId, double>> contrib;
    uint64_t merged = 0;
    for (size_t h = 0; h < ranges; ++h) {
      const OwnerBin& bin = bins[h * static_cast<size_t>(num_shards) + s];
      size_t vi = 0;
      for (const auto& [q, count] : bin.heads) {
        // One contribution per occupied bucket, computed once per query and
        // shared by every owned neighbor.
        contrib.clear();
        for (const BucketCount& e : entries_of(q)) {
          contrib.emplace_back(e.bucket, 1.0 - pow.Pow(e.count));
        }
        for (uint32_t c = 0; c < count; ++c, ++vi) {
          std::vector<AffinityEntry>& list = lists[bin.verts[vi]];
          // Both sides are bucket-ascending: single forward merge.
          size_t i = 0;
          for (const auto& [bucket, add] : contrib) {
            while (i < list.size() && list[i].bucket < bucket) ++i;
            if (i < list.size() && list[i].bucket == bucket) {
              list[i].support += 1;
              list[i].affinity += add;
            } else {
              list.insert(list.begin() + i, {bucket, 1, add});
            }
            ++i;
          }
          merged += contrib.size();
        }
      }
      SHP_DCHECK(vi == bin.verts.size());
    }
    work[s] = merged;
  });

  for (VertexId v = 0; v < n; ++v) {
    loc_[v].size = static_cast<uint32_t>(lists[v].size());
  }
  LayoutFromSizes();
  pool->ParallelFor(n, [&](size_t begin, size_t end, size_t) {
    for (size_t v = begin; v < end; ++v) {
      std::copy(lists[v].begin(), lists[v].end(),
                entries_.begin() + static_cast<ptrdiff_t>(loc_[v].begin));
    }
  });
  return work;
}

double AffinitySweep::AffinityFor(VertexId v, BucketId b) const {
  const auto entries = Entries(v);
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != entries.end() && it->bucket == b) return it->affinity;
  return 0.0;
}

// Defined ahead of its callers and inline: it is the per-op kernel of both
// the sparse threaded patch and the BSP patch.
inline bool AffinitySweep::PatchInPlace(VertexId v, BucketId bucket,
                                        double add, int32_t sup,
                                        int64_t* live_delta) {
  Loc& loc = loc_[v];
  AffinityEntry* base = entries_.data() + loc.begin;
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

void AffinitySweep::ApplyDeltas(const BipartiteGraph& graph,
                                std::span<const NeighborDelta> deltas,
                                const PowTable& pow, ThreadPool* pool,
                                std::vector<VertexId>* patched) {
  if (patched != nullptr) patched->clear();
  if (deltas.empty()) return;
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId n = num_vertices();
  if (n == 0) return;
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
    overflow[s].lists.clear();
    overflow[s].index.clear();
    shard_patched[s].clear();
  }

  // Vertex-major patch. Each shard marks the blast radius inside its own
  // vertex range, then walks the marked vertices in ascending order; a
  // vertex applies the records of its dirty queries in ascending q (its
  // DataNeighbors order), each query's in emission order. A (v, bucket)
  // slot sees only its own bucket's records, so it receives the same adds
  // in the same order as a record-major pass in canonical (q, bucket)
  // order, with each chain in emission order — the order is fixed by the
  // records alone, not by how ApplyMoves sharded its emission across
  // threads. Growth beyond the slack goes to a shard-local overflow store
  // merged serially below.
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
            acc.Drain(entries_.data() + loc.begin);
          } else {
            std::vector<AffinityEntry> vec(acc.live());
            acc.Drain(vec.data());
            ovf.lists.emplace_back(v, std::move(vec));
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
        if (spilled) ovf.lists.emplace_back(v, std::move(spill));
      }
      live_delta[s] = delta;
    }
  });

  for (const VertexId q : dirty) {
    query_records[q] = {0, 0};
    dirty_bits[q / 64] = 0;
  }
  if (patched != nullptr) {
    for (size_t s = 0; s < shards; ++s) {
      patched->insert(patched->end(), shard_patched[s].begin(),
                      shard_patched[s].end());
    }
  }
  MergeOverflow(shards);
}

void AffinitySweep::PatchEntry(VertexId v, BucketId bucket, double add,
                               int32_t sup, ShardOverflow* ovf,
                               int64_t* live_delta) {
  if (!ovf->index.empty()) {
    const auto oit = ovf->index.find(v);
    if (oit != ovf->index.end()) {
      ApplyToVec(&ovf->lists[oit->second].second, bucket, add, sup,
                 live_delta);
      return;
    }
  }
  if (PatchInPlace(v, bucket, add, sup, live_delta)) return;
  // Outgrew the slack: move to overflow with the insert applied.
  const auto entries = Entries(v);
  std::vector<AffinityEntry> vec;
  vec.reserve(entries.size() + 2);
  vec.assign(entries.begin(), entries.end());
  ApplyToVec(&vec, bucket, add, sup, live_delta);
  ovf->index.emplace(v, ovf->lists.size());
  ovf->lists.emplace_back(v, std::move(vec));
}

void AffinitySweep::MergeOverflow(size_t count) {
  // Relocate overflowed accumulators to the arena tail (serial — the arena
  // may reallocate) and fold the per-shard accounting.
  int64_t total_delta = 0;
  for (size_t s = 0; s < count; ++s) {
    total_delta += scratch_.live_delta[s];
    for (auto& [v, vec] : scratch_.overflow[s].lists) {
      const uint32_t sz = static_cast<uint32_t>(vec.size());
      const uint32_t new_cap = sz + std::max(kSlackPad, sz / 2);
      const uint64_t new_begin = entries_.size();
      entries_.resize(new_begin + new_cap);
      std::copy(vec.begin(), vec.end(),
                entries_.begin() + static_cast<ptrdiff_t>(new_begin));
      Loc& loc = loc_[v];
      garbage_ += loc.cap;
      loc.begin = new_begin;
      loc.cap = new_cap;
      loc.size = sz;
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);
  MaybeCompact();
}

std::vector<uint64_t> AffinitySweep::ApplyDeltasSharded(
    const BipartiteGraph& graph,
    const std::vector<std::span<const NeighborDelta>>& records,
    const PowTable& pow, const std::vector<int32_t>& owner_of,
    ThreadPool* pool) {
  std::vector<uint64_t> work(records.size(), 0);
  const VertexId n = num_vertices();
  if (n == 0 || records.empty()) return work;
  if (pool == nullptr) pool = &GlobalThreadPool();
  SHP_CHECK_EQ(owner_of.size(), static_cast<size_t>(n));

  // Host sub-sharding weights: Σ deg(q) over each worker's records is that
  // inbox's patch cost, so a hub-query-heavy inbox gets proportionally more
  // vertex-range subtasks instead of serializing the phase on one thread.
  // Per-record scan cost is charged once per worker (the sub-task rescans
  // are host parallelization, not simulated work).
  std::vector<uint64_t> weight(records.size(), 0);
  uint64_t total_weight = 0;
  for (size_t s = 0; s < records.size(); ++s) {
    for (const NeighborDelta& rec : records[s]) {
      weight[s] += graph.QueryDegree(rec.q);
    }
    total_weight += weight[s];
    work[s] = records[s].size();
  }
  if (total_weight == 0) return work;

  struct Task {
    int32_t shard;
    VertexId vbegin;
    VertexId vend;
  };
  const uint64_t host = std::max<uint64_t>(1, pool->num_threads());
  // Sub-task vertex ranges are Σ-degree-weighted like the threaded patch
  // shards: one prefix pass serves every split count.
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);
  std::vector<Task> tasks;
  for (size_t s = 0; s < records.size(); ++s) {
    if (weight[s] == 0) continue;
    const uint64_t splits = std::min<uint64_t>(
        host, 1 + weight[s] * host / total_weight);
    for (uint64_t t = 0; t < splits; ++t) {
      tasks.push_back({static_cast<int32_t>(s),
                       DegShardBegin(scratch_.deg_prefix, n,
                                     static_cast<size_t>(splits),
                                     static_cast<size_t>(t)),
                       DegShardBegin(scratch_.deg_prefix, n,
                                     static_cast<size_t>(splits),
                                     static_cast<size_t>(t) + 1)});
    }
  }

  std::vector<ShardOverflow>& overflow = scratch_.overflow;
  std::vector<int64_t>& live_delta = scratch_.live_delta;
  overflow.resize(std::max(overflow.size(), tasks.size()));
  live_delta.assign(std::max(live_delta.size(), tasks.size()), 0);
  for (size_t t = 0; t < tasks.size(); ++t) {
    overflow[t].lists.clear();
    overflow[t].index.clear();
  }
  std::vector<uint64_t> patched(tasks.size(), 0);

  // (worker shard, vertex range) tasks: a vertex belongs to one shard and
  // one range, so the arena stays single-writer per accumulator.
  pool->ParallelForEach(tasks.size(), [&](size_t t) {
    const Task& task = tasks[t];
    if (task.vbegin == task.vend) return;
    ShardOverflow& ovf = overflow[t];
    int64_t delta = 0;
    uint64_t ops = 0;
    for (const NeighborDelta& rec : records[static_cast<size_t>(task.shard)]) {
      const double add = pow.Pow(rec.old_count) - pow.Pow(rec.new_count);
      const int32_t sup = static_cast<int32_t>(rec.old_count == 0) -
                          static_cast<int32_t>(rec.new_count == 0);
      const auto nbrs = graph.QueryNeighbors(rec.q);
      const auto lo = std::lower_bound(nbrs.begin(), nbrs.end(), task.vbegin);
      if (lo == nbrs.end() || *lo >= task.vend) continue;
      const auto hi = std::lower_bound(lo, nbrs.end(), task.vend);
      for (auto it = lo; it != hi; ++it) {
        if (owner_of[*it] != task.shard) continue;
        PatchEntry(*it, rec.bucket, add, sup, &ovf, &delta);
        ++ops;
      }
    }
    live_delta[t] = delta;
    patched[t] = ops;
  });

  MergeOverflow(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    work[static_cast<size_t>(tasks[t].shard)] += patched[t];
  }
  return work;
}

void AffinitySweep::Compact() {
  const VertexId n = num_vertices();
  std::vector<AffinityEntry> fresh;
  fresh.reserve(live_entries_ + static_cast<uint64_t>(kSlackPad) * n);
  for (VertexId v = 0; v < n; ++v) {
    const auto span = Entries(v);
    Loc& loc = loc_[v];
    loc.begin = fresh.size();
    fresh.insert(fresh.end(), span.begin(), span.end());
    loc.cap = loc.size + kSlackPad;
    fresh.resize(fresh.size() + kSlackPad);
  }
  entries_ = std::move(fresh);
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
