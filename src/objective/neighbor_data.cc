#include "objective/neighbor_data.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace shp {

namespace {

/// Slack slots appended to every entry list at Build/Compact time so that
/// the common "move introduces one new bucket" splice stays in place.
constexpr uint32_t kSlackPad = 2;

/// Per-thread counting-sort scratch for Build: dense per-bucket counts plus
/// the touched-bucket list used to reset them in O(fanout).
struct BuildScratch {
  std::vector<uint32_t> counts;
  std::vector<BucketId> touched;

  void EnsureBuckets(size_t k) {
    if (counts.size() < k) counts.assign(k, 0);
  }
};

/// Applies (−1 at from, +1 at to) to an owned (overflowed) entry vector.
void ApplyDeltaToVec(VertexId q, std::vector<BucketCount>* vec, BucketId from,
                     BucketId to, int64_t* live_delta,
                     std::vector<NeighborDelta>* emitted) {
  auto lb = [&](BucketId b) {
    return std::lower_bound(
        vec->begin(), vec->end(), b,
        [](const BucketCount& e, BucketId bucket) { return e.bucket < bucket; });
  };
  auto it = lb(from);
  SHP_CHECK(it != vec->end() && it->bucket == from && it->count > 0)
      << "move source bucket absent from neighbor data";
  if (emitted != nullptr) emitted->push_back({q, from, it->count, it->count - 1});
  if (--it->count == 0) {
    vec->erase(it);
    --*live_delta;
  }
  it = lb(to);
  if (it != vec->end() && it->bucket == to) {
    if (emitted != nullptr) emitted->push_back({q, to, it->count, it->count + 1});
    ++it->count;
  } else {
    if (emitted != nullptr) emitted->push_back({q, to, 0, 1});
    vec->insert(it, {to, 1});
    ++*live_delta;
  }
}

}  // namespace

void QueryNeighborData::Build(const BipartiteGraph& graph,
                              const std::vector<BucketId>& assignment,
                              ThreadPool* pool) {
  SHP_CHECK_EQ(assignment.size(), graph.num_data());
  const VertexId num_queries = graph.num_queries();
  if (pool == nullptr) pool = &GlobalThreadPool();

  size_t k = 0;
  for (const BucketId b : assignment) {
    SHP_DCHECK(b >= 0);
    k = std::max(k, static_cast<size_t>(b) + 1);
  }

  loc_.assign(num_queries, Loc{});
  garbage_ = 0;

  std::vector<BuildScratch> scratch(std::max<size_t>(1, pool->num_threads()));

  // Pass 1: fanout per query via counting over a dense k-sized per-thread
  // scratch (reset through the touched list, so each query costs O(deg + f)).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t worker) {
    BuildScratch& s = scratch[worker];
    s.EnsureBuckets(k);
    for (size_t q = begin; q < end; ++q) {
      s.touched.clear();
      for (VertexId v : graph.QueryNeighbors(static_cast<VertexId>(q))) {
        const BucketId b = assignment[v];
        if (s.counts[static_cast<size_t>(b)]++ == 0) s.touched.push_back(b);
      }
      loc_[q].size = static_cast<uint32_t>(s.touched.size());
      for (const BucketId b : s.touched) s.counts[static_cast<size_t>(b)] = 0;
    }
  });

  // Offsets with per-query slack; live total for TotalEntries().
  uint64_t cursor = 0;
  live_entries_ = 0;
  for (VertexId q = 0; q < num_queries; ++q) {
    Loc& loc = loc_[q];
    loc.begin = cursor;
    loc.cap = loc.size + kSlackPad;
    cursor += loc.cap;
    live_entries_ += loc.size;
  }
  entries_.assign(cursor, BucketCount{});

  // Pass 2: recount and emit sorted run-length entries. Only the (small)
  // touched list is sorted — O(f log f) per query instead of O(deg log deg).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t worker) {
    BuildScratch& s = scratch[worker];
    s.EnsureBuckets(k);
    for (size_t q = begin; q < end; ++q) {
      s.touched.clear();
      for (VertexId v : graph.QueryNeighbors(static_cast<VertexId>(q))) {
        const BucketId b = assignment[v];
        if (s.counts[static_cast<size_t>(b)]++ == 0) s.touched.push_back(b);
      }
      std::sort(s.touched.begin(), s.touched.end());
      BucketCount* out = entries_.data() + loc_[q].begin;
      for (const BucketId b : s.touched) {
        *out++ = {b, s.counts[static_cast<size_t>(b)]};
        s.counts[static_cast<size_t>(b)] = 0;
      }
      SHP_DCHECK(out == entries_.data() + loc_[q].begin + loc_[q].size);
    }
  });
}

QueryNeighborData::DeltaResult QueryNeighborData::ApplyDeltaInPlace(
    VertexId q, BucketId from, BucketId to, int64_t* live_delta,
    std::vector<NeighborDelta>* emitted) {
  Loc& loc = loc_[q];
  BucketCount* base = entries_.data() + loc.begin;
  uint32_t n = loc.size;
  auto lb = [&](BucketId b) {
    return std::lower_bound(
        base, base + n, b,
        [](const BucketCount& e, BucketId bucket) { return e.bucket < bucket; });
  };

  BucketCount* it = lb(from);
  SHP_CHECK(it != base + n && it->bucket == from && it->count > 0)
      << "move source bucket absent from neighbor data";
  if (emitted != nullptr) emitted->push_back({q, from, it->count, it->count - 1});
  if (--it->count == 0) {
    std::copy(it + 1, base + n, it);
    loc.size = --n;
    --*live_delta;
  }

  it = lb(to);
  if (it != base + n && it->bucket == to) {
    if (emitted != nullptr) emitted->push_back({q, to, it->count, it->count + 1});
    ++it->count;
    return DeltaResult::kDone;
  }
  if (n == loc.cap) return DeltaResult::kNeedsGrowth;
  if (emitted != nullptr) emitted->push_back({q, to, 0, 1});
  std::copy_backward(it, base + n, base + n + 1);
  *it = {to, 1};
  loc.size = n + 1;
  ++*live_delta;
  return DeltaResult::kDone;
}

void QueryNeighborData::RelocateAndInsert(VertexId q, BucketId to) {
  Loc& loc = loc_[q];
  const uint32_t n = loc.size;
  // Geometric-ish growth bounded below by the standard pad so a repeatedly
  // growing list amortizes its relocations.
  const uint32_t new_cap = n + 1 + std::max(kSlackPad, n / 2);
  const uint64_t new_begin = entries_.size();
  entries_.resize(new_begin + new_cap);

  const BucketCount* old = entries_.data() + loc.begin;
  BucketCount* fresh = entries_.data() + new_begin;
  const BucketCount* insert_at =
      std::lower_bound(old, old + n, to,
                       [](const BucketCount& e, BucketId bucket) {
                         return e.bucket < bucket;
                       });
  BucketCount* out = std::copy(old, insert_at, fresh);
  *out++ = {to, 1};
  std::copy(insert_at, old + n, out);

  garbage_ += loc.cap;
  loc.begin = new_begin;
  loc.cap = new_cap;
  loc.size = n + 1;
  ++live_entries_;
}

void QueryNeighborData::ApplyMove(const BipartiteGraph& graph, VertexId v,
                                  BucketId from, BucketId to) {
  if (from == to) return;
  int64_t live_delta = 0;
  for (VertexId q : graph.DataNeighbors(v)) {
    if (ApplyDeltaInPlace(q, from, to, &live_delta) ==
        DeltaResult::kNeedsGrowth) {
      RelocateAndInsert(q, to);  // accounts its own +1
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + live_delta);
  MaybeCompact();
}

void QueryNeighborData::ApplyMoves(const BipartiteGraph& graph,
                                   std::span<const VertexMove> moves,
                                   ThreadPool* pool,
                                   std::vector<VertexId>* touched_queries,
                                   std::vector<NeighborDelta>* deltas) {
  if (moves.empty()) return;
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId nq = num_queries();
  if (nq == 0) return;

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, nq);
  // Over-decompose the query space so the apply pass can be balanced by the
  // *measured* delta volume instead of uniform id ranges: one hub query
  // adjacent to many moved pins otherwise serializes its whole shard.
  const size_t minis = std::min<size_t>(static_cast<size_t>(nq), shards * 8);
  const auto mini_of = [&](VertexId q) {
    return static_cast<size_t>(static_cast<uint64_t>(q) * minis / nq);
  };

  // Scatter: expand each move into per-adjacent-query deltas, binned by the
  // mini-shard that owns the query. buffers[w * minis + m] keeps worker-
  // local append-only vectors, so no synchronization is needed. All scratch
  // lives in the reusable member workspace (cleared, not reallocated, per
  // call).
  std::vector<std::vector<DeltaRec>>& buffers = scratch_.buffers;
  buffers.resize(std::max(buffers.size(), workers * minis));
  for (auto& b : buffers) b.clear();
  pool->ParallelFor(moves.size(), [&](size_t begin, size_t end, size_t w) {
    for (size_t i = begin; i < end; ++i) {
      const VertexMove& m = moves[i];
      SHP_DCHECK(m.from != m.to);
      for (VertexId q : graph.DataNeighbors(m.v)) {
        buffers[w * minis + mini_of(q)].push_back({q, m.from, m.to});
      }
    }
  });

  // Group contiguous mini-shards into per-worker apply ranges balanced by
  // their scattered delta counts (= Σ over dirty queries of their adjacent
  // moved pins — the Σ-deg-of-dirty-queries measure). Boundary g is the
  // first mini-shard whose weight prefix reaches g/shards of the total.
  std::vector<uint64_t>& mini_weight = scratch_.mini_weight;
  std::vector<size_t>& group_begin = scratch_.group_begin;
  mini_weight.assign(minis, 0);
  uint64_t total_weight = 0;
  for (size_t w = 0; w < workers; ++w) {
    for (size_t m = 0; m < minis; ++m) {
      mini_weight[m] += buffers[w * minis + m].size();
    }
  }
  for (size_t m = 0; m < minis; ++m) total_weight += mini_weight[m];
  group_begin.assign(shards + 1, minis);
  group_begin[0] = 0;
  {
    size_t g = 1;
    uint64_t prefix = 0;
    for (size_t m = 0; m < minis && g < shards; ++m) {
      while (g < shards && prefix * shards >= total_weight * g) {
        group_begin[g++] = m;
      }
      prefix += mini_weight[m];
    }
  }

  // Apply: each shard splices its own queries' entry lists in place. Lists
  // that outgrow their slack are moved to a shard-local overflow store (the
  // shared arena cannot be grown concurrently) and merged back below.
  std::vector<ShardOverflow>& overflow = scratch_.overflow;
  std::vector<int64_t>& live_delta = scratch_.live_delta;
  std::vector<std::vector<VertexId>>& touched = scratch_.touched;
  std::vector<std::vector<NeighborDelta>>& emitted = scratch_.emitted;
  overflow.resize(std::max(overflow.size(), shards));
  live_delta.assign(std::max(live_delta.size(), shards), 0);
  touched.resize(std::max(touched.size(), shards));
  emitted.resize(std::max(emitted.size(), shards));
  for (size_t s = 0; s < shards; ++s) {
    overflow[s].lists.clear();
    overflow[s].index.clear();
    touched[s].clear();
    emitted[s].clear();
  }
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    for (size_t s = sbegin; s < send; ++s) {
      ShardOverflow& ovf = overflow[s];
      int64_t delta = 0;
      std::vector<VertexId>& touched_local = touched[s];
      std::vector<NeighborDelta>* emit_local =
          deltas != nullptr ? &emitted[s] : nullptr;
      // Mini-shards drain in ascending order, and within one mini-shard the
      // per-worker buffers drain in worker order — a query's deltas (its
      // mini-shard is unique) still apply in executed-move order for any
      // thread count.
      for (size_t m = group_begin[s]; m < group_begin[s + 1]; ++m) {
        for (size_t w = 0; w < workers; ++w) {
          for (const DeltaRec& rec : buffers[w * minis + m]) {
            touched_local.push_back(rec.q);
            if (!ovf.index.empty()) {
              const auto it = ovf.index.find(rec.q);
              if (it != ovf.index.end()) {
                ApplyDeltaToVec(rec.q, &ovf.lists[it->second].second, rec.from,
                                rec.to, &delta, emit_local);
                continue;
              }
            }
            if (ApplyDeltaInPlace(rec.q, rec.from, rec.to, &delta, emit_local) ==
                DeltaResult::kNeedsGrowth) {
              // Move to overflow with the pending insert applied.
              const auto span = Entries(rec.q);
              std::vector<BucketCount> vec;
              vec.reserve(span.size() + 2);
              const auto insert_at = std::lower_bound(
                  span.begin(), span.end(), rec.to,
                  [](const BucketCount& e, BucketId bucket) {
                    return e.bucket < bucket;
                  });
              vec.insert(vec.end(), span.begin(), insert_at);
              vec.push_back({rec.to, 1});
              vec.insert(vec.end(), insert_at, span.end());
              if (emit_local != nullptr) emit_local->push_back({rec.q, rec.to, 0, 1});
              ++delta;
              ovf.index.emplace(rec.q, ovf.lists.size());
              ovf.lists.emplace_back(rec.q, std::move(vec));
            }
          }
        }
      }
      std::sort(touched_local.begin(), touched_local.end());
      touched_local.erase(
          std::unique(touched_local.begin(), touched_local.end()),
          touched_local.end());
      live_delta[s] = delta;
    }
  });

  // Merge: append overflowed lists to the arena tail (serial — the arena may
  // reallocate) and fold the per-shard accounting.
  int64_t total_delta = 0;
  for (size_t s = 0; s < shards; ++s) {
    total_delta += live_delta[s];
    for (auto& [q, vec] : overflow[s].lists) {
      const uint32_t n = static_cast<uint32_t>(vec.size());
      const uint32_t new_cap = n + std::max(kSlackPad, n / 2);
      const uint64_t new_begin = entries_.size();
      entries_.resize(new_begin + new_cap);
      std::copy(vec.begin(), vec.end(), entries_.begin() + new_begin);
      Loc& loc = loc_[q];
      garbage_ += loc.cap;
      loc.begin = new_begin;
      loc.cap = new_cap;
      loc.size = n;
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);

  if (touched_queries != nullptr) {
    for (size_t s = 0; s < shards; ++s) {
      touched_queries->insert(touched_queries->end(), touched[s].begin(),
                              touched[s].end());
    }
  }
  if (deltas != nullptr) {
    for (size_t s = 0; s < shards; ++s) {
      deltas->insert(deltas->end(), emitted[s].begin(), emitted[s].end());
    }
  }
  MaybeCompact();
}

void QueryNeighborData::Compact() {
  const VertexId nq = num_queries();
  std::vector<BucketCount> fresh;
  fresh.reserve(live_entries_ +
                static_cast<uint64_t>(kSlackPad) * nq);
  for (VertexId q = 0; q < nq; ++q) {
    const auto span = Entries(q);
    Loc& loc = loc_[q];
    loc.begin = fresh.size();
    fresh.insert(fresh.end(), span.begin(), span.end());
    loc.cap = loc.size + kSlackPad;
    fresh.resize(fresh.size() + kSlackPad);
  }
  entries_ = std::move(fresh);
  garbage_ = 0;
}

void QueryNeighborData::MaybeCompact() {
  // Relocation garbage (not the standing slack) is what compaction reclaims;
  // let it reach half the live volume before paying the O(arena) repack.
  if (garbage_ > live_entries_ / 2 + 1024) Compact();
}

bool QueryNeighborData::ContentEquals(const QueryNeighborData& other) const {
  if (num_queries() != other.num_queries()) return false;
  for (VertexId q = 0; q < num_queries(); ++q) {
    const auto a = Entries(q);
    const auto b = other.Entries(q);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace shp
