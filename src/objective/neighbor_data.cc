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
/// the touched-bucket list used to reset them in O(fanout). Each worker
/// keeps its own on its stack: the vector headers of adjacent workers'
/// scratch in one array would share cache lines, and every per-query
/// touched.clear()/push_back writes one.
struct BuildScratch {
  explicit BuildScratch(size_t k) : counts(k, 0) {}

  std::vector<uint32_t> counts;
  std::vector<BucketId> touched;
};

/// Arena capacity to reserve for `slots` laid-out slots (Build, Compact): a
/// quarter more, so the relocations before the next compaction append in
/// place instead of reallocating the arena, which would briefly hold the old
/// and the new copy. Reserved slots take address space, not memory, until a
/// relocation writes them.
uint64_t ArenaCapacity(uint64_t slots) { return slots + slots / 4; }

/// Arena or overflow slots for a list of n entries that must grow: geometric-
/// ish, bounded below by the standard pad so a repeatedly growing list
/// amortizes its relocations.
uint32_t GrownCap(uint32_t n) { return n + std::max(kSlackPad, n / 2); }

/// Splices n_b += c.delta into the bucket-sorted list list[0, *size) held in
/// `cap` slots: updates the entry, erases it at zero, or inserts it. Sets
/// *old to n_b before the change. Returns false, changing nothing, when an
/// insert finds the list full.
bool SpliceCount(BucketCount* list, uint32_t* size, uint32_t cap,
                 const CountDelta& c, uint32_t* old) {
  BucketCount* const end = list + *size;
  BucketCount* it = std::lower_bound(
      list, end, c.bucket,
      [](const BucketCount& e, BucketId bucket) { return e.bucket < bucket; });
  const bool present = it != end && it->bucket == c.bucket;
  *old = present ? it->count : 0;
  const int64_t next = static_cast<int64_t>(*old) + c.delta;
  SHP_CHECK(next >= 0 && c.delta != 0)
      << "count change " << c.delta << " of bucket " << c.bucket
      << " invalid for neighbor data count " << *old;
  if (present) {
    if (next == 0) {
      std::copy(it + 1, end, it);
      --*size;
    } else {
      it->count = static_cast<uint32_t>(next);
    }
    return true;
  }
  if (*size == cap) return false;
  std::copy_backward(it, end, end + 1);
  *it = {c.bucket, static_cast<uint32_t>(next)};
  ++*size;
  return true;
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

  // Pass 1: fanout per query via counting over a dense k-sized per-thread
  // scratch (reset through the touched list, so each query costs O(deg + f)).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t) {
    BuildScratch s(k);
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
  entries_.clear();
  entries_.reserve(ArenaCapacity(cursor));
  entries_.resize(cursor);

  // Pass 2: recount and emit sorted run-length entries. Only the (small)
  // touched list is sorted — O(f log f) per query instead of O(deg log deg).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t) {
    BuildScratch s(k);
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

void QueryNeighborData::ApplyCountDeltas(
    std::span<const std::span<const CountDelta>> runs,
    std::span<const size_t> shard_begin, ThreadPool* pool,
    std::span<NeighborDelta> emitted) {
  SHP_CHECK(!shard_begin.empty() && shard_begin.back() == runs.size());
  if (pool == nullptr) pool = &GlobalThreadPool();
  const size_t shards = shard_begin.size() - 1;
  std::vector<ShardOverflow>& overflow = scratch_.overflow;
  std::vector<int64_t>& live_delta = scratch_.live_delta;
  std::vector<size_t>& emit_begin = scratch_.emit_begin;
  overflow.resize(std::max(overflow.size(), shards));
  live_delta.assign(shards, 0);
  emit_begin.assign(shards + 1, 0);
  for (size_t s = 0; s < shards; ++s) {
    emit_begin[s + 1] = emit_begin[s];
    for (size_t r = shard_begin[s]; r < shard_begin[s + 1]; ++r) {
      emit_begin[s + 1] += runs[r].size();
    }
  }
  SHP_CHECK(emitted.empty() || emitted.size() == emit_begin[shards]);

  // Splice: each shard applies its runs in order to its own queries' lists.
  // A list that outgrows its slack moves to the shard's overflow store (the
  // shared arena cannot be grown concurrently) and takes its later changes
  // there.
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    for (size_t s = sbegin; s < send; ++s) {
      ShardOverflow& ovf = overflow[s];
      ovf.lists.clear();
      ovf.index.clear();
      NeighborDelta* emit =
          emitted.empty() ? nullptr : emitted.data() + emit_begin[s];
      int64_t live = 0;
      for (size_t r = shard_begin[s]; r < shard_begin[s + 1]; ++r) {
        for (const CountDelta& c : runs[r]) {
          uint32_t old = 0;
          bool spliced = false;
          auto found = ovf.index.empty() ? ovf.index.end()
                                         : ovf.index.find(c.q);
          if (found == ovf.index.end()) {
            Loc& loc = loc_[c.q];
            const uint32_t before = loc.size;
            spliced = SpliceCount(entries_.data() + loc.begin, &loc.size,
                                  loc.cap, c, &old);
            live += static_cast<int64_t>(loc.size) - before;
            if (!spliced) {
              const auto span = Entries(c.q);
              found = ovf.index.emplace(c.q, ovf.lists.size()).first;
              ovf.lists.push_back({c.q, loc.size, {span.begin(), span.end()}});
            }
          }
          if (!spliced) {
            OverflowList& list = ovf.lists[found->second];
            if (list.size == list.slots.size()) {
              list.slots.resize(GrownCap(list.size));
            }
            const uint32_t before = list.size;
            SpliceCount(list.slots.data(), &list.size,
                        static_cast<uint32_t>(list.slots.size()), c, &old);
            live += static_cast<int64_t>(list.size) - before;
          }
          if (emit != nullptr) {
            *emit++ = {c.q, c.bucket, old, static_cast<uint32_t>(old + c.delta)};
          }
        }
      }
      live_delta[s] = live;
    }
  });

  // Relocate: append overflowed lists to the arena tail (serial — the arena
  // may reallocate) and fold the per-shard accounting.
  int64_t total_delta = 0;
  for (size_t s = 0; s < shards; ++s) {
    total_delta += live_delta[s];
    for (const OverflowList& list : overflow[s].lists) {
      const uint32_t new_cap = GrownCap(list.size);
      const uint64_t new_begin = entries_.size();
      entries_.resize(new_begin + new_cap);
      std::copy_n(list.slots.begin(), list.size, entries_.begin() + new_begin);
      Loc& loc = loc_[list.q];
      garbage_ += loc.cap;
      loc = {new_begin, list.size, new_cap};
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);
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
  // *measured* change volume instead of uniform id ranges: one hub query
  // adjacent to many moved pins otherwise serializes its whole shard.
  const size_t minis = std::min<size_t>(static_cast<size_t>(nq), shards * 8);
  const auto mini_of = [&](VertexId q) {
    return static_cast<size_t>(static_cast<uint64_t>(q) * minis / nq);
  };

  // Scatter: expand each move into per-adjacent-query count changes, binned
  // by the mini-shard that owns the query. buffers[m * workers + w] keeps
  // worker-local append-only vectors, so no synchronization is needed, and
  // the mini-major layout makes each shard one contiguous run range: its
  // mini-shards ascending, each one's workers in order. The ParallelFor
  // split is a contiguous ascending move range per worker, so a query's
  // changes stay in executed-move order for any thread count.
  std::vector<std::vector<CountDelta>>& buffers = scratch_.buffers;
  buffers.resize(std::max(buffers.size(), workers * minis));
  for (auto& b : buffers) b.clear();
  pool->ParallelFor(moves.size(), [&](size_t begin, size_t end, size_t w) {
    for (size_t i = begin; i < end; ++i) {
      const VertexMove& m = moves[i];
      SHP_DCHECK(m.from != m.to);
      for (VertexId q : graph.DataNeighbors(m.v)) {
        std::vector<CountDelta>& buffer = buffers[mini_of(q) * workers + w];
        buffer.push_back({q, m.from, -1});
        buffer.push_back({q, m.to, 1});
      }
    }
  });

  // Group contiguous mini-shards into per-worker shards balanced by their
  // scattered change counts (= Σ over dirty queries of their adjacent moved
  // pins, twice — the Σ-deg-of-dirty-queries measure). Boundary g is the
  // first mini-shard whose weight prefix reaches g/shards of the total.
  std::vector<uint64_t>& mini_weight = scratch_.mini_weight;
  std::vector<std::span<const CountDelta>>& runs = scratch_.runs;
  mini_weight.assign(minis, 0);
  runs.clear();
  uint64_t total_weight = 0;
  for (size_t m = 0; m < minis; ++m) {
    for (size_t w = 0; w < workers; ++w) {
      const std::vector<CountDelta>& buffer = buffers[m * workers + w];
      mini_weight[m] += buffer.size();
      runs.emplace_back(buffer);
    }
    total_weight += mini_weight[m];
  }
  std::vector<size_t>& shard_begin = scratch_.shard_begin;
  shard_begin.assign(shards + 1, minis * workers);
  shard_begin[0] = 0;
  {
    size_t g = 1;
    uint64_t prefix = 0;
    for (size_t m = 0; m < minis && g < shards; ++m) {
      while (g < shards && prefix * shards >= total_weight * g) {
        shard_begin[g++] = m * workers;
      }
      prefix += mini_weight[m];
    }
  }

  // One record per scattered change, each written into its own slot.
  std::span<NeighborDelta> emitted;
  if (deltas != nullptr) {
    const size_t first = deltas->size();
    deltas->resize(first + total_weight);
    emitted = std::span<NeighborDelta>(*deltas).subspan(first);
  }
  ApplyCountDeltas(runs, shard_begin, pool, emitted);
  if (touched_queries != nullptr) {
    // Shards are ascending query ranges, so their sorted, deduplicated
    // query lists concatenate in ascending order.
    std::vector<std::vector<VertexId>>& touched = scratch_.touched;
    touched.resize(std::max(touched.size(), shards));
    pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
      for (size_t s = sbegin; s < send; ++s) {
        std::vector<VertexId>& list = touched[s];
        list.clear();
        for (size_t r = shard_begin[s]; r < shard_begin[s + 1]; ++r) {
          // One (from, −1) change per move × adjacent query.
          for (const CountDelta& c : runs[r]) {
            if (c.delta < 0) list.push_back(c.q);
          }
        }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
    });
    for (size_t s = 0; s < shards; ++s) {
      touched_queries->insert(touched_queries->end(), touched[s].begin(),
                              touched[s].end());
    }
  }
}

void QueryNeighborData::Compact() {
  const VertexId nq = num_queries();
  std::vector<BucketCount> fresh;
  fresh.reserve(
      ArenaCapacity(live_entries_ + static_cast<uint64_t>(kSlackPad) * nq));
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
