// Affinity sweep tests: NeighborDelta emission from ApplyMoves (record
// chains vs before/after CountFor diffs), accumulator build/patch
// equivalence with a fresh build, block-arena placement (only relocated
// accumulators move; a moved sweep keeps its entries), bit-exact agreement
// of the vertex-major Build/ApplyDeltas with serial query-major /
// record-major references for every thread count (windowed sweeps against
// the references restricted to each vertex's window; a hub wider than an
// arena block), the ApplyDeltas patch-visitor contract, pull-vs-push
// best-target consistency (tie-breaks, restricted windows, empty-window
// fallback), and the refiner-level pull-vs-push tolerance harness across
// all three MoveBroker strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"
#include "objective/objective.h"
#include "objective/pow_table.h"

namespace shp {
namespace {

BipartiteGraph TestGraph(uint64_t seed = 3) {
  PowerLawConfig config;
  config.num_queries = 300;
  config.num_data = 200;
  config.target_edges = 1400;
  config.seed = seed;
  return GeneratePowerLaw(config);
}

/// Draws a random batch of distinct-vertex moves and mutates `assignment`.
std::vector<VertexMove> RandomBatch(std::vector<BucketId>* assignment,
                                    BucketId k, uint64_t seed, uint64_t round,
                                    size_t batch_size) {
  std::vector<VertexMove> moves;
  const VertexId n = static_cast<VertexId>(assignment->size());
  for (size_t i = 0; i < batch_size; ++i) {
    const VertexId v = static_cast<VertexId>(
        HashToBounded(seed ^ 0xbeef, round, i, n));
    const BucketId from = (*assignment)[v];
    bool duplicate = false;
    for (const VertexMove& m : moves) duplicate |= m.v == v;
    if (duplicate) continue;
    const BucketId to = static_cast<BucketId>(
        HashToBounded(seed ^ 0xf00d, round, i + 1000, static_cast<uint64_t>(k)));
    if (to == from) continue;
    moves.push_back({v, from, to});
    (*assignment)[v] = to;
  }
  return moves;
}

/// Per-vertex accumulator lists, one bucket-sorted list per data vertex.
using Accumulators = std::vector<std::vector<AffinityEntry>>;

uint64_t PackQB(VertexId q, BucketId b) {
  return (static_cast<uint64_t>(q) << 32) | static_cast<uint32_t>(b);
}

// ------------------------------------------------------- delta emission API
TEST(DeltaEmission, RecordsChainFromBeforeToAfterCounts) {
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 11).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  for (uint64_t round = 0; round < 30; ++round) {
    // Replay the records over a snapshot of the before-counts: each record's
    // old_count must match the tracked value (the chains are emitted in
    // order per (q, bucket)), and the replayed state must equal the after-
    // counts exactly — no transition lost, none fabricated.
    std::unordered_map<uint64_t, uint32_t> tracked;
    for (VertexId q = 0; q < g.num_queries(); ++q) {
      for (const BucketCount& e : ndata.Entries(q)) {
        tracked[PackQB(q, e.bucket)] = e.count;
      }
    }

    const size_t batch =
        1 + static_cast<size_t>(HashToBounded(99, round, 0, 40));
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 17, round, batch);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);

    for (const NeighborDelta& rec : deltas) {
      ASSERT_TRUE(rec.new_count == rec.old_count + 1 ||
                  rec.new_count + 1 == rec.old_count)
          << "records are unit transitions";
      const uint64_t key = PackQB(rec.q, rec.bucket);
      const auto it = tracked.find(key);
      const uint32_t current = it == tracked.end() ? 0 : it->second;
      ASSERT_EQ(current, rec.old_count)
          << "round " << round << " q=" << rec.q << " b=" << rec.bucket;
      tracked[key] = rec.new_count;
    }
    for (VertexId q = 0; q < g.num_queries(); ++q) {
      for (BucketId b = 0; b < k; ++b) {
        const auto it = tracked.find(PackQB(q, b));
        const uint32_t replayed = it == tracked.end() ? 0 : it->second;
        ASSERT_EQ(replayed, ndata.CountFor(q, b))
            << "round " << round << " q=" << q << " b=" << b;
      }
    }
  }
}

TEST(DeltaEmission, UntouchedQueriesEmitNothing) {
  const BipartiteGraph g = TestGraph(5);
  const BucketId k = 4;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 7).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  const VertexId v = 0;
  const BucketId from = assignment[v];
  const BucketId to = (from + 1) % k;
  const VertexMove move{v, from, to};
  std::vector<NeighborDelta> deltas;
  ndata.ApplyMoves(g, {&move, 1}, nullptr, nullptr, &deltas);

  const auto nbrs = g.DataNeighbors(v);
  for (const NeighborDelta& rec : deltas) {
    EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), rec.q))
        << "delta for a query not adjacent to the moved vertex";
    EXPECT_TRUE(rec.bucket == from || rec.bucket == to);
  }
  // Exactly two records (one per touched bucket) per adjacent query.
  EXPECT_EQ(deltas.size(), 2 * nbrs.size());
}

// ------------------------------------------------------ accumulator content
TEST(AffinitySweep, BuildMatchesBruteForce) {
  const BipartiteGraph g = TestGraph(9);
  const BucketId k = 8;
  const double p = 0.5;
  const auto assignment = Partition::Random(g.num_data(), k, 3).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  AffinitySweep sweep;
  sweep.Build(g, ndata, pow);

  for (VertexId v = 0; v < g.num_data(); ++v) {
    for (BucketId b = 0; b < k; ++b) {
      double expected = 0.0;
      uint32_t support = 0;
      for (VertexId q : g.DataNeighbors(v)) {
        const uint32_t c = ndata.CountFor(q, b);
        if (c == 0) continue;
        ++support;
        expected += 1.0 - pow.Pow(c);
      }
      EXPECT_NEAR(sweep.AffinityFor(v, b), expected, 1e-12)
          << "v=" << v << " b=" << b;
      const auto entries = sweep.Entries(v);
      const auto it = std::find_if(
          entries.begin(), entries.end(),
          [b](const AffinityEntry& e) { return e.bucket == b; });
      EXPECT_EQ(it == entries.end() ? 0u : it->support, support);
    }
  }
}

TEST(AffinitySweep, ApplyDeltasMatchesFreshBuild) {
  const BipartiteGraph g = TestGraph(13);
  const BucketId k = 16;
  const double p = 0.5;
  // Start fully concentrated so early batches constantly occupy new buckets
  // and exercise slack growth, overflow relocation, and entry removal.
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  AffinitySweep sweep;
  sweep.Build(g, ndata, pow);
  for (uint64_t round = 0; round < 40; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 23, round, 25);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    sweep.ApplyDeltas(g, deltas, pow);

    AffinitySweep fresh;
    fresh.Build(g, ndata, pow);
    ASSERT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9)) << "round " << round;
    ASSERT_EQ(sweep.TotalEntries(), fresh.TotalEntries()) << "round " << round;
  }

  // Compaction preserves content and drops relocation garbage.
  const uint64_t before = sweep.ArenaSlots();
  sweep.Compact();
  AffinitySweep fresh;
  fresh.Build(g, ndata, pow);
  EXPECT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9));
  EXPECT_LE(sweep.ArenaSlots(), before);
  EXPECT_EQ(sweep.ArenaSlots(), fresh.ArenaSlots());
}

TEST(AffinitySweep, RelocationLeavesOtherAccumulatorsInPlace) {
  // Insert-heavy batches from a concentrated start until some accumulator
  // outgrows its slack. Only relocated accumulators may change address, and
  // a relocated one must have received records: every other accumulator
  // stays where Build put it.
  const BipartiteGraph g = TestGraph(13);
  const BucketId k = 64;
  const PowTable pow(0.7, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  AffinitySweep sweep;
  sweep.Build(g, ndata, pow);

  uint64_t moved = 0;
  for (uint64_t round = 0; round < 40 && moved == 0; ++round) {
    std::vector<const AffinityEntry*> before;
    for (VertexId v = 0; v < g.num_data(); ++v) {
      before.push_back(sweep.Entries(v).data());
    }
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 59, round, 10);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    std::vector<VertexId> patched;
    sweep.ApplyDeltas(g, deltas, pow, nullptr, &patched);
    for (VertexId v = 0; v < g.num_data(); ++v) {
      if (sweep.Entries(v).data() == before[v]) continue;
      ++moved;
      ASSERT_TRUE(std::binary_search(patched.begin(), patched.end(), v))
          << "round " << round << ": unpatched v=" << v << " moved";
    }
    AffinitySweep fresh;
    fresh.Build(g, ndata, pow);
    ASSERT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9)) << "round " << round;
  }
  EXPECT_GT(moved, 0u) << "no accumulator outgrew its slack";
}

TEST(AffinitySweep, MovedSweepKeepsEntries) {
  // The accumulators live in blocks the sweep owns: moving the sweep (here
  // by regrowing the vector that holds it, as the BSP engine's replica
  // vector does) hands the blocks over, so every entry keeps its address.
  static_assert(!std::is_copy_constructible_v<AffinitySweep>);
  const BipartiteGraph g = TestGraph(17);
  const BucketId k = 16;
  const PowTable pow(0.7, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 3).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  std::vector<AffinitySweep> sweeps(1);
  sweeps[0].Build(g, ndata, pow);
  std::vector<std::span<const AffinityEntry>> views;
  Accumulators copies;
  for (VertexId v = 0; v < g.num_data(); ++v) {
    views.push_back(sweeps[0].Entries(v));
    copies.emplace_back(views.back().begin(), views.back().end());
  }
  const size_t capacity = sweeps.capacity();
  sweeps.resize(capacity + 1);
  ASSERT_GT(sweeps.capacity(), capacity) << "the vector did not regrow";
  for (VertexId v = 0; v < g.num_data(); ++v) {
    const auto entries = sweeps[0].Entries(v);
    ASSERT_EQ(entries.data(), views[v].data()) << "v=" << v;
    ASSERT_TRUE(std::equal(entries.begin(), entries.end(), copies[v].begin(),
                           copies[v].end()))
        << "v=" << v;
  }

  for (uint64_t round = 0; round < 10; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 61, round, 20);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    sweeps[0].ApplyDeltas(g, deltas, pow);
    AffinitySweep fresh;
    fresh.Build(g, ndata, pow);
    ASSERT_TRUE(sweeps[0].ApproxEquals(fresh, 1e-9, 1e-9))
        << "round " << round;
  }
}

/// Per-worker windows of a BSP data worker under direct k-way: [0, k) for
/// the vertices hashed to `worker`, empty for the rest.
std::vector<BucketWindow> OwnedWindows(VertexId n, BucketId k, int workers,
                                       int worker) {
  std::vector<BucketWindow> windows(n, BucketWindow{0, 0});
  for (VertexId v = 0; v < n; ++v) {
    if (static_cast<int>(HashToBounded(55, v, 3, workers)) == worker) {
      windows[v] = {0, k};
    }
  }
  return windows;
}

TEST(AffinitySweep, QueryListBuildMatchesArenaBuild) {
  // The BSP engine feeds Build its per-query replica lists instead of a
  // QueryNeighborData arena: the same gather must produce the same floats.
  const BipartiteGraph g = TestGraph(17);
  const BucketId k = 8;
  const PowTable pow(0.7, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  QueryNeighborData ndata;
  ndata.Build(g, Partition::Random(g.num_data(), k, 3).assignment());
  std::vector<std::vector<BucketCount>> lists(g.num_queries());
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    lists[q].assign(ndata.Entries(q).begin(), ndata.Entries(q).end());
  }
  AffinitySweep arena;
  AffinitySweep replica;
  const uint64_t arena_adds = arena.Build(g, ndata, pow);
  EXPECT_EQ(replica.Build(g, lists, pow), arena_adds);
  EXPECT_GT(arena_adds, 0u);
  ASSERT_EQ(replica.TotalEntries(), arena.TotalEntries());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    const auto a = arena.Entries(v);
    const auto b = replica.Entries(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "v=" << v;
  }
}

TEST(AffinitySweep, OwnedWindowsSplitEntriesAndAdjacencyReadsAcrossWorkers) {
  // W per-worker sweeps whose windows are the ownership filter: together
  // they hold exactly the unwindowed accumulators, each vertex on its owner
  // with bit-identical floats, and their builds read each pin once.
  const BipartiteGraph g = TestGraph(23);
  const BucketId k = 8;
  const PowTable pow(0.7, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  QueryNeighborData ndata;
  ndata.Build(g, Partition::Random(g.num_data(), k, 5).assignment());
  AffinitySweep whole;
  const uint64_t whole_adds = whole.Build(g, ndata, pow);
  EXPECT_EQ(whole.last_build_adjacency_reads(), g.num_edges());
  ThreadPool pool(4);
  for (const int workers : {1, 3, 8}) {
    std::vector<AffinitySweep> sweeps(static_cast<size_t>(workers));
    uint64_t entries = 0;
    uint64_t reads = 0;
    uint64_t adds = 0;
    for (int w = 0; w < workers; ++w) {
      adds += sweeps[static_cast<size_t>(w)].Build(
          g, ndata, pow, &pool, OwnedWindows(g.num_data(), k, workers, w));
      entries += sweeps[static_cast<size_t>(w)].TotalEntries();
      reads += sweeps[static_cast<size_t>(w)].last_build_adjacency_reads();
    }
    EXPECT_EQ(entries, whole.TotalEntries()) << "W=" << workers;
    EXPECT_EQ(reads, g.num_edges()) << "W=" << workers;
    EXPECT_EQ(adds, whole_adds) << "W=" << workers;
    for (VertexId v = 0; v < g.num_data(); ++v) {
      const auto a = whole.Entries(v);
      for (int w = 0; w < workers; ++w) {
        const auto b = sweeps[static_cast<size_t>(w)].Entries(v);
        if (static_cast<int>(HashToBounded(55, v, 3, workers)) == w) {
          ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
              << "W=" << workers << " v=" << v;
        } else {
          ASSERT_TRUE(b.empty()) << "W=" << workers << " v=" << v;
        }
      }
    }
  }
}

TEST(AffinitySweep, EmptyWindowsGetNoArenaSlackAndPatchesRoundTrip) {
  // A vertex with an empty window never receives a record, so it gets no
  // slack: a sweep whose every window is empty holds no arena slots at all,
  // before and after patches and compaction. Next to it, per-worker sweeps
  // that each receive every record keep matching fresh builds.
  const BipartiteGraph g = TestGraph(29);
  const BucketId k = 16;
  const PowTable pow(0.7, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const int workers = 4;

  AffinitySweep none;
  none.Build(g, ndata, pow, nullptr,
             std::vector<BucketWindow>(g.num_data(), BucketWindow{0, 0}));
  EXPECT_EQ(none.ArenaSlots(), 0u);
  std::vector<AffinitySweep> sweeps(workers);
  for (int w = 0; w < workers; ++w) {
    sweeps[w].Build(g, ndata, pow, nullptr,
                    OwnedWindows(g.num_data(), k, workers, w));
  }
  for (uint64_t round = 0; round < 30; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 41, round, 25);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    std::vector<VertexId> patched;
    EXPECT_EQ(none.ApplyDeltas(g, deltas, pow, nullptr, &patched), 0u);
    EXPECT_TRUE(patched.empty());
    EXPECT_EQ(none.TotalEntries(), 0u);
    EXPECT_EQ(none.ArenaSlots(), 0u) << "round " << round;
    for (int w = 0; w < workers; ++w) {
      sweeps[w].ApplyDeltas(g, deltas, pow, nullptr, &patched);
      for (const VertexId v : patched) {
        ASSERT_EQ(static_cast<int>(HashToBounded(55, v, 3, workers)), w);
      }
      AffinitySweep fresh;
      fresh.Build(g, ndata, pow, nullptr, sweeps[w].windows());
      ASSERT_TRUE(sweeps[w].ApproxEquals(fresh, 1e-9, 1e-9))
          << "round " << round << " worker " << w;
    }
  }
  none.Compact();
  EXPECT_EQ(none.ArenaSlots(), 0u);
}

TEST(AffinitySweep, DeterministicModeIsThreadCountInvariant) {
  const BipartiteGraph g = TestGraph(21);
  const BucketId k = 8;
  const double p = 0.3;
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  ThreadPool pool1(1);
  ThreadPool pool4(4);

  std::vector<BucketId> a1 = Partition::Random(g.num_data(), k, 5).assignment();
  std::vector<BucketId> a4 = a1;
  QueryNeighborData nd1, nd4;
  nd1.Build(g, a1, &pool1);
  nd4.Build(g, a4, &pool4);
  AffinitySweep s1, s4;
  s1.Build(g, nd1, pow, &pool1);
  s4.Build(g, nd4, pow, &pool4);

  for (uint64_t round = 0; round < 10; ++round) {
    const std::vector<VertexMove> moves = RandomBatch(&a1, k, 31, round, 20);
    a4 = a1;
    std::vector<NeighborDelta> d1, d4;
    nd1.ApplyMoves(g, moves, &pool1, nullptr, &d1);
    nd4.ApplyMoves(g, moves, &pool4, nullptr, &d4);
    s1.ApplyDeltas(g, d1, pow, &pool1);
    s4.ApplyDeltas(g, d4, pow, &pool4);
    for (VertexId v = 0; v < g.num_data(); ++v) {
      const auto e1 = s1.Entries(v);
      const auto e4 = s4.Entries(v);
      ASSERT_EQ(e1.size(), e4.size()) << "v=" << v;
      for (size_t i = 0; i < e1.size(); ++i) {
        // Bitwise-equal floats: the fixed per-slot add order makes the
        // patched accumulators independent of the emitting/applying thread
        // counts.
        ASSERT_EQ(e1[i], e4[i]) << "v=" << v << " i=" << i;
      }
    }
  }
}

// ------------------------------------------- bit-exact serial references
/// Pow base of the bit-exact tests. Not a power of two: with base 0.5 every
/// contribution 1 − 0.5^c is a short dyadic fraction, its sums are exact in
/// any order, and a reordered accumulation would go unnoticed.
constexpr double kInexactBase = 0.7;

/// Folds one (bucket, add, support-delta) contribution into a bucket-sorted
/// list: add in place, erase at support 0, insert {b, 1, add} when absent.
void ReferenceFold(std::vector<AffinityEntry>* list, BucketId b, double add,
                   int32_t sup) {
  auto it = std::lower_bound(
      list->begin(), list->end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != list->end() && it->bucket == b) {
    it->affinity += add;
    it->support = static_cast<uint32_t>(static_cast<int64_t>(it->support) + sup);
    if (it->support == 0) list->erase(it);
    return;
  }
  ASSERT_EQ(sup, 1) << "absent entry for a non-insert record";
  list->insert(it, {b, 1, add});
}

/// Serial query-major build: each query's contributions scattered to its
/// data neighbors in ascending query order.
Accumulators ReferenceBuild(const BipartiteGraph& g,
                            const QueryNeighborData& ndata,
                            const PowTable& pow) {
  Accumulators acc(g.num_data());
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    for (const BucketCount& e : ndata.Entries(q)) {
      const double c = 1.0 - pow.Pow(e.count);
      for (const VertexId v : g.QueryNeighbors(q)) {
        ReferenceFold(&acc[v], e.bucket, c, 1);
      }
    }
  }
  return acc;
}

/// Records in canonical order: ascending (q, bucket), chains kept in
/// emission order.
std::vector<NeighborDelta> CanonicalOrder(std::vector<NeighborDelta> recs) {
  std::stable_sort(recs.begin(), recs.end(),
                   [](const NeighborDelta& a, const NeighborDelta& b) {
                     return a.q != b.q ? a.q < b.q : a.bucket < b.bucket;
                   });
  return recs;
}

/// Serial record-major patch in canonical order.
void ReferencePatch(const BipartiteGraph& g,
                    const std::vector<NeighborDelta>& deltas,
                    const PowTable& pow, Accumulators* acc) {
  for (const NeighborDelta& rec : CanonicalOrder(deltas)) {
    const double add = pow.Pow(rec.old_count) - pow.Pow(rec.new_count);
    const int32_t sup = static_cast<int32_t>(rec.old_count == 0) -
                        static_cast<int32_t>(rec.new_count == 0);
    for (const VertexId v : g.QueryNeighbors(rec.q)) {
      ReferenceFold(&(*acc)[v], rec.bucket, add, sup);
    }
  }
}

/// Entry-by-entry operator== (bitwise-equal floats), not ApproxEquals.
testing::AssertionResult BitIdentical(const AffinitySweep& sweep,
                                      const Accumulators& ref) {
  if (sweep.num_vertices() != ref.size()) {
    return testing::AssertionFailure() << "vertex count differs";
  }
  uint64_t total = 0;
  for (VertexId v = 0; v < sweep.num_vertices(); ++v) {
    const auto got = sweep.Entries(v);
    total += ref[v].size();
    if (!std::equal(got.begin(), got.end(), ref[v].begin(), ref[v].end())) {
      return testing::AssertionFailure() << "v=" << v;
    }
  }
  if (sweep.TotalEntries() != total) {
    return testing::AssertionFailure() << "TotalEntries drifted";
  }
  return testing::AssertionSuccess();
}

/// Tallies, per vertex adjacent to a record, which patch kernel the
/// 4·m ≥ |acc| rule selects (m = records of v's dirty queries).
void CountKernels(const BipartiteGraph& g,
                  const std::vector<NeighborDelta>& deltas,
                  const Accumulators& before, uint64_t* dense,
                  uint64_t* sparse) {
  std::unordered_map<VertexId, uint64_t> per_query;
  for (const NeighborDelta& rec : deltas) ++per_query[rec.q];
  for (VertexId v = 0; v < g.num_data(); ++v) {
    uint64_t m = 0;
    for (const VertexId q : g.DataNeighbors(v)) {
      const auto it = per_query.find(q);
      if (it != per_query.end()) m += it->second;
    }
    if (m == 0) continue;
    ++*(4 * m >= before[v].size() ? dense : sparse);
  }
}

TEST(AffinitySweepBitExact, BuildMatchesSerialQueryMajorReference) {
  const BipartiteGraph g = TestGraph(31);
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  for (const BucketId k : {2, 32, 512}) {
    QueryNeighborData ndata;
    ndata.Build(g, Partition::Random(g.num_data(), k, 7).assignment());
    const Accumulators ref = ReferenceBuild(g, ndata, pow);
    for (const size_t threads : {1, 3, 8}) {
      ThreadPool pool(threads);
      AffinitySweep sweep;
      sweep.Build(g, ndata, pow, &pool);
      EXPECT_TRUE(BitIdentical(sweep, ref))
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(AffinitySweepBitExact, ApplyDeltasMatchesSerialRecordMajorReference) {
  // Starts fully concentrated so early rounds keep occupying new buckets:
  // inserts exhaust the slack and relocate accumulators to the arena tail.
  // Batch sizes cycle from a single move (few ops against wide
  // accumulators: the binary-search kernel) to 60 moves (the dense kernel).
  // A Compact halfway must not change what later patches produce.
  const BipartiteGraph g = TestGraph(37);
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const size_t batches[] = {60, 1, 25, 2, 8};
  for (const BucketId k : {2, 32, 512}) {
    for (const size_t threads : {1, 3, 8}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " threads=" << threads);
      ThreadPool pool(threads);
      std::vector<BucketId> assignment(g.num_data(), 0);
      QueryNeighborData ndata;
      ndata.Build(g, assignment, &pool);
      AffinitySweep sweep;
      sweep.Build(g, ndata, pow, &pool);
      Accumulators ref = ReferenceBuild(g, ndata, pow);
      ASSERT_TRUE(BitIdentical(sweep, ref));

      uint64_t dense = 0;
      uint64_t sparse = 0;
      bool relocated = false;
      for (uint64_t round = 0; round < 30; ++round) {
        const std::vector<VertexMove> moves = RandomBatch(
            &assignment, k, 43 + static_cast<uint64_t>(k), round,
            batches[round % std::size(batches)]);
        std::vector<NeighborDelta> deltas;
        ndata.ApplyMoves(g, moves, &pool, nullptr, &deltas);
        CountKernels(g, deltas, ref, &dense, &sparse);
        const uint64_t slots_before = sweep.ArenaSlots();
        sweep.ApplyDeltas(g, deltas, pow, &pool);
        ReferencePatch(g, deltas, pow, &ref);
        ASSERT_TRUE(BitIdentical(sweep, ref)) << "round " << round;
        relocated |= sweep.ArenaSlots() > slots_before;
        if (round == 15) {
          sweep.Compact();
          ASSERT_TRUE(BitIdentical(sweep, ref)) << "after Compact";
          ASSERT_EQ(sweep.ArenaSlots(),
                    sweep.TotalEntries() + 2 * uint64_t{g.num_data()});
        }
      }
      EXPECT_GT(dense, 0u);
      if (k > 2) {  // k = 2 accumulators never outgrow their 2-slot slack
        EXPECT_TRUE(relocated) << "no accumulator outgrew its slack";
        EXPECT_GT(sparse, 0u);
      }
    }
  }
}

TEST(AffinitySweepBitExact, HandBuiltChainsCoverBothKernels) {
  // q0 = {0, 1, 2}; q1..q24 = {2, v} with each v in its own bucket; q25..q27
  // = {2, a, b} with a and b sharing a bucket. Vertex 2's accumulator is 30
  // entries wide, so its few ops per round take the binary-search kernel,
  // while every other vertex (≤ 3 entries) takes the dense one.
  //  - Round 1: vertex 0 leaves bucket 1 and vertex 1 enters it, so the
  //    (q0, bucket 1) chain runs 1 → 0 → 1 — every neighbor of q0 drops its
  //    bucket-1 entry and regains it with a fresh float in one ApplyDeltas.
  //  - Round 2: each `a` moves to a new bucket, so vertex 2 inserts three
  //    buckets with two slack slots: the third insert spills and relocates.
  GraphBuilder builder;
  builder.AddHyperedge(0, {0, 1, 2});
  std::vector<BucketId> assignment = {1, 3, 2};
  for (VertexId i = 0; i < 24; ++i) {
    builder.AddHyperedge(1 + i, {2, 3 + i});
    assignment.push_back(4 + static_cast<BucketId>(i));
  }
  for (VertexId j = 0; j < 3; ++j) {
    builder.AddHyperedge(25 + j, {2, 27 + 2 * j, 28 + 2 * j});
    assignment.insert(assignment.end(), 2, 28 + static_cast<BucketId>(j));
  }
  const BipartiteGraph g = builder.Build();
  ASSERT_EQ(g.num_data(), assignment.size());
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const std::vector<VertexMove> rounds[] = {
      {{0, 1, 0}, {1, 3, 1}},
      {{27, 28, 40}, {29, 29, 41}, {31, 30, 42}}};
  const uint64_t expected_dense[] = {2, 6};
  for (const size_t threads : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    QueryNeighborData ndata;
    ndata.Build(g, assignment, &pool);
    AffinitySweep sweep;
    sweep.Build(g, ndata, pow, &pool);
    Accumulators ref = ReferenceBuild(g, ndata, pow);
    ASSERT_EQ(sweep.Entries(2).size(), 30u);

    for (size_t r = 0; r < std::size(rounds); ++r) {
      std::vector<NeighborDelta> deltas;
      ndata.ApplyMoves(g, rounds[r], &pool, nullptr, &deltas);
      uint64_t dense = 0;
      uint64_t sparse = 0;
      CountKernels(g, deltas, ref, &dense, &sparse);
      EXPECT_EQ(dense, expected_dense[r]) << "round " << r;
      EXPECT_EQ(sparse, 1u) << "round " << r;
      const uint64_t slots_before = sweep.ArenaSlots();
      sweep.ApplyDeltas(g, deltas, pow, &pool);
      ReferencePatch(g, deltas, pow, &ref);
      ASSERT_TRUE(BitIdentical(sweep, ref)) << "round " << r;
      if (r == 0) {
        const auto chain = CanonicalOrder(deltas);
        const auto b1 = std::find_if(
            chain.begin(), chain.end(),
            [](const NeighborDelta& rec) { return rec.bucket == 1; });
        ASSERT_NE(b1, chain.end());
        ASSERT_EQ(b1->old_count, 1u);
        ASSERT_EQ(std::next(b1)->old_count, 0u);
        for (const VertexId v : {0u, 1u, 2u}) {
          const auto entries = sweep.Entries(v);
          const auto e = std::find_if(
              entries.begin(), entries.end(),
              [](const AffinityEntry& entry) { return entry.bucket == 1; });
          ASSERT_NE(e, entries.end()) << "v=" << v;
          EXPECT_EQ(e->support, 1u);
          EXPECT_EQ(e->affinity, 1.0 - pow.Pow(1)) << "float not reset";
        }
      } else {
        EXPECT_EQ(sweep.Entries(2).size(), 33u);
        EXPECT_GT(sweep.ArenaSlots(), slots_before) << "no relocation";
      }
    }
  }
}

TEST(AffinitySweepBitExact, BlockEdgeCasesHubRelocationsAndCompact) {
  // Hub vertex 0 shares one query with every other data vertex. 4500
  // leaves sit in buckets 0..4499 of k = 8192, so the hub's accumulator is
  // wider than an arena block at Build. 3000 small vertices start in bucket
  // 0 and share degree-3 queries among themselves: as moves spread them
  // over buckets 4500..8191, the hub gains buckets and relocates into a wider block of its own,
  // while the small vertices keep outgrowing their slack and relocate
  // through block-sized tail blocks, more slots in total than one block
  // holds. Compact afterwards, then patch once more.
  const VertexId leaves = 4500;
  const VertexId small = 3000;
  const VertexId n = 1 + leaves + small;
  const BucketId k = 8192;
  GraphBuilder builder;
  for (VertexId v = 1; v < n; ++v) builder.AddHyperedge(v - 1, {0, v});
  for (VertexId j = 0; j < small; ++j) {
    std::vector<VertexId> pins;
    for (uint64_t slot = 0; pins.size() < 3; ++slot) {
      const VertexId v =
          1 + leaves + static_cast<VertexId>(HashToBounded(71, j, slot, small));
      if (std::find(pins.begin(), pins.end(), v) == pins.end()) {
        pins.push_back(v);
      }
    }
    std::sort(pins.begin(), pins.end());
    builder.AddHyperedge(n - 1 + j, pins);
  }
  const BipartiteGraph g = builder.Build();
  ASSERT_EQ(g.num_data(), n);
  std::vector<BucketId> start(n, 0);
  for (VertexId v = 1; v <= leaves; ++v) start[v] = v - 1;
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  for (const size_t threads : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    std::vector<BucketId> assignment = start;
    QueryNeighborData ndata;
    ndata.Build(g, assignment, &pool);
    AffinitySweep sweep;
    sweep.Build(g, ndata, pow, &pool);
    Accumulators ref = ReferenceBuild(g, ndata, pow);
    ASSERT_TRUE(BitIdentical(sweep, ref));
    ASSERT_GT(sweep.Entries(0).size(), AffinitySweep::kBlockEntries);

    // Each round moves 200 small vertices to buckets the leaves leave free.
    const auto patch = [&](uint64_t round) {
      std::vector<VertexMove> moves;
      for (uint64_t i = 0; i < 200; ++i) {
        const VertexId v =
            1 + leaves + static_cast<VertexId>(HashToBounded(73, round, i, small));
        const BucketId to =
            leaves + static_cast<BucketId>(HashToBounded(79, round, i, k - leaves));
        bool duplicate = false;
        for (const VertexMove& m : moves) duplicate |= m.v == v;
        if (duplicate || to == assignment[v]) continue;
        moves.push_back({v, assignment[v], to});
        assignment[v] = to;
      }
      std::vector<NeighborDelta> deltas;
      ndata.ApplyMoves(g, moves, &pool, nullptr, &deltas);
      sweep.ApplyDeltas(g, deltas, pow, &pool);
      ReferencePatch(g, deltas, pow, &ref);
    };
    // Lower bound of the slots the small vertices' relocations took (a
    // relocated accumulator of size s gets at least s + 2). Above
    // kBlockEntries, some relocation had to start a new tail block.
    uint64_t small_relocated_slots = 0;
    uint64_t hub_relocations = 0;
    for (uint64_t round = 0; round < 12; ++round) {
      std::vector<const AffinityEntry*> before;
      for (VertexId v = 0; v < g.num_data(); ++v) {
        before.push_back(sweep.Entries(v).data());
      }
      const uint64_t slots_before = sweep.ArenaSlots();
      patch(round);
      ASSERT_TRUE(BitIdentical(sweep, ref)) << "round " << round;
      ASSERT_GT(sweep.ArenaSlots(), slots_before)
          << "round " << round << ": compacted or nothing relocated";
      hub_relocations += sweep.Entries(0).data() != before[0];
      for (VertexId v = 1 + leaves; v < n; ++v) {
        if (sweep.Entries(v).data() != before[v]) {
          small_relocated_slots += sweep.Entries(v).size() + 2;
        }
      }
    }
    EXPECT_GT(hub_relocations, 0u);
    EXPECT_GT(small_relocated_slots, uint64_t{AffinitySweep::kBlockEntries});

    sweep.Compact();
    ASSERT_TRUE(BitIdentical(sweep, ref)) << "after Compact";
    ASSERT_EQ(sweep.ArenaSlots(),
              sweep.TotalEntries() + 2 * uint64_t{g.num_data()});
    patch(12);
    ASSERT_TRUE(BitIdentical(sweep, ref)) << "after Compact + patch";
  }
}

// Windows of a recursion level with sibling groups of four buckets over
// k = 32: v keeps its group's four buckets, except that vertices of the last
// group (buckets 28..31, "not refined") get an empty window.
std::vector<BucketWindow> GroupOfFourWindows(
    const std::vector<BucketId>& assignment) {
  std::vector<BucketWindow> windows;
  for (const BucketId b : assignment) {
    const BucketId lo = b / 4 * 4;
    windows.push_back(lo == 28 ? BucketWindow{0, 0} : BucketWindow{lo, lo + 4});
  }
  return windows;
}

/// `acc` with every vertex's entries outside its window removed. Filtering a
/// serial reference keeps each surviving slot's adds and their order.
Accumulators RestrictToWindows(Accumulators acc,
                               const std::vector<BucketWindow>& windows) {
  for (size_t v = 0; v < acc.size(); ++v) {
    std::erase_if(acc[v], [&](const AffinityEntry& e) {
      return e.bucket < windows[v].first || e.bucket >= windows[v].second;
    });
  }
  return acc;
}

/// Serial record-major patch in canonical order that folds a record into v
/// only when its bucket lies in v's window; returns the vertices that
/// received a record, ascending.
std::vector<VertexId> ReferencePatchWindowed(
    const BipartiteGraph& g, const std::vector<NeighborDelta>& deltas,
    const PowTable& pow, const std::vector<BucketWindow>& windows,
    Accumulators* acc) {
  std::vector<uint8_t> received(g.num_data(), 0);
  for (const NeighborDelta& rec : CanonicalOrder(deltas)) {
    const double add = pow.Pow(rec.old_count) - pow.Pow(rec.new_count);
    const int32_t sup = static_cast<int32_t>(rec.old_count == 0) -
                        static_cast<int32_t>(rec.new_count == 0);
    for (const VertexId v : g.QueryNeighbors(rec.q)) {
      if (rec.bucket < windows[v].first || rec.bucket >= windows[v].second) {
        continue;
      }
      ReferenceFold(&(*acc)[v], rec.bucket, add, sup);
      received[v] = 1;
    }
  }
  std::vector<VertexId> patched;
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (received[v]) patched.push_back(v);
  }
  return patched;
}

TEST(AffinitySweepBitExact, WindowedBuildMatchesRestrictedSerialReference) {
  const BipartiteGraph g = TestGraph(41);
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), 32, 5).assignment();
  const std::vector<BucketWindow> windows = GroupOfFourWindows(assignment);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const Accumulators ref =
      RestrictToWindows(ReferenceBuild(g, ndata, pow), windows);
  for (const size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    AffinitySweep sweep;
    sweep.Build(g, ndata, pow, &pool, windows);
    EXPECT_EQ(sweep.windows(), windows);
    EXPECT_TRUE(BitIdentical(sweep, ref)) << "threads=" << threads;
    for (VertexId v = 0; v < g.num_data(); ++v) {
      if (windows[v].first == windows[v].second) {
        EXPECT_TRUE(sweep.Entries(v).empty()) << "empty window, v=" << v;
      }
    }
  }
}

TEST(AffinitySweepBitExact, WindowedApplyDeltasMatchesRestrictedReference) {
  // Moves go to any of the 32 buckets, so most records fall outside the
  // receiving vertex's four-bucket window (or its empty one) and must be
  // skipped, while in-window records fold in their canonical order. The
  // sweep's windows stay those of its Build.
  const BipartiteGraph g = TestGraph(43);
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const size_t batches[] = {60, 1, 25, 2, 8};
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    std::vector<BucketId> assignment =
        Partition::Random(g.num_data(), 32, 9).assignment();
    const std::vector<BucketWindow> windows = GroupOfFourWindows(assignment);
    QueryNeighborData ndata;
    ndata.Build(g, assignment, &pool);
    AffinitySweep sweep;
    sweep.Build(g, ndata, pow, &pool, windows);
    Accumulators ref = RestrictToWindows(ReferenceBuild(g, ndata, pow), windows);
    ASSERT_TRUE(BitIdentical(sweep, ref));

    uint64_t outside = 0;
    for (uint64_t round = 0; round < 12; ++round) {
      const std::vector<VertexMove> moves = RandomBatch(
          &assignment, 32, 47, round, batches[round % std::size(batches)]);
      std::vector<NeighborDelta> deltas;
      ndata.ApplyMoves(g, moves, &pool, nullptr, &deltas);
      for (const NeighborDelta& rec : deltas) {
        for (const VertexId v : g.QueryNeighbors(rec.q)) {
          outside += rec.bucket < windows[v].first ||
                     rec.bucket >= windows[v].second;
        }
      }
      std::vector<VertexId> patched = {7};  // must be overwritten
      sweep.ApplyDeltas(g, deltas, pow, &pool, &patched);
      const std::vector<VertexId> expected =
          ReferencePatchWindowed(g, deltas, pow, windows, &ref);
      ASSERT_TRUE(BitIdentical(sweep, ref)) << "round " << round;
      EXPECT_EQ(patched, expected) << "round " << round;
    }
    EXPECT_GT(outside, 0u) << "no record fell outside a window";
    // A fresh windowed Build reads the same in-window counts: equal support
    // everywhere, floats equal up to summation order.
    AffinitySweep fresh;
    fresh.Build(g, ndata, pow, &pool, windows);
    EXPECT_TRUE(sweep.ApproxEquals(fresh, 1e-12, 1e-12));
  }
}

TEST(AffinitySweep, PatchVisitorSeesEachPatchedVertexOnceWithFinalEntries) {
  // The ApplyDeltas visitor contract the engines' patch-time proposals rely
  // on: one call per patched vertex (exactly the `patched` list), none for
  // an empty batch or an empty-window vertex, and the entries it sees equal
  // Entries(v) after the call — in place, or the overflow copy of an
  // accumulator relocated past its slack. The unwindowed sweep starts fully
  // concentrated at k = 512, so inserts relocate accumulators, and the
  // batch sizes cycle through both patch kernels; the windowed one has
  // four-bucket windows, empty for the vertices of buckets 28..31.
  const BipartiteGraph g = TestGraph(53);
  const VertexId n = g.num_data();
  const PowTable pow(kInexactBase, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const size_t batches[] = {60, 1, 25, 2, 8};
  for (const bool windowed : {false, true}) {
    for (const size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << (windowed ? "windowed" : "k=512")
                                      << " threads=" << threads);
      ThreadPool pool(threads);
      const BucketId k = windowed ? 32 : 512;
      std::vector<BucketId> assignment =
          windowed ? Partition::Random(n, k, 9).assignment()
                   : std::vector<BucketId>(n, 0);
      const std::vector<BucketWindow> windows =
          windowed ? GroupOfFourWindows(assignment)
                   : std::vector<BucketWindow>{};
      QueryNeighborData ndata;
      ndata.Build(g, assignment, &pool);
      AffinitySweep sweep;
      sweep.Build(g, ndata, pow, &pool, windows);

      std::vector<std::atomic<uint32_t>> calls(n);
      std::vector<std::vector<AffinityEntry>> seen(n);
      const auto visitor = [&](VertexId v,
                               std::span<const AffinityEntry> entries) {
        calls[v].fetch_add(1, std::memory_order_relaxed);
        seen[v].assign(entries.begin(), entries.end());
      };
      std::vector<VertexId> patched = {3};  // must be overwritten
      EXPECT_EQ(sweep.ApplyDeltas(g, {}, pow, &pool, &patched, visitor), 0u);
      EXPECT_TRUE(patched.empty());
      for (VertexId v = 0; v < n; ++v) ASSERT_EQ(calls[v].load(), 0u);

      uint64_t dense = 0;
      uint64_t sparse = 0;
      uint64_t relocated_seen = 0;
      uint64_t empty_window_in_blast = 0;
      for (uint64_t round = 0; round < 20; ++round) {
        const std::vector<VertexMove> moves = RandomBatch(
            &assignment, k, 59, round, batches[round % std::size(batches)]);
        std::vector<NeighborDelta> deltas;
        ndata.ApplyMoves(g, moves, &pool, nullptr, &deltas);
        // Patch kernel of each unwindowed vertex by the 4·m ≥ |acc| rule;
        // blast-radius vertices with an empty window.
        std::unordered_map<VertexId, uint64_t> per_query;
        for (const NeighborDelta& rec : deltas) ++per_query[rec.q];
        std::vector<const AffinityEntry*> before(n);
        for (VertexId v = 0; v < n; ++v) {
          before[v] = sweep.Entries(v).data();
          uint64_t m = 0;
          for (const VertexId q : g.DataNeighbors(v)) {
            const auto it = per_query.find(q);
            if (it != per_query.end()) m += it->second;
          }
          if (m == 0) continue;
          if (windowed) {
            empty_window_in_blast += windows[v].first == windows[v].second;
          } else {
            ++*(4 * m >= sweep.Entries(v).size() ? &dense : &sparse);
          }
        }
        for (VertexId v = 0; v < n; ++v) {
          calls[v].store(0, std::memory_order_relaxed);
          seen[v].clear();
        }
        const uint64_t slots_before = sweep.ArenaSlots();
        sweep.ApplyDeltas(g, deltas, pow, &pool, &patched, visitor);
        const bool grew = sweep.ArenaSlots() > slots_before;
        for (VertexId v = 0; v < n; ++v) {
          const bool listed =
              std::binary_search(patched.begin(), patched.end(), v);
          ASSERT_EQ(calls[v].load(), listed ? 1u : 0u)
              << "round " << round << ", v=" << v;
          if (!listed) continue;
          ASSERT_FALSE(windowed && windows[v].first == windows[v].second)
              << "empty-window vertex " << v << " was visited";
          const auto entries = sweep.Entries(v);
          ASSERT_TRUE(std::equal(seen[v].begin(), seen[v].end(),
                                 entries.begin(), entries.end()))
              << "round " << round << ", v=" << v;
          relocated_seen += grew && entries.data() != before[v];
        }
      }
      if (windowed) {
        EXPECT_GT(empty_window_in_blast, 0u);
      } else {
        EXPECT_GT(dense, 0u);
        EXPECT_GT(sparse, 0u);
        EXPECT_GT(relocated_seen, 0u) << "no visited accumulator relocated";
      }
    }
  }
}

// ----------------------------------------- pull vs push target consistency
TEST(PullPushTargets, AgreeOnRandomGraphsAndRestrictedWindows) {
  for (const double p : {0.1, 0.5, 0.9}) {
    const BipartiteGraph g = TestGraph(7);
    const BucketId k = 8;
    const auto assignment = Partition::Random(g.num_data(), k, 2).assignment();
    QueryNeighborData ndata;
    ndata.Build(g, assignment);
    const GainComputer gain(p, static_cast<uint32_t>(g.MaxQueryDegree()));
    AffinitySweep sweep;
    sweep.Build(g, ndata, gain.pow_table());

    std::vector<double> affinity(static_cast<size_t>(k), 0.0);
    std::vector<BucketId> touched;
    const std::pair<BucketId, BucketId> windows[] = {{0, k}, {2, 6}, {5, 6}};
    for (const auto& [wb, we] : windows) {
      for (VertexId v = 0; v < g.num_data(); ++v) {
        if (g.DataDegree(v) == 0) continue;
        const BucketId from = assignment[v];
        const auto pull =
            gain.FindBestTarget(g, ndata, v, from, wb, we, &affinity, &touched);
        const auto push = gain.FindBestTargetPush(
            sweep.Entries(v), from, wb, we, static_cast<double>(g.DataDegree(v)));
        ASSERT_EQ(pull.bucket == -1, push.bucket == -1)
            << "p=" << p << " v=" << v << " window [" << wb << "," << we << ")";
        if (pull.bucket == -1) continue;
        EXPECT_NEAR(pull.gain, push.gain,
                    1e-9 + 1e-6 * std::fabs(pull.gain))
            << "p=" << p << " v=" << v;
        if (pull.bucket != push.bucket) {
          // Divergent picks are legal only on an affinity tie ≤ 1e-9:
          // evaluate both in the pull frame.
          const double g_pull = gain.MoveGain(g, ndata, v, from, pull.bucket);
          const double g_push = gain.MoveGain(g, ndata, v, from, push.bucket);
          EXPECT_NEAR(g_pull, g_push, 1e-9)
              << "p=" << p << " v=" << v << " pull->" << pull.bucket
              << " push->" << push.bucket;
        }
      }
    }
  }
}

/// Graph where data vertex 0 has two queries with exactly symmetric mass in
/// buckets 1 and 2: q0 = {0, 1}, q1 = {0, 2}, v1 -> bucket 1, v2 -> bucket 2.
BipartiteGraph TieGraph() {
  GraphBuilder builder;
  builder.AddHyperedge(0, {0, 1});
  builder.AddHyperedge(1, {0, 2});
  return builder.Build();
}

TEST(PullPushTargets, ExactTieBreaksToLowerBucketOnBothPaths) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  const BucketId k = 4;
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());

  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;
  // Buckets 1 and 2 have identical affinity (one neighbor each, identical
  // float contributions); both scan paths must deterministically pick the
  // lower bucket id.
  const auto pull =
      gain.FindBestTarget(g, ndata, 0, 0, 0, k, &affinity, &touched);
  const auto push = gain.FindBestTargetPush(sweep.Entries(0), 0, 0, k, 2.0);
  EXPECT_EQ(pull.bucket, 1);
  EXPECT_EQ(push.bucket, 1);
  EXPECT_NEAR(pull.gain, push.gain, 1e-12);
}

TEST(PullPushTargets, EmptyWindowFallbackIsSharedAndChecksFrom) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  const BucketId k = 8;
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());
  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;

  // Window [4, 8) holds no occupied bucket: both paths fall back to the
  // lowest bucket of the window (4), with the empty-bucket gain.
  {
    const auto pull =
        gain.FindBestTarget(g, ndata, 0, 0, 4, 8, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sweep.Entries(0), 0, 4, 8, 2.0);
    EXPECT_EQ(pull.bucket, 4);
    EXPECT_EQ(push.bucket, 4);
    EXPECT_NEAR(pull.gain, push.gain, 1e-12);
  }
  // Window starting at `from` must skip it: [0, 4) with from = 0 and no
  // touched candidate cannot return 0. (Buckets 1 and 2 are touched here,
  // so restrict to [0, 1), where only `from` itself lies -> no target.)
  {
    const auto pull =
        gain.FindBestTarget(g, ndata, 0, 0, 0, 1, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sweep.Entries(0), 0, 0, 1, 2.0);
    EXPECT_EQ(pull.bucket, -1);
    EXPECT_EQ(push.bucket, -1);
  }
  // Window [3, 8) with from = 3: fallback must pick 4, never `from`.
  {
    std::vector<BucketId> moved = assignment;
    moved[0] = 3;
    QueryNeighborData nd2;
    nd2.Build(g, moved);
    AffinitySweep sw2;
    sw2.Build(g, nd2, gain.pow_table());
    const auto pull =
        gain.FindBestTarget(g, nd2, 0, 3, 3, 8, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sw2.Entries(0), 3, 3, 8, 2.0);
    EXPECT_EQ(pull.bucket, 4);
    EXPECT_EQ(push.bucket, 4);
  }
}

// ----------------------------------------------- group-restricted push scan
TEST(PullPushTargets, GroupedScanMatchesDirectSiblingEvaluation) {
  // The recursion scan: sparse sibling candidate sets (non-contiguous
  // bucket ids) against one unwindowed sweep, so every scan takes the
  // candidate-merge path. Reference =
  // direct per-sibling MoveGain argmax with first-candidate-wins ties —
  // exactly the grouped pull path of both engines.
  for (const double p : {0.1, 0.5, 0.9}) {
    const BipartiteGraph g = TestGraph(7);
    const BucketId k = 8;
    const auto assignment = Partition::Random(g.num_data(), k, 2).assignment();
    QueryNeighborData ndata;
    ndata.Build(g, assignment);
    const GainComputer gain(p, static_cast<uint32_t>(g.MaxQueryDegree()));
    AffinitySweep sweep;
    sweep.Build(g, ndata, gain.pow_table());

    const std::vector<std::vector<BucketId>> sibling_sets = {
        {0, 4}, {2, 3}, {1, 3, 5, 7}, {0, 2, 4, 6}};
    for (const auto& siblings : sibling_sets) {
      for (VertexId v = 0; v < g.num_data(); ++v) {
        if (g.DataDegree(v) == 0) continue;
        const BucketId from = assignment[v];
        if (std::find(siblings.begin(), siblings.end(), from) ==
            siblings.end()) {
          continue;  // vertex not in this group
        }
        GainComputer::BestTarget ref;
        bool first = true;
        for (BucketId candidate : siblings) {
          if (candidate == from) continue;
          const double gg = gain.MoveGain(g, ndata, v, from, candidate);
          if (first || gg > ref.gain) {
            ref.gain = gg;
            ref.bucket = candidate;
            first = false;
          }
        }
        const auto push = gain.FindBestTargetPushGrouped(
            sweep.Entries(v), from, std::span<const BucketId>(siblings),
            static_cast<double>(g.DataDegree(v)));
        ASSERT_EQ(ref.bucket == -1, push.bucket == -1)
            << "p=" << p << " v=" << v;
        if (ref.bucket == -1) continue;
        if (ref.bucket == push.bucket) {
          EXPECT_NEAR(ref.gain, push.gain, 1e-9 + 1e-6 * std::fabs(ref.gain))
              << "p=" << p << " v=" << v;
        } else {
          // Divergent picks are legal only on a gain tie, evaluated in the
          // pull frame (the PR 2 contract).
          const double g_ref = gain.MoveGain(g, ndata, v, from, ref.bucket);
          const double g_push = gain.MoveGain(g, ndata, v, from, push.bucket);
          EXPECT_NEAR(g_ref, g_push, 1e-9)
              << "p=" << p << " v=" << v << " ref->" << ref.bucket
              << " push->" << push.bucket;
        }
      }
    }
  }
}

TEST(PullPushTargets, GroupedFallbackPicksLowestSiblingNotFrom) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());

  // Siblings {0, 4, 6} from bucket 0: 4 and 6 are both empty — the grouped
  // pull argmax takes the first candidate ≠ from (= 4), so must the push
  // fallback; the gain is the empty-bucket gain.
  const std::vector<BucketId> siblings = {0, 4, 6};
  const auto push = gain.FindBestTargetPushGrouped(
      sweep.Entries(0), 0, std::span<const BucketId>(siblings), 2.0);
  EXPECT_EQ(push.bucket, 4);
  EXPECT_NEAR(push.gain, gain.MoveGain(g, ndata, 0, 0, 4), 1e-12);
  // A one-member "group" (from only) has no target.
  const std::vector<BucketId> lone = {0};
  EXPECT_EQ(gain.FindBestTargetPushGrouped(
                sweep.Entries(0), 0, std::span<const BucketId>(lone), 2.0)
                .bucket,
            -1);
}

// -------------------------------------- refiner-level tolerance equivalence
BipartiteGraph RefinerGraph() {
  SocialGraphConfig config;
  config.num_users = 700;
  config.avg_degree = 8;
  config.seed = 21;
  return GenerateSocialGraph(config);
}

class PullPushTrajectory
    : public testing::TestWithParam<MoveBrokerOptions::Strategy> {};

TEST_P(PullPushTrajectory, FanoutTrajectoriesAgreeWithinTolerance) {
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions pull_options;
  pull_options.exploration_probability = 0.05;
  pull_options.incremental_rebuild_fraction = 1.0;
  pull_options.broker.strategy = GetParam();
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;

  Partition p_pull = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_push = p_pull;
  Refiner pull(g, pull_options);
  Refiner push(g, push_options);

  for (uint64_t iter = 0; iter < 8; ++iter) {
    const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
    const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
    EXPECT_FALSE(a.push_sweep);
    EXPECT_TRUE(b.push_sweep);

    // Tolerance harness: the two scan directions accumulate floats in
    // different orders, so the trajectories agree to tolerance, not bits —
    // per-vertex proposals match modulo gain ties (the Debug build asserts
    // that inside RunIteration) and the end-to-end objective trajectory
    // stays within rtol 1e-6.
    const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
    const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
    ASSERT_NEAR(f_pull, f_push, 1e-6 * std::max(f_pull, f_push))
        << "iteration " << iter;
  }
  EXPECT_EQ(push.num_full_rebuilds(), 1u);
  EXPECT_EQ(push.num_sweep_builds(), 1u)
      << "steady state must patch, not rebuild, the accumulators";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PullPushTrajectory,
    testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                    MoveBrokerOptions::Strategy::kHistogramMatching,
                    MoveBrokerOptions::Strategy::kExactPairing));

TEST(PullPushTrajectory, FanoutLimitFallsBackToPull) {
  // p = 1, future_splits = 1 ⇒ pow base 0: the push gain formulas are
  // unavailable (they divide by B), so kAuto must run the pull path.
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.p = 1.0;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 3);
  Refiner refiner(g, options);
  const IterationStats stats = refiner.RunIteration(topo, &partition, 1, 0);
  EXPECT_FALSE(stats.push_sweep);
  EXPECT_EQ(refiner.num_sweep_builds(), 0u);
}

}  // namespace
}  // namespace shp
