// Tests of the streaming runtime (windowed, batch-parallel OnlineAlid):
// bit-identical stream state across executor counts and scheduling
// disciplines, and the streaming edge cases (empty window, duplicate
// inserts, remove-then-reinsert, refresh-interval boundaries).
#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 420, uint64_t seed = 91) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

OnlineAlidOptions Options(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// Streams `data` in a fixed shuffled order as batches of `batch`, returning
// the finished stream for state comparison.
std::unique_ptr<OnlineAlid> RunStream(const LabeledData& data,
                                      OnlineAlidOptions opts, Index batch) {
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    if (static_cast<Index>(flat.size()) / data.data.dim() == batch) {
      online->InsertBatch(flat);
      flat.clear();
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (!flat.empty()) online->InsertBatch(flat);
  online->Refresh();
  return online;
}

// The shuffled dataset followed by `probes` near-miss arrivals — jittered
// copies of data rows at 0.5x .. 8x magnitudes, some of which collide with
// a cluster's LSH buckets while scoring below its absorb threshold.
std::vector<Scalar> ArrivalMix(const LabeledData& data, Index probes) {
  const int dim = data.data.dim();
  Rng rng(5);
  std::vector<Scalar> flat;
  for (Index i : rng.Permutation(data.size())) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  for (Index q = 0; q < probes; ++q) {
    const auto row =
        data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
    const double magnitude = (1 << (q % 5)) * 0.5;
    for (int d = 0; d < dim; ++d) {
      flat.push_back(row[d] + rng.Gaussian() * magnitude);
    }
  }
  return flat;
}

// Streams a flat arrival sequence as batches of `batch`, then refreshes.
std::unique_ptr<OnlineAlid> RunFlatStream(const LabeledData& data,
                                          const OnlineAlidOptions& opts,
                                          Index batch,
                                          const std::vector<Scalar>& flat) {
  const int dim = data.data.dim();
  auto online = std::make_unique<OnlineAlid>(dim, opts);
  const Index count = static_cast<Index>(flat.size()) / dim;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    online->InsertBatch(std::span<const Scalar>(
        flat.data() + static_cast<size_t>(begin) * dim,
        static_cast<size_t>(size) * dim));
  }
  online->Refresh();
  return online;
}

// Full structural equality of two streams: clusters (order included),
// per-slot assignment/liveness, and every state-derived counter.
void ExpectIdenticalStreams(const OnlineAlid& a, const OnlineAlid& b) {
  DetectionResult da, db;
  da.clusters = a.clusters();
  db.clusters = b.clusters();
  ExpectIdenticalDetections(da, db);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alive(), b.alive());
  const StreamStats& sa = a.stats();
  const StreamStats& sb = b.stats();
  EXPECT_EQ(sa.arrivals, sb.arrivals);
  EXPECT_EQ(sa.absorbed, sb.absorbed);
  EXPECT_EQ(sa.pooled, sb.pooled);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.redetections, sb.redetections);
  EXPECT_EQ(sa.refreshes, sb.refreshes);
  EXPECT_EQ(sa.clusters_born, sb.clusters_born);
  EXPECT_EQ(sa.clusters_dissolved, sb.clusters_dissolved);
  // The refresh frontier schedule is deterministic too: its counters are
  // part of the bit-identity contract.
  EXPECT_EQ(sa.refresh_rounds, sb.refresh_rounds);
  EXPECT_EQ(sa.refresh_speculations, sb.refresh_speculations);
  EXPECT_EQ(sa.refresh_conflicts, sb.refresh_conflicts);
}

// Per-slot equality needs the slot universe; compare over the high-water
// slot count implied by assignments.
void ExpectIdenticalSlots(const OnlineAlid& a, const OnlineAlid& b,
                          Index slots) {
  for (Index i = 0; i < slots; ++i) {
    EXPECT_EQ(a.IsAlive(i), b.IsAlive(i)) << "slot " << i;
    EXPECT_EQ(a.ClusterOf(i), b.ClusterOf(i)) << "slot " << i;
  }
}

TEST(StreamTest, BitIdenticalAcrossExecutorCountsAndScheduling) {
  LabeledData data = Workload();
  OnlineAlidOptions opts = Options(data);
  opts.window = 260;  // evictions + repairs happen mid-stream
  const Index batch = 37;

  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, batch);
  ASSERT_GT(serial->clusters().size(), 0u);
  ASSERT_GT(serial->stats().evicted, 0);

  for (int executors : {1, 2, 4, 8}) {
    for (bool stealing : {true, false}) {
      ThreadPool pool(executors, {.work_stealing = stealing});
      OnlineAlidOptions parallel = opts;
      parallel.pool = &pool;
      std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, batch);
      SCOPED_TRACE(testing::Message() << "executors=" << executors
                                      << " stealing=" << stealing);
      ExpectIdenticalStreams(*serial, *streamed);
      ExpectIdenticalSlots(*serial, *streamed, opts.window + batch);
    }
  }
}

TEST(StreamTest, BitIdenticalAcrossGrains) {
  LabeledData data = Workload(360);
  OnlineAlidOptions opts = Options(data);
  opts.window = 220;
  ThreadPool pool(4);
  opts.pool = &pool;
  std::unique_ptr<OnlineAlid> automatic = RunStream(data, opts, 41);
  for (int64_t grain : {1, 7, 64}) {
    OnlineAlidOptions g = opts;
    g.grain = grain;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, g, 41);
    SCOPED_TRACE(testing::Message() << "grain=" << grain);
    ExpectIdenticalStreams(*automatic, *streamed);
  }
}

TEST(StreamTest, CacheOnEqualsCacheOffAfterInterleavedInsertRemove) {
  LabeledData data = Workload(380, 17);
  OnlineAlidOptions opts = Options(data);
  opts.window = 200;  // expiry interleaves with absorption and refreshes
  ThreadPool pool(4);
  OnlineAlidOptions pooled = opts;
  pooled.pool = &pool;

  std::unique_ptr<OnlineAlid> with = RunStream(data, pooled, 29);
  std::unique_ptr<OnlineAlid> without = RunStream(data, opts, 29);
  // Expired slots were re-used — otherwise this test proves nothing about
  // stale affinities.
  const Dataset& slots = with->oracle().data();
  ASSERT_GT(with->stats().evicted, 0);
  ASSERT_LT(slots.size(), data.size());
  ExpectIdenticalStreams(*with, *without);
  ExpectIdenticalSlots(*with, *without, opts.window + 29);

  // The oracle that served the whole stream answers exactly like a fresh
  // oracle over the slots' current rows: nothing of an expired occupant
  // survives, because the oracle keeps no entries.
  EXPECT_EQ(with->oracle().cache_hits(), 0);
  IndexList live;
  for (Index i = 0; i < slots.size(); ++i) {
    if (with->IsAlive(i)) live.push_back(i);
  }
  const Dataset current = slots.Subset(live);
  const AffinityFunction affinity(opts.affinity);
  const LazyAffinityOracle fresh(current, affinity);
  IndexList positions(live.size());
  for (size_t r = 0; r < live.size(); ++r) {
    positions[r] = static_cast<Index>(r);
  }
  for (size_t c = 0; c < live.size(); c += 7) {
    EXPECT_EQ(with->oracle().Column(live, live[c]),
              fresh.Column(positions, static_cast<Index>(c)))
        << "slot " << live[c];
  }
}

TEST(StreamTest, SlidingWindowBoundsAliveAndReleasesExpired) {
  LabeledData data = Workload(300);
  OnlineAlidOptions opts = Options(data);
  opts.window = 120;
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 25);
  EXPECT_EQ(online->alive(), 120);
  EXPECT_EQ(online->stats().evicted, online->size() - online->alive());
  // Every cluster member is alive and consistently assigned.
  for (size_t c = 0; c < online->clusters().size(); ++c) {
    for (Index m : online->clusters()[c].members) {
      EXPECT_TRUE(online->IsAlive(m));
      EXPECT_EQ(online->ClusterOf(m), static_cast<int>(c));
    }
  }
}

TEST(StreamTest, EmptyWindowEdges) {
  LabeledData data = Workload(60);
  // A window smaller than one batch: almost everything expires immediately.
  OnlineAlidOptions opts = Options(data);
  opts.window = 4;
  OnlineAlid online(data.data.dim(), opts);
  std::vector<Scalar> flat;
  for (Index i = 0; i < 16; ++i) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  online.InsertBatch(flat);
  EXPECT_EQ(online.alive(), 4);
  EXPECT_EQ(online.stats().evicted, 12);
  online.Refresh();  // refresh over a nearly empty window is fine
  // An empty batch is a no-op.
  EXPECT_TRUE(online.InsertBatch({}).empty());
  EXPECT_EQ(online.size(), 16);
}

TEST(StreamTest, DuplicateInsertsShareACluster) {
  LabeledData data = Workload(240);
  OnlineAlidOptions opts = Options(data);
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < data.size(); ++i) online.Insert(data.data[i]);
  online.Refresh();
  ASSERT_GT(online.clusters().size(), 0u);
  // Feed an exact duplicate of an already-clustered item: it must land in
  // the same cluster as its twin (it sits exactly at the density).
  Index clustered = -1;
  for (Index i = 0; i < data.size(); ++i) {
    if (online.ClusterOf(i) >= 0) {
      clustered = i;
      break;
    }
  }
  ASSERT_GE(clustered, 0);
  const int twin_cluster = online.ClusterOf(clustered);
  const Index dup = online.Insert(data.data[clustered]);
  EXPECT_GE(online.ClusterOf(dup), 0) << "duplicate not absorbed";
  EXPECT_EQ(online.ClusterOf(dup), online.ClusterOf(clustered));
  EXPECT_EQ(online.ClusterOf(clustered), twin_cluster);
}

TEST(StreamTest, MidBatchAbsorptionClaimsLaterArrivals) {
  // A batch of near-identical points next to an existing cluster: the first
  // arrival's local re-detection absorbs the still-unassigned later ones,
  // so their own apply step must notice the slot is already claimed instead
  // of re-detecting from a seed another cluster owns.
  LabeledData data = Workload(240);
  OnlineAlidOptions opts = Options(data);
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < data.size(); ++i) online.Insert(data.data[i]);
  online.Refresh();
  ASSERT_GT(online.clusters().size(), 0u);
  Index member = -1;
  for (Index i = 0; i < data.size(); ++i) {
    if (online.ClusterOf(i) >= 0) {
      member = i;
      break;
    }
  }
  ASSERT_GE(member, 0);
  const int64_t before = online.stats().absorbed;
  std::vector<Scalar> batch;
  for (int copy = 0; copy < 6; ++copy) {
    const auto row = data.data[member];
    batch.insert(batch.end(), row.begin(), row.end());
  }
  const std::vector<Index> slots = online.InsertBatch(batch);
  for (Index slot : slots) {
    EXPECT_GE(online.ClusterOf(slot), 0) << "duplicate not absorbed";
    EXPECT_EQ(online.ClusterOf(slot), online.ClusterOf(member));
  }
  EXPECT_EQ(online.stats().absorbed, before + 6);
  // Out-of-universe slots answer -1 instead of reading past the arrays.
  EXPECT_EQ(online.ClusterOf(online.size() + 1000), -1);
  EXPECT_FALSE(online.IsAlive(online.size() + 1000));
}

TEST(StreamTest, RemoveThenReinsertReusesTheSlot) {
  LabeledData data = Workload(150);
  OnlineAlidOptions opts = Options(data);
  opts.window = 50;
  opts.refresh_interval = 40;
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < 60; ++i) online.Insert(data.data[i]);
  // Ten arrivals expired, and each expiry freed a slot the next arrival
  // re-used — so the slot universe is bounded at window + 1 even though the
  // stream saw 60 items.
  EXPECT_EQ(online.alive(), 50);
  EXPECT_EQ(online.stats().evicted, 10);
  Index free_slot = -1;
  for (Index s = 0; s < 51; ++s) {
    if (!online.IsAlive(s)) {
      free_slot = s;
      break;
    }
  }
  ASSERT_GE(free_slot, 0) << "one expired slot should be free";
  // The next arrival — a *different* point — re-uses that slot, and queries
  // against it are fresh (no stale identity).
  const Index slot = online.Insert(data.data[100]);
  EXPECT_EQ(slot, free_slot);
  EXPECT_TRUE(online.IsAlive(slot));
  // Re-inserting an evicted point itself also works: it is a new arrival in
  // whatever slot expiry just freed.
  const Index again = online.Insert(data.data[1]);
  EXPECT_TRUE(online.IsAlive(again));
  EXPECT_LE(again, 51);
  EXPECT_EQ(online.size(), 62);
}

TEST(StreamTest, RefreshIntervalBoundary) {
  LabeledData data = Workload(200);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = 32;
  {
    OnlineAlid online(data.data.dim(), opts);
    for (Index i = 0; i < 31; ++i) online.Insert(data.data[i]);
    EXPECT_EQ(online.stats().refreshes, 0);
    online.Insert(data.data[31]);  // the 32nd arrival crosses the boundary
    EXPECT_EQ(online.stats().refreshes, 1);
  }
  {
    // The boundary also fires *inside* a batch: one batch of 40 arrivals
    // refreshes exactly once, after its 32nd item.
    OnlineAlid online(data.data.dim(), opts);
    std::vector<Scalar> flat;
    for (Index i = 0; i < 40; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 1);
    // 24 more arrivals complete the second interval.
    flat.clear();
    for (Index i = 40; i < 64; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 2);
  }
}

TEST(StreamTest, BatchInsertMatchesSingleInsertStats) {
  // Batches of one are the single-arrival path: the whole stream fed one
  // item at a time must equal the same stream fed as InsertBatch of 1.
  LabeledData data = Workload(260);
  OnlineAlidOptions opts = Options(data);
  opts.window = 150;
  std::unique_ptr<OnlineAlid> batched = RunStream(data, opts, 1);
  auto single = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  for (Index i : rng.Permutation(data.size())) {
    single->Insert(data.data[i]);
  }
  single->Refresh();
  ExpectIdenticalStreams(*batched, *single);
}

TEST(StreamTest, StatsCountersAddUp) {
  LabeledData data = Workload(300);
  OnlineAlidOptions opts = Options(data);
  opts.window = 180;
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 50);
  const StreamStats& s = online->stats();
  EXPECT_EQ(s.arrivals, 300);
  EXPECT_EQ(s.absorbed + s.pooled, s.arrivals);
  EXPECT_EQ(s.alive, online->alive());
  EXPECT_EQ(s.clusters_alive, static_cast<int>(online->clusters().size()));
  // One ingest-latency observation per batch: 300 arrivals / batches of 50.
  int64_t batches = -1;
  for (const obs::MetricSample& sample : online->metrics().Snapshot()) {
    if (sample.name == "ingest_seconds") batches = sample.count;
  }
  EXPECT_EQ(batches, 6);
}

TEST(StreamTest, ParallelRefreshSpeculatesAndStaysDeterministic) {
  // A large unassigned pool at refresh time drives the frontier past 1, so
  // the map stage actually speculates — and the streamed state must still
  // be bit-identical across executor counts.
  LabeledData data = Workload(480, 41);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = 400;  // let the pool grow before the first pass
  const std::vector<Scalar> flat = ArrivalMix(data, 40);
  std::unique_ptr<OnlineAlid> serial = RunFlatStream(data, opts, 80, flat);
  EXPECT_GT(serial->stats().refresh_rounds, 0);
  EXPECT_GT(serial->stats().refresh_speculations, 0);
  for (int executors : {2, 8}) {
    ThreadPool pool(executors);
    OnlineAlidOptions parallel = opts;
    parallel.pool = &pool;
    std::unique_ptr<OnlineAlid> streamed =
        RunFlatStream(data, parallel, 80, flat);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*serial, *streamed);
    ExpectIdenticalSlots(*serial, *streamed, serial->size());
  }
  // frontier = 1 pins the strictly-serial peel; the pool contents it
  // produces may differ from the speculative schedule's, but it must be
  // self-consistent across executors too.
  OnlineAlidOptions pinned = opts;
  pinned.refresh_frontier = 1;
  std::unique_ptr<OnlineAlid> pinned_serial =
      RunFlatStream(data, pinned, 80, flat);
  EXPECT_EQ(pinned_serial->stats().refresh_speculations, 0);
  ThreadPool pool(4);
  pinned.pool = &pool;
  std::unique_ptr<OnlineAlid> pinned_parallel =
      RunFlatStream(data, pinned, 80, flat);
  ExpectIdenticalStreams(*pinned_serial, *pinned_parallel);
  ExpectIdenticalSlots(*pinned_serial, *pinned_parallel,
                       pinned_serial->size());
}

TEST(StreamDeathTest, InsertBatchRejectsNonFiniteArrivals) {
  // The input contract is checked at the door, before any slot is written
  // or any coordinate reaches the LSH key cast.
  LabeledData data = Workload(40);
  const int dim = data.data.dim();
  for (Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                     std::numeric_limits<Scalar>::infinity(),
                     -std::numeric_limits<Scalar>::infinity()}) {
    std::vector<Scalar> flat(data.data.RawRows(0, 3).begin(),
                             data.data.RawRows(0, 3).end());
    flat[static_cast<size_t>(dim) + 2] = bad;
    EXPECT_DEATH(
        {
          OnlineAlid online(dim, Options(data));
          online.InsertBatch(flat);
        },
        "AllFinite");
  }
}

}  // namespace
}  // namespace alid
