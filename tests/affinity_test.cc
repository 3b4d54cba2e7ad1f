// Unit tests for the affinity substrate: the Eq. 1 kernel, the materialized
// matrix, the lazy column oracle and the sparsifiers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "affinity/affinity_function.h"
#include "affinity/affinity_matrix.h"
#include "affinity/lazy_affinity_oracle.h"
#include "affinity/sparsifier.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "simd/simd_dispatch.h"

namespace alid {
namespace {

Dataset SmallLine() {
  // Four points on a line: 0, 1, 2, 10.
  return Dataset(1, {0.0, 1.0, 2.0, 10.0});
}

TEST(AffinityFunctionTest, LaplacianKernelValues) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 0, 1), std::exp(-1.0));
  EXPECT_DOUBLE_EQ(f(d, 0, 2), std::exp(-2.0));
}

TEST(AffinityFunctionTest, DiagonalIsZero) {
  AffinityFunction f({.k = 2.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 2, 2), 0.0);
}

TEST(AffinityFunctionTest, SymmetricByConstruction) {
  AffinityFunction f({.k = 0.7, .p = 1.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 0, 3), f(d, 3, 0));
}

TEST(AffinityFunctionTest, ScalingFactorSharpensDecay) {
  AffinityFunction slow({.k = 0.1, .p = 2.0});
  AffinityFunction fast({.k = 5.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_GT(slow(d, 0, 3), fast(d, 0, 3));
}

TEST(AffinityFunctionTest, DistanceRoundTrip) {
  AffinityFunction f({.k = 3.0, .p = 2.0});
  const Scalar a = f.FromDistance(1.7);
  EXPECT_NEAR(f.ToDistance(a), 1.7, 1e-12);
}

TEST(AffinityFunctionTest, SuggestScalingFactorHitsTarget) {
  Rng rng(5);
  Dataset d(4);
  for (int i = 0; i < 200; ++i) {
    std::vector<Scalar> p(4);
    for (auto& v : p) v = rng.Gaussian();
    d.Append(p);
  }
  const double k = AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 500);
  // With k tuned, the median pair should land near affinity 0.5.
  AffinityFunction f({.k = k, .p = 2.0});
  int above = 0, total = 0;
  for (Index i = 0; i < 40; ++i) {
    for (Index j = i + 1; j < 40; ++j) {
      above += f(d, i, j) > 0.5;
      ++total;
    }
  }
  const double frac = static_cast<double>(above) / total;
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(AffinityFunctionDeathTest, SuggestScalingFactorRejectsEmptySample) {
  Dataset d = SmallLine();
  // sample_size <= 0 used to read dists[dists.size() / 2] of an empty
  // vector; now it aborts with a message instead of returning garbage.
  EXPECT_DEATH(AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 0),
               "at least one sampled distance");
  EXPECT_DEATH(AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, -7),
               "at least one sampled distance");
}

TEST(AffinityFunctionTest, SuggestScalingFactorSingleSampleIsFinite) {
  Dataset d = SmallLine();
  // The smallest legal sample: one distance is its own median.
  const double k = AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 1);
  EXPECT_TRUE(std::isfinite(k));
  EXPECT_GT(k, 0.0);
}

TEST(AffinityMatrixTest, MatchesKernelEntrywise) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  AffinityMatrix a(d, f);
  for (Index i = 0; i < d.size(); ++i) {
    for (Index j = 0; j < d.size(); ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), f(d, i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(a.entries_computed(), 6);  // n(n-1)/2 kernel evaluations
}

TEST(AffinityMatrixTest, ChargesMemoryTracker) {
  MemoryTracker::Global().Reset();
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  {
    AffinityMatrix a(d, f);
    EXPECT_EQ(MemoryTracker::Global().current_bytes(),
              static_cast<int64_t>(16 * sizeof(Scalar)));
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), 0);
}

TEST(LazyAffinityOracleTest, EntryMatchesKernelAndCounts) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  EXPECT_DOUBLE_EQ(o.Entry(0, 1), std::exp(-1.0));
  EXPECT_DOUBLE_EQ(o.Entry(1, 1), 0.0);
  EXPECT_EQ(o.entries_computed(), 2);
}

TEST(LazyAffinityOracleTest, ColumnFragment) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  IndexList rows{0, 2, 3};
  auto col = o.Column(rows, 1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[0], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(col[1], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(col[2], std::exp(-9.0));
  EXPECT_EQ(o.entries_computed(), 3);
}

TEST(LazyAffinityOracleTest, ColumnBitEqualsEntryForEveryNormAndIsa) {
  // p = 2 and p = 1 run gathered through the SIMD tile kernels, p = 3 takes
  // the scalar fallback; every path must reproduce Entry(row, col) bit for
  // bit, diagonal 0 included, and count one kernel evaluation per row.
  Rng rng(7);
  std::vector<Scalar> values(40 * 13);
  for (Scalar& v : values) v = rng.Gaussian(0.0, 3.0);
  const Dataset d(13, values);
  const Index col = 5;
  const IndexList empty;
  const IndexList diagonal = {col};
  // A full tile plus a tail, containing col.
  const IndexList tiles = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const IndexList duplicates = {9, 9, 5, 30, 9, 0, 39, 5, 17, 17, 22, 3};
  for (const SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimdIsaOverride pin(isa);
    SCOPED_TRACE(SimdIsaName(isa));
    for (const double p : {1.0, 2.0, 3.0}) {
      SCOPED_TRACE(p);
      const AffinityFunction f({.k = 0.2, .p = p});
      const LazyAffinityOracle o(d, f);
      for (const IndexList& rows : {empty, diagonal, tiles, duplicates}) {
        const int64_t before = o.entries_computed();
        const std::vector<Scalar> column = o.Column(rows, col);
        EXPECT_EQ(o.entries_computed() - before,
                  static_cast<int64_t>(rows.size()));
        ASSERT_EQ(column.size(), rows.size());
        for (size_t r = 0; r < rows.size(); ++r) {
          EXPECT_EQ(column[r], o.Entry(rows[r], col)) << "row " << rows[r];
          if (rows[r] == col) {
            EXPECT_EQ(column[r], 0.0);
          }
        }
      }
    }
  }
}

TEST(LazyAffinityOracleTest, ChargeDischargePeak) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  o.Charge(100);
  o.Charge(200);
  EXPECT_EQ(o.current_bytes(), 300);
  o.Discharge(250);
  EXPECT_EQ(o.current_bytes(), 50);
  EXPECT_EQ(o.peak_bytes(), 300);
  o.ResetCounters();
  EXPECT_EQ(o.peak_bytes(), 0);
}

// The contracts the former shared column cache gave the oracle's callers,
// which the stateless oracle keeps without one: repeated requests return
// identical values, entries_computed counts true kernel work with hits
// reported apart (always 0), concurrent use is consistent, and a re-used
// slot never serves its previous occupant's affinities.
LabeledData CacheData(Index n = 120) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 8;
  cfg.num_clusters = 3;
  cfg.seed = 11;
  return MakeSynthetic(cfg);
}

TEST(ColumnCacheTest, OracleCountsHitsSeparatelyFromEntriesComputed) {
  LabeledData data = CacheData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);

  IndexList rows;
  for (Index i = 0; i < 40; ++i) rows.push_back(i);
  auto first = oracle.Column(rows, 100);
  EXPECT_EQ(oracle.entries_computed(), 40);
  EXPECT_EQ(oracle.cache_hits(), 0);

  auto second = oracle.Column(rows, 100);
  EXPECT_EQ(oracle.entries_computed(), 80);  // repeat work is recomputed ...
  EXPECT_EQ(oracle.cache_hits(), 0);         // ... never reported as hits
  EXPECT_EQ(first, second);

  // Single entries agree with the column, including transposed.
  EXPECT_EQ(oracle.Entry(100, 5), first[5]);
  EXPECT_EQ(oracle.entries_computed(), 81);
  EXPECT_EQ(oracle.cache_hits(), 0);
}

TEST(ColumnCacheTest, CachedValuesMatchUncachedOracle) {
  LabeledData data = CacheData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle served(data.data, affinity);
  IndexList rows;
  for (Index i = 10; i < 60; ++i) rows.push_back(i);
  for (Index col : {0, 5, 99, 100}) {
    // A long-lived oracle answers repeat requests exactly like a fresh one
    // and like the kernel itself.
    const LazyAffinityOracle fresh(data.data, affinity);
    const std::vector<Scalar> expected = fresh.Column(rows, col);
    EXPECT_EQ(served.Column(rows, col), expected) << col;
    EXPECT_EQ(served.Column(rows, col), expected) << col;
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(expected[r], affinity(data.data, rows[r], col)) << col;
    }
  }
}

TEST(ColumnCacheTest, DisableRestoresStatelessOracle) {
  LabeledData data = CacheData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  // Stateless from construction: no budget, no hits, no evictions, and
  // every repeated entry is a kernel evaluation.
  EXPECT_EQ(oracle.cache_budget_bytes(), 0);
  oracle.Entry(1, 2);
  oracle.Entry(1, 2);
  EXPECT_EQ(oracle.entries_computed(), 2);
  EXPECT_EQ(oracle.cache_hits(), 0);
  EXPECT_EQ(oracle.cache_evictions(), 0);
  const int64_t before = oracle.entries_computed();
  oracle.Entry(1, 2);
  EXPECT_EQ(oracle.entries_computed(), before + 1);
}

TEST(ColumnCacheTest, EraseItemsInvalidatesLazilyOnLookup) {
  LabeledData data = CacheData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  Dataset slots = data.data;
  LazyAffinityOracle oracle(slots, affinity);
  const Scalar unrelated = oracle.Entry(3, 11);
  const Scalar expired = oracle.Entry(1, 10);

  // Re-use slot 10 for item 50, as the streaming runtime re-uses expired
  // slots: the very next lookup serves the new occupant, with nothing to
  // invalidate first.
  const auto row = data.data[50];
  std::copy(row.begin(), row.end(), slots.MutableRow(10).begin());
  EXPECT_NE(oracle.Entry(1, 10), expired);
  EXPECT_EQ(oracle.Entry(1, 10), affinity(data.data, 1, 50));
  EXPECT_EQ(oracle.Entry(10, 2), affinity(data.data, 50, 2));
  const IndexList rows = {1, 2, 11};
  const std::vector<Scalar> column = oracle.Column(rows, 10);
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(column[r], affinity(data.data, rows[r], 50)) << rows[r];
  }
  // The unrelated pair is unchanged.
  EXPECT_EQ(oracle.Entry(3, 11), unrelated);
}

TEST(ColumnCacheTest, ConcurrentMixedUseIsConsistent) {
  LabeledData data = CacheData(200);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  const LazyAffinityOracle reference(data.data, affinity);

  IndexList rows;
  for (Index i = 0; i < 80; ++i) rows.push_back(i);
  constexpr int kThreads = 4;
  constexpr int kReps = 20;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const Index col = 100 + (t * 20 + rep) % 50;
        if (oracle.Column(rows, col) != reference.Column(rows, col)) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(oracle.cache_hits(), 0);
  EXPECT_EQ(oracle.entries_computed(),
            static_cast<int64_t>(kThreads * kReps * rows.size()));
}

TEST(SparsifierTest, DenseCsrMatchesAffinityMatrix) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  AffinityMatrix dense(d, f);
  SparseMatrix csr = Sparsifier::Dense(d, f);
  for (Index i = 0; i < d.size(); ++i) {
    for (Index j = 0; j < d.size(); ++j) {
      EXPECT_NEAR(csr.At(i, j), dense(i, j), 1e-15);
    }
  }
}

TEST(SparsifierTest, EnnKeepsNearestNeighbours) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  SparseMatrix m = Sparsifier::FromExactNearestNeighbors(d, f, 1);
  // Point 0's nearest neighbour is 1; symmetric entries must exist.
  EXPECT_GT(m.At(0, 1), 0.0);
  EXPECT_GT(m.At(1, 0), 0.0);
  // The far point 3 keeps only its own nearest (2), nothing to 0 unless
  // induced by symmetrization of 0's list.
  EXPECT_DOUBLE_EQ(m.At(0, 3), 0.0);
}

TEST(SparsifierTest, EnnIsSymmetric) {
  SyntheticConfig cfg;
  cfg.n = 60;
  cfg.dim = 4;
  cfg.num_clusters = 3;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.5;
  LabeledData data = MakeSynthetic(cfg);
  AffinityFunction f({.k = data.suggested_k, .p = 2.0});
  SparseMatrix m = Sparsifier::FromExactNearestNeighbors(data.data, f, 5);
  for (Index i = 0; i < m.rows(); ++i) {
    auto idx = m.RowIndices(i);
    for (Index j : idx) {
      EXPECT_NEAR(m.At(i, j), m.At(j, i), 1e-15);
    }
  }
}

TEST(SparsifierTest, LshCollisionsKeepClusterEdgesAndStaySparse) {
  SyntheticConfig cfg;
  cfg.n = 400;
  cfg.dim = 16;
  cfg.num_clusters = 4;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.5;
  cfg.mean_box = 200.0;
  LabeledData data = MakeSynthetic(cfg);
  AffinityFunction f({.k = data.suggested_k, .p = 2.0});
  LshParams lp;
  lp.num_tables = 6;
  lp.num_projections = 6;
  lp.segment_length = data.suggested_lsh_r;
  LshIndex lsh(data.data, lp);
  SparseMatrix m = Sparsifier::FromLshCollisions(data.data, f, lsh);
  // Sparse: far fewer than n^2 entries.
  EXPECT_LT(m.nnz(), static_cast<int64_t>(cfg.n) * cfg.n / 4);
  // Dense within clusters: each ground-truth item should keep some edges.
  int with_edges = 0, truth = 0;
  for (Index i = 0; i < m.rows(); ++i) {
    if (data.labels[i] < 0) continue;
    ++truth;
    if (!m.RowIndices(i).empty()) ++with_edges;
  }
  EXPECT_GT(with_edges, truth * 8 / 10);
}

}  // namespace
}  // namespace alid
