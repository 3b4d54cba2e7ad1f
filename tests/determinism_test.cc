// Determinism regression tests for the parallel runtime: PALID's output must
// be bit-identical across executor counts, chunk sizes and scheduling
// disciplines.
#include <memory>

#include <gtest/gtest.h>

#include "core/palid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 500) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 12;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = 23;
  return MakeSynthetic(cfg);
}

struct Fixture : TestPipeline {
  explicit Fixture(const LabeledData& labeled) : TestPipeline(labeled) {}
  DetectionResult Detect(PalidOptions opts) const {
    return Palid(*oracle, *lsh, opts).Detect();
  }
};

// Full structural equality, including cluster order: the runtime promises
// seed-ordered reduce output, not merely the same set of clusters.
void ExpectIdentical(const DetectionResult& a, const DetectionResult& b) {
  ExpectIdenticalDetections(a, b);
}

TEST(DeterminismTest, IdenticalAcrossExecutorCounts) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions one;
  one.num_executors = 1;
  PalidOptions four;
  four.num_executors = 4;
  PalidOptions eight;
  eight.num_executors = 8;
  DetectionResult r1 = fx.Detect(one);
  ASSERT_FALSE(r1.clusters.empty());
  ExpectIdentical(r1, fx.Detect(four));
  ExpectIdentical(r1, fx.Detect(eight));
}

TEST(DeterminismTest, IdenticalAcrossChunkSizes) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions fine;
  fine.num_executors = 4;
  fine.chunk_size = 1;
  PalidOptions coarse;
  coarse.num_executors = 4;
  coarse.chunk_size = 64;
  PalidOptions automatic;
  automatic.num_executors = 4;
  ExpectIdentical(fx.Detect(fine), fx.Detect(coarse));
  ExpectIdentical(fx.Detect(fine), fx.Detect(automatic));
}

TEST(DeterminismTest, IdenticalUnderFifoAblation) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions stealing;
  stealing.num_executors = 4;
  PalidOptions fifo;
  fifo.num_executors = 4;
  fifo.work_stealing = false;
  ExpectIdentical(fx.Detect(stealing), fx.Detect(fifo));
}

TEST(DeterminismTest, SeedSamplingIndependentOfExecutors) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions one;
  one.num_executors = 1;
  PalidOptions eight;
  eight.num_executors = 8;
  EXPECT_EQ(Palid(*fx.oracle, *fx.lsh, one).SampleSeeds(),
            Palid(*fx.oracle, *fx.lsh, eight).SampleSeeds());
}

TEST(DeterminismTest, ColumnCacheNeverChangesDetections) {
  // The oracle carries no kernel entries from one detection to the next: a
  // run on an oracle that already served a full detection matches a run on
  // a fresh oracle, and redoes the same kernel work instead of reusing it.
  LabeledData data = Workload();
  Fixture fresh(data);
  Fixture served(data);
  PalidOptions opts;
  opts.num_executors = 4;
  served.Detect(opts);
  served.oracle->ResetCounters();
  DetectionResult first = fresh.Detect(opts);
  DetectionResult again = served.Detect(opts);
  ExpectIdentical(first, again);
  EXPECT_EQ(served.oracle->entries_computed(),
            fresh.oracle->entries_computed());
  EXPECT_EQ(served.oracle->cache_hits(), 0);

  // And a run at a different executor count on the served oracle matches.
  PalidOptions two;
  two.num_executors = 2;
  ExpectIdentical(first, served.Detect(two));
}

TEST(DeterminismTest, RepeatedRunsAreIdentical) {
  LabeledData data = Workload(300);
  Fixture fx(data);
  PalidOptions opts;
  opts.num_executors = 3;
  DetectionResult r1 = fx.Detect(opts);
  DetectionResult r2 = fx.Detect(opts);
  ExpectIdentical(r1, r2);
}

}  // namespace
}  // namespace alid
