// Tests of the benchmark harness helpers: the tail percentile, self time from
// child spans, the state digest and the purity of the input generators.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "generators.h"
#include "harness.h"

namespace e2ebench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailTest, TwoHundredSamplesGiveP95) {
  const TailSummary s = SummarizeTail(Ramp(200));
  EXPECT_EQ(s.samples, 200);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);  // ten samples (191..200) lie beyond
  EXPECT_DOUBLE_EQ(s.p50, 100.5);
}

TEST(TailTest, LargeSetsStayAtP95) {
  const TailSummary s = SummarizeTail(Ramp(100000));
  EXPECT_DOUBLE_EQ(s.p50, 50000.5);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 95000.0);
}

TEST(TailTest, HundredSamplesGiveP90) {
  const TailSummary s = SummarizeTail(Ramp(100));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
}

TEST(TailTest, OddCountsUseTheExactRank) {
  const TailSummary s = SummarizeTail(Ramp(37));
  EXPECT_NEAR(s.tail_percentile, 100.0 * 27 / 37, 1e-12);
  EXPECT_DOUBLE_EQ(s.tail, 27.0);
  EXPECT_DOUBLE_EQ(s.p50, 19.0);
}

TEST(TailTest, TwentySamplesReachTheMedianOnly) {
  const TailSummary s = SummarizeTail(Ramp(20));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 50.0);
  EXPECT_DOUBLE_EQ(s.tail, 10.0);
}

TEST(TailTest, FewSamplesFallBackToTheMedian) {
  const TailSummary s = SummarizeTail(Ramp(7));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 50.0);
  EXPECT_DOUBLE_EQ(s.tail, 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 4.0);
  EXPECT_EQ(SummarizeTail({}).samples, 0);
}

TEST(LatencySampleTest, KeepsEverythingUnderCapacity) {
  LatencySample sample(5);
  for (int i = 0; i < 4; ++i) sample.Add(i);
  EXPECT_EQ(sample.values(), (std::vector<double>{0, 1, 2, 3}));
  EXPECT_EQ(sample.seen(), 4);
}

TEST(LatencySampleTest, BoundsTheSampleUniformly) {
  LatencySample sample(1000);
  for (int i = 0; i < 100000; ++i) sample.Add(i);
  EXPECT_EQ(sample.values().size(), 1000u);
  EXPECT_EQ(sample.seen(), 100000);
  // A uniform sample of 0..99999 has its median near 50000.
  EXPECT_NEAR(Median(sample.values()), 50000.0, 5000.0);
}

SpanRecord At(int64_t start, int64_t end, int32_t parent) {
  SpanRecord s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, ChildrenAreSubtracted) {
  const std::vector<SpanRecord> spans = {At(0, 100, -1), At(10, 30, 0),
                                         At(40, 60, 0), At(45, 50, 2)};
  const std::vector<double> self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 60e-9);
  EXPECT_DOUBLE_EQ(self[1], 20e-9);
  EXPECT_DOUBLE_EQ(self[2], 15e-9);  // its own child is subtracted
  EXPECT_DOUBLE_EQ(self[3], 5e-9);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const std::vector<SpanRecord> spans = {At(0, 100, -1), At(10, 50, 0),
                                         At(30, 70, 0), At(90, 120, 0)};
  // Covered: [10, 70) and [90, 100) after clipping to the parent.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans)[0], 30e-9);
}

TEST(SelfTimeTest, RecordedSpansNestByScope) {
  Tracer tracer;
  ThreadTrace* trace = tracer.NewThread("t");
  {
    ScopedSpan outer(trace, "outer", 7);
    ScopedSpan inner(trace, "inner");
  }
  ScopedSpan untraced(nullptr, "ignored");
  ASSERT_EQ(trace->spans().size(), 2u);
  EXPECT_EQ(trace->spans()[1].parent, 0);
  EXPECT_EQ(trace->spans()[1].id, 7);  // inherits the enclosing id
  const auto layers = tracer.LayerTimes();
  EXPECT_EQ(layers.at("outer").calls, 1);
  EXPECT_EQ(layers.at("inner").calls, 1);
  EXPECT_EQ(tracer.SpanCount(), 2);
}

alid::Cluster MakeCluster(std::vector<alid::Index> members,
                          std::vector<double> weights) {
  alid::Cluster c;
  c.members = std::move(members);
  c.weights = std::move(weights);
  return c;
}

uint64_t DigestOf(const std::vector<alid::Cluster>& clusters) {
  Digest d;
  d.AddClusters(clusters);
  return d.value();
}

TEST(DigestTest, EqualStatesDigestEqual) {
  const std::vector<alid::Cluster> a = {MakeCluster({1, 2}, {0.5, 0.5})};
  EXPECT_EQ(DigestOf(a), DigestOf(a));
}

TEST(DigestTest, OneWeightBitChangesTheDigest) {
  const std::vector<alid::Cluster> a = {MakeCluster({1, 2}, {0.5, 0.5})};
  std::vector<alid::Cluster> b = a;
  b[0].weights[1] = std::nextafter(0.5, 1.0);
  EXPECT_NE(DigestOf(a), DigestOf(b));
}

TEST(DigestTest, MembershipAndGroupingMatter) {
  const std::vector<alid::Cluster> a = {MakeCluster({1, 2}, {0.5, 0.5})};
  const std::vector<alid::Cluster> b = {MakeCluster({1, 3}, {0.5, 0.5})};
  const std::vector<alid::Cluster> split = {MakeCluster({1}, {0.5}),
                                            MakeCluster({2}, {0.5})};
  EXPECT_NE(DigestOf(a), DigestOf(b));
  EXPECT_NE(DigestOf(a), DigestOf(split));
}

TEST(GeneratorTest, BatchesArePureFunctionsOfSeedAndIndex) {
  const ZipfStreamParams zipf;
  const ChurnStreamParams churn;
  const Rows later = ZipfBatch(zipf, 5, 9);
  ZipfBatch(zipf, 5, 3);  // no hidden state between calls
  EXPECT_EQ(ZipfBatch(zipf, 5, 9).points, later.points);
  EXPECT_EQ(ZipfBatch(zipf, 5, 9).labels, later.labels);
  EXPECT_NE(ZipfBatch(zipf, 6, 9).points, later.points);
  EXPECT_EQ(ChurnBatch(churn, 5, 4).points, ChurnBatch(churn, 5, 4).points);
  EXPECT_NE(ChurnBatch(churn, 5, 4).points, ChurnBatch(churn, 5, 5).points);
  EXPECT_EQ(later.count(), zipf.batch);
}

TEST(GeneratorTest, ChurnSlotsLiveForTheirLifetime) {
  const ChurnStreamParams p;
  for (int slot = 0; slot < p.slots; ++slot) {
    int live = 0;
    for (int64_t t = 100; t < 100 + p.period; ++t) {
      int64_t generation = 0;
      live += ChurnSlotLive(p, 3, slot, t, &generation) ? 1 : 0;
    }
    EXPECT_EQ(live, p.lifetime) << "slot " << slot;
  }
}

TEST(GeneratorTest, StaticSetPlantsItsWords) {
  SiftLikeParams p;
  p.n = 400;
  p.words = 4;
  const Rows rows = SiftLikeSet(p, 11);
  ASSERT_EQ(rows.count(), 400);
  int planted = 0;
  for (int64_t label : rows.labels) planted += label >= 0 ? 1 : 0;
  EXPECT_EQ(planted, 4 * 30);  // word_fraction 0.3 split over 4 words
  EXPECT_EQ(SiftLikeSet(p, 11).points, rows.points);
}

}  // namespace
}  // namespace e2ebench
