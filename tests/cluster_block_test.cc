// Tests of the sealed cluster representation shared by the stream and the
// serving snapshots: the ClusterBlock factory carries the cluster's rows,
// keys and an exactly verified density, BlockAffinity is the Theorem-1 sum
// on either kernel path, and the stream reseals a cluster's block exactly
// when its version moves — the pointer identity snapshots share blocks by.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/alid.h"
#include "core/cluster_block.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "serve/cluster_snapshot.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 420, uint64_t seed = 17) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

// x^T A x as the plain per-entry double loop over the dataset rows.
Scalar QuadraticForm(const Dataset& data, const Cluster& cluster,
                     const AffinityFunction& kernel) {
  Scalar density = 0.0;
  for (size_t t = 0; t < cluster.members.size(); ++t) {
    for (size_t u = 0; u < cluster.members.size(); ++u) {
      density += cluster.weights[t] * cluster.weights[u] *
                 kernel(data, cluster.members[t], cluster.members[u]);
    }
  }
  return density;
}

// Per table, the sorted distinct ComputePointKeys of the cluster's rows.
std::vector<std::vector<uint64_t>> DistinctMemberKeys(const Dataset& data,
                                                      const Cluster& cluster,
                                                      const LshHasher& hasher) {
  std::vector<std::vector<uint64_t>> tables(
      static_cast<size_t>(hasher.num_tables()));
  std::vector<uint64_t> keys(tables.size());
  for (Index m : cluster.members) {
    hasher.ComputePointKeys(data[m], keys.data());
    for (size_t t = 0; t < tables.size(); ++t) tables[t].push_back(keys[t]);
  }
  for (auto& table : tables) {
    std::sort(table.begin(), table.end());
    table.erase(std::unique(table.begin(), table.end()), table.end());
  }
  return tables;
}

std::vector<std::vector<uint64_t>> TableKeys(const ClusterBlock& block) {
  std::vector<std::vector<uint64_t>> tables;
  for (int t = 0; t < block.num_tables(); ++t) {
    const auto keys = block.table_keys(t);
    tables.emplace_back(keys.begin(), keys.end());
  }
  return tables;
}

TEST(ClusterBlockTest, BuildCarriesTheClusterAndScoresLikeTheScalarLoop) {
  LabeledData data = Workload(300, 3);
  TestPipeline pipeline(data);
  const DetectionResult detected =
      AlidDetector(*pipeline.oracle, *pipeline.lsh).DetectAll();
  ASSERT_GT(detected.clusters.size(), 0u);
  const LshHasher& hasher = *pipeline.lsh->hasher();
  // Seeded apart from the index's, as FromClusters seeds its own.
  const LshHasher fresh_hasher(data.data.dim(), pipeline.lsh->params());
  Rng rng(11);
  // p = 2 takes the tile path, p = 1.5 (no tile kernel) the row path; both
  // must give the scalar loops' bits.
  for (const double p : {2.0, 1.5}) {
    SCOPED_TRACE(testing::Message() << "p = " << p);
    const AffinityFunction kernel({.k = data.suggested_k, .p = p});
    for (const Cluster& cluster : detected.clusters) {
      const int64_t arena_before = SnapshotArenaTracker().current_bytes();
      std::shared_ptr<const ClusterBlock> block =
          ClusterBlock::Build(data.data, cluster, hasher, kernel,
                              pipeline.lsh.get());
      ASSERT_EQ(block->count, static_cast<Index>(cluster.members.size()));
      EXPECT_EQ(block->source_ids, cluster.members);
      EXPECT_EQ(block->weights, cluster.weights);
      EXPECT_EQ(block->cluster_soa.empty(), !SimdSupportsNorm(p));
      for (Index t = 0; t < block->count; ++t) {
        const auto row = data.data[cluster.members[t]];
        EXPECT_TRUE(std::equal(row.begin(), row.end(),
                               block->row(t).begin()));
      }
      // Each table's keys are the sorted distinct keys of the member rows,
      // both when read from the index's stored keys (the stream's path) and
      // when hashed from the gathered rows (FromClusters').
      const auto expected_keys = DistinctMemberKeys(data.data, cluster, hasher);
      EXPECT_EQ(TableKeys(*block), expected_keys);
      EXPECT_EQ(TableKeys(*ClusterBlock::Build(data.data, cluster,
                                               fresh_hasher, kernel)),
                expected_keys);
      EXPECT_EQ(block->verified_density,
                QuadraticForm(data.data, cluster, kernel));
      // Sealing charged the arena exactly the block's bytes.
      EXPECT_EQ(SnapshotArenaTracker().current_bytes() - arena_before,
                static_cast<int64_t>(block->MemoryBytes()));

      for (int q = 0; q < 8; ++q) {
        std::vector<Scalar> probe(static_cast<size_t>(data.data.dim()));
        const auto row = data.data[cluster.members[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(cluster.members.size()) - 1))]];
        for (int d = 0; d < data.data.dim(); ++d) {
          probe[d] = row[d] + rng.Gaussian() * 0.5;
        }
        Scalar expected = 0.0;
        for (size_t t = 0; t < cluster.members.size(); ++t) {
          expected += cluster.weights[t] *
                      kernel.FromDistance(data.data.DistanceTo(
                          cluster.members[t], probe, p));
        }
        EXPECT_EQ(BlockAffinity(*block, kernel, probe), expected);
      }
      block.reset();
      EXPECT_EQ(SnapshotArenaTracker().current_bytes(), arena_before);
    }
  }
}

// How often each reseal rule fired over one streamed run.
struct ResealCounts {
  int kept = 0;            // version unchanged -> same pointer
  int absorbed = 0;        // re-detected around an arrival -> new pointer
  int lost_to_expiry = 0;  // a member expired -> new pointer
};

// Streams `data` (then localized bursts around one planted cluster) in
// batches and, after every batch, checks each surviving cluster's block
// against its state before the batch: the pointer is kept iff the version
// stood still. Also checks that the block describes the live cluster and
// that a stream export shares the stream's own block and hasher pointers.
ResealCounts StreamAndCheckReseals(const LabeledData& data, Index window) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  opts.window = window;
  const int dim = data.data.dim();
  OnlineAlid online(dim, opts);
  Rng rng(5);
  const std::vector<Index> order = rng.Permutation(data.size());
  Rng jitter(29);

  // Holds the old block alive, so a reseal can never hand out its address
  // again and fake a kept pointer.
  struct Before {
    uint64_t version;
    std::shared_ptr<const ClusterBlock> block;
    IndexList members;
  };
  ResealCounts counts;
  Index pos = 0;
  for (int localized = 0; pos < data.size() || localized < 6;) {
    std::vector<Scalar> flat;
    if (pos < data.size()) {
      for (const Index end = std::min<Index>(pos + 40, data.size()); pos < end;
           ++pos) {
        const auto row = data.data[order[pos]];
        flat.insert(flat.end(), row.begin(), row.end());
      }
    } else {
      ++localized;
      const IndexList& burst = data.true_clusters[0];
      for (int q = 0; q < 30; ++q) {
        const auto row = data.data[burst[static_cast<size_t>(
            jitter.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
        for (int d = 0; d < dim; ++d) {
          flat.push_back(row[d] + jitter.Gaussian() * 0.2);
        }
      }
    }
    std::map<uint64_t, Before> before;
    for (int c = 0; c < static_cast<int>(online.clusters().size()); ++c) {
      before[online.cluster_uid(c)] = {online.cluster_version(c),
                                       online.cluster_block(c),
                                       online.clusters()[c].members};
    }
    const std::vector<Index> slots = online.InsertBatch(flat);
    SCOPED_TRACE(testing::Message() << "arrivals " << online.size());

    const auto snap = ClusterSnapshot::FromStream(online);
    // The export keys queries with the stream's own hasher: publishing
    // seeds no projection tables.
    EXPECT_EQ(snap->hasher(), online.lsh().hasher());
    for (int c = 0; c < static_cast<int>(online.clusters().size()); ++c) {
      const Cluster& cluster = online.clusters()[c];
      const ClusterBlock& block = *online.cluster_block(c);
      EXPECT_EQ(block.source_ids, cluster.members) << "cluster " << c;
      EXPECT_EQ(block.weights, cluster.weights) << "cluster " << c;
      EXPECT_EQ(snap->blocks()[static_cast<size_t>(c)].get(), &block);

      const auto it = before.find(online.cluster_uid(c));
      if (it == before.end()) continue;  // born in this batch
      const Before& old = it->second;
      const bool same_pointer = old.block.get() == &block;
      EXPECT_EQ(same_pointer, old.version == online.cluster_version(c))
          << "cluster " << c;
      if (same_pointer) {
        ++counts.kept;
        continue;
      }
      bool absorbed = false;
      for (Index slot : slots) absorbed |= online.ClusterOf(slot) == c;
      bool lost = false;
      for (Index m : old.members) lost |= !online.IsAlive(m);
      counts.absorbed += absorbed ? 1 : 0;
      counts.lost_to_expiry += lost ? 1 : 0;
    }
  }
  return counts;
}

TEST(ClusterBlockTest, StreamKeepsUnchangedBlocksAndResealsAbsorbers) {
  const ResealCounts counts =
      StreamAndCheckReseals(Workload(), /*window=*/0);
  EXPECT_GT(counts.kept, 0);
  EXPECT_GT(counts.absorbed, 0);
  EXPECT_EQ(counts.lost_to_expiry, 0);
}

TEST(ClusterBlockTest, StreamResealsClustersThatLoseMembersToExpiry) {
  const ResealCounts counts =
      StreamAndCheckReseals(Workload(), /*window=*/260);
  EXPECT_GT(counts.lost_to_expiry, 0);
}

}  // namespace
}  // namespace alid
