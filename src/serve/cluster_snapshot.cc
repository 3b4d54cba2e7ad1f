#include "serve/cluster_snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/epoch_stamp.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/online_alid.h"
#include "obs/trace.h"

namespace alid {

ClusterSnapshot::ClusterSnapshot(std::shared_ptr<const LshHasher> hasher,
                                 const ClusterSnapshotOptions& options,
                                 uint64_t generation)
    : absorb_slack_(options.absorb_slack),
      affinity_fn_(options.affinity),
      hasher_(std::move(hasher)),
      generation_(generation) {
  ALID_CHECK(options.absorb_slack >= 0.0 && options.absorb_slack < 1.0);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromClusters(
    const Dataset& data, std::span<const Cluster> clusters,
    const ClusterSnapshotOptions& options, uint64_t generation) {
  ALID_TRACE_SCOPE("publish", "build");
  WallTimer build_timer;
  std::shared_ptr<ClusterSnapshot> snap(new ClusterSnapshot(
      std::make_shared<const LshHasher>(data.dim(), options.lsh), options,
      generation));
  // One sealed block per cluster, built in parallel (each build is pure),
  // hashed with the snapshot's own hasher so the carried keys are its keys.
  std::vector<std::shared_ptr<const ClusterBlock>> blocks(clusters.size());
  {
    ALID_TRACE_SCOPE("publish", "block_build");
    ParallelChunks(options.pool, 0, static_cast<int64_t>(clusters.size()),
                   options.grain, [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t c = lo; c < hi; ++c) {
                       blocks[c] = ClusterBlock::Build(data, clusters[c],
                                                       *snap->hasher_,
                                                       snap->affinity_fn_);
                     }
                   });
  }
  snap->Assemble(clusters, std::move(blocks), nullptr);
  snap->build_info_.build_seconds = build_timer.Seconds();
  return snap;
}

void ClusterSnapshot::Assemble(
    std::span<const Cluster> clusters,
    std::vector<std::shared_ptr<const ClusterBlock>> blocks,
    const ClusterSnapshot* previous) {
  ALID_CHECK(blocks.size() == clusters.size());
  const int num_clusters = static_cast<int>(clusters.size());
  blocks_ = std::move(blocks);
  // Sources without stream identity (FromClusters) carry (0, 0).
  src_uid_.resize(static_cast<size_t>(num_clusters), 0);
  src_version_.resize(static_cast<size_t>(num_clusters), 0);
  std::unordered_set<const ClusterBlock*> previous_blocks;
  if (previous != nullptr) {
    for (const auto& block : previous->blocks_) {
      previous_blocks.insert(block.get());
    }
  }
  {
    ALID_TRACE_SCOPE("publish", "block_fill");
    for (int c = 0; c < num_clusters; ++c) {
      const ClusterBlock& block = *blocks_[c];
      ALID_CHECK(block.dim == dim() &&
                 block.num_tables() == hasher_->num_tables());
      ALID_CHECK(static_cast<size_t>(block.count) ==
                 clusters[c].members.size());
      const int64_t bytes = static_cast<int64_t>(block.MemoryBytes());
      if (previous_blocks.contains(&block)) {
        build_info_.bytes_shared += bytes;
        build_info_.rows_reused += block.count;
        ++build_info_.clusters_reused;
      } else {
        build_info_.bytes_copied += bytes;
        build_info_.rows_rebuilt += block.count;
      }
      num_members_ += block.count;
      density_.push_back(clusters[c].density);
      seed_.push_back(clusters[c].seed);
    }
  }
  build_info_.clusters_total = num_clusters;

  // Per table, every block's distinct keys tagged with its cluster id and
  // sorted: a cluster is listed under a key iff one of its members occupies
  // that bucket.
  ALID_TRACE_SCOPE("publish", "lsh");
  key_index_.resize(static_cast<size_t>(hasher_->num_tables()));
  for (int t = 0; t < hasher_->num_tables(); ++t) {
    KeyIndex& index = key_index_[static_cast<size_t>(t)];
    for (int c = 0; c < num_clusters; ++c) {
      for (uint64_t key : blocks_[c]->table_keys(t)) {
        index.entries.emplace_back(key, c);
      }
    }
    std::sort(index.entries.begin(), index.entries.end());
    const size_t n = index.entries.size();
    index.shift = 64 - std::max(1, static_cast<int>(std::bit_width(n)));
    index.slot_begin.resize((size_t{1} << (64 - index.shift)) + 1);
    for (size_t slot = 0, e = 0; slot < index.slot_begin.size(); ++slot) {
      while (e < n && (index.entries[e].first >> index.shift) < slot) ++e;
      index.slot_begin[slot] = static_cast<int>(e);
    }
  }
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromDetection(
    const Dataset& data, const DetectionResult& result,
    const ClusterSnapshotOptions& options, uint64_t generation) {
  return FromClusters(data, result.clusters, options, generation);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromStream(
    const OnlineAlid& stream, ThreadPool* /*pool*/,
    std::shared_ptr<const ClusterSnapshot> previous) {
  ALID_TRACE_SCOPE("publish", "from_stream");
  ALID_TRACE_SCOPE("publish", "build");
  WallTimer build_timer;
  ClusterSnapshotOptions options;
  options.affinity = stream.options().affinity;
  options.absorb_slack = stream.options().absorb_slack;
  std::shared_ptr<ClusterSnapshot> snap(new ClusterSnapshot(
      stream.lsh().hasher(), options, static_cast<uint64_t>(stream.size())));
  // The stream's sealed blocks, shared as they are: they were built from
  // the same rows with the same hasher and kernel this snapshot uses.
  const int num_clusters = static_cast<int>(stream.clusters().size());
  std::vector<std::shared_ptr<const ClusterBlock>> blocks;
  blocks.reserve(static_cast<size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    blocks.push_back(stream.cluster_block(c));
    snap->src_uid_.push_back(stream.cluster_uid(c));
    snap->src_version_.push_back(stream.cluster_version(c));
  }
  snap->Assemble(stream.clusters(), std::move(blocks), previous.get());
  snap->build_info_.build_seconds = build_timer.Seconds();
  return snap;
}

const EpochStamp& ClusterSnapshot::MarkCandidates(
    std::span<const Scalar> point) const {
  // Thread-local, so any number of readers query one snapshot (or
  // different snapshots) concurrently without allocating.
  thread_local EpochStamp marks;
  marks.Begin(static_cast<size_t>(num_clusters()));
  for (int t = 0; t < hasher_->num_tables(); ++t) {
    const KeyIndex& index = key_index_[static_cast<size_t>(t)];
    const uint64_t key = hasher_->HashPoint(t, point);
    const size_t slot = key >> index.shift;
    for (int e = index.slot_begin[slot]; e < index.slot_begin[slot + 1]; ++e) {
      if (index.entries[e].first == key) marks.Mark(index.entries[e].second);
    }
  }
  return marks;
}

void ClusterSnapshot::ScoreCandidate(int c, std::span<const Scalar> point,
                                     Scalar* best_margin,
                                     QueryOutcome* best) const {
  // Absorb when (near-)infective — the same slack rule, threshold and
  // lowest-id tie-break as the stream's ScoreArrival.
  const Scalar affinity = BlockAffinity(*blocks_[c], affinity_fn_, point);
  const Scalar margin = affinity - density_[c] * (1.0 - absorb_slack_);
  if (margin > 0.0 && margin > *best_margin) {
    *best_margin = margin;
    best->cluster = c;
    best->affinity = affinity;
    best->margin = margin;
  }
}

QueryOutcome ClusterSnapshot::Assign(std::span<const Scalar> point) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  QueryOutcome best;
  best.generation = generation_;
  if (num_clusters() == 0) return best;
  const EpochStamp& candidates = MarkCandidates(point);
  Scalar best_margin = -std::numeric_limits<Scalar>::infinity();
  for (int c = 0; c < num_clusters(); ++c) {
    if (candidates.IsMarked(static_cast<size_t>(c))) {
      ScoreCandidate(c, point, &best_margin, &best);
    }
  }
  return best;
}

void ClusterSnapshot::AssignBatch(std::span<const Scalar> points,
                                  std::span<QueryOutcome> outcomes) const {
  const int d = dim();
  ALID_CHECK(d > 0 && points.size() % static_cast<size_t>(d) == 0);
  const Index count = static_cast<Index>(points.size() / d);
  ALID_CHECK(outcomes.size() == static_cast<size_t>(count));
  for (Index q = 0; q < count; ++q) {
    outcomes[q] = QueryOutcome{};
    outcomes[q].generation = generation_;
  }
  const int num = num_clusters();
  if (num == 0) return;
  // Query-major tiling: mark every query's candidate clusters up front for
  // a block of queries, then stream the clusters in ascending id across
  // the whole block, so each cluster's SoA tiles are pulled through the
  // cache once per block instead of once per query. Each query carries its
  // own incumbent and still visits its candidates in ascending cluster id,
  // so winners and margins are bit-identical to per-query Assign calls
  // (the property the batch-vs-serial tests pin).
  constexpr Index kQueryBlock = 32;
  std::vector<uint8_t> candidate(static_cast<size_t>(kQueryBlock) * num, 0);
  std::array<Scalar, kQueryBlock> best_margin;
  for (Index q0 = 0; q0 < count; q0 += kQueryBlock) {
    const Index block = std::min<Index>(kQueryBlock, count - q0);
    for (Index i = 0; i < block; ++i) {
      const EpochStamp& candidates = MarkCandidates(points.subspan(
          static_cast<size_t>(q0 + i) * d, static_cast<size_t>(d)));
      for (int c = 0; c < num; ++c) {
        candidate[static_cast<size_t>(i) * num + c] =
            candidates.IsMarked(static_cast<size_t>(c)) ? 1 : 0;
      }
      best_margin[i] = -std::numeric_limits<Scalar>::infinity();
    }
    for (int c = 0; c < num; ++c) {
      for (Index i = 0; i < block; ++i) {
        if (candidate[static_cast<size_t>(i) * num + c] == 0) continue;
        const std::span<const Scalar> point = points.subspan(
            static_cast<size_t>(q0 + i) * d, static_cast<size_t>(d));
        ScoreCandidate(c, point, &best_margin[i], &outcomes[q0 + i]);
      }
    }
  }
}

std::vector<ScoredCluster> ClusterSnapshot::TopKClusters(
    std::span<const Scalar> point, int k) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  std::vector<ScoredCluster> scored;
  if (k <= 0 || num_clusters() == 0) return scored;
  const EpochStamp& candidates = MarkCandidates(point);
  for (int c = 0; c < num_clusters(); ++c) {
    if (!candidates.IsMarked(static_cast<size_t>(c))) continue;
    ScoredCluster entry;
    entry.cluster = c;
    entry.affinity = BlockAffinity(*blocks_[c], affinity_fn_, point);
    entry.margin = entry.affinity - density_[c] * (1.0 - absorb_slack_);
    entry.generation = generation_;
    entry.absorbable = entry.margin > 0.0;
    scored.push_back(entry);
  }
  // Descending affinity, ascending id on exact ties: a stable total order,
  // so batched and serial TopK answers are identical.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCluster& a, const ScoredCluster& b) {
              if (a.affinity != b.affinity) return a.affinity > b.affinity;
              return a.cluster < b.cluster;
            });
  if (static_cast<int>(scored.size()) > k) scored.resize(k);
  return scored;
}

ClusterSnapshotInfo ClusterSnapshot::ClusterInfo(int c) const {
  ClusterSnapshotInfo info;
  if (c < 0 || c >= num_clusters()) return info;
  const ClusterBlock& block = *blocks_[c];
  info.cluster = c;
  info.size = block.count;
  info.density = density_[c];
  info.verified_density = block.verified_density;
  info.seed = seed_[c];
  info.members.assign(block.source_ids.begin(), block.source_ids.end());
  info.weights.assign(block.weights.begin(), block.weights.end());
  return info;
}

}  // namespace alid
