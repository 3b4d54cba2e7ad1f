#include "shard/shard_router.h"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>

#include "affinity/affinity_function.h"
#include "common/check.h"
#include "common/dataset.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace alid {

ShardRouter::ShardRouter(int dim, int num_shards, ShardRouterOptions options)
    : dim_(dim), num_shards_(num_shards), options_(options) {
  ALID_CHECK(dim_ > 0);
  ALID_CHECK(num_shards_ >= 1);
  auto& reg = metrics_.registry;
  metrics_.queries = reg.AddCounter("router_queries");
  metrics_.points = reg.AddCounter("router_points");
  metrics_.fanout = reg.AddCounter("shard_fanout_queries");
  metrics_.topk_queries = reg.AddCounter("router_topk_queries");
  metrics_.publishes = reg.AddCounter("router_publishes");
  metrics_.offline_queries = reg.AddCounter("router_offline_queries");
  metrics_.stale_generation = reg.AddCounter("router_stale_generation");
  metrics_.invalid_queries = reg.AddCounter("router_invalid_queries");
  metrics_.query_seconds =
      reg.AddHistogram("router_query_seconds", obs::LatencyHistogramEdges());
  metrics_.publish_seconds =
      reg.AddHistogram("router_publish_seconds", obs::LatencyHistogramEdges());
  reg.AddCallbackGauge("router_generation", [this]() {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return current_ == nullptr ? int64_t{0}
                               : static_cast<int64_t>(current_->generation);
  });
}

uint64_t ShardRouter::PublishFromStream(const ShardedStream& stream) {
  ALID_TRACE_SCOPE("router", "publish");
  ALID_CHECK(stream.num_shards() == num_shards_);
  ALID_CHECK(stream.dim() == dim_);
  WallTimer timer;
  auto next = std::make_shared<ShardedSnapshot>();
  next->generation = static_cast<uint64_t>(stream.size());
  next->shards.resize(static_cast<size_t>(num_shards_));
  if (previous_.empty()) {
    previous_.resize(static_cast<size_t>(num_shards_));
  }
  // Per-shard exports, concurrently — each shares its shard stream's sealed
  // blocks and is accounted against the shard's previously published
  // snapshot (shared vs. copied bytes).
  ParallelChunks(options_.pool, 0, num_shards_, /*grain=*/1,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t s = lo; s < hi; ++s) {
                     const auto idx = static_cast<size_t>(s);
                     next->shards[idx] = ClusterSnapshot::FromStream(
                         stream.shard(static_cast<int>(s)), options_.pool,
                         previous_[idx]);
                   }
                 });
  previous_ = next->shards;
  {
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    current_ = std::move(next);
  }
  metrics_.publishes->Add(1);
  metrics_.publish_seconds->Observe(timer.Seconds());
  return generation();
}

void ShardRouter::Unpublish() {
  std::shared_ptr<const ShardedSnapshot> retired;
  {
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    retired = std::move(current_);
    current_ = nullptr;
  }
  previous_.clear();
  // `retired` releases outside the critical section.
}

std::shared_ptr<const ShardedSnapshot> ShardRouter::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return current_;
}

uint64_t ShardRouter::generation() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return current_ == nullptr ? 0 : current_->generation;
}

std::shared_ptr<const ShardedSnapshot> ShardRouter::SnapshotAt(
    uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  if (current_ == nullptr) return nullptr;
  if (generation != 0 && generation != current_->generation) return nullptr;
  return current_;
}

ShardedQueryResponse ShardRouter::Query(const QueryRequest& request) const {
  ALID_TRACE_SCOPE("router", "query");
  WallTimer timer;
  ShardedQueryResponse response;
  if (request.points.size() % static_cast<size_t>(dim_) != 0 ||
      request.top_k < 0) {
    // ClusterServer::Query's contract: a malformed request answers empty.
    metrics_.invalid_queries->Add(1);
    response.status = QueryStatus::kInvalidInput;
    return response;
  }
  const Index count = static_cast<Index>(request.points.size()) / dim_;
  const bool ranked_mode = request.top_k > 0;
  if (ranked_mode) {
    response.ranked.resize(static_cast<size_t>(count));
  } else {
    response.assignments.resize(static_cast<size_t>(count));
  }
  if (!AllFinite(request.points)) {
    metrics_.invalid_queries->Add(1);
    response.status = QueryStatus::kInvalidInput;
    return response;
  }

  // The linearization point: ONE pinned generation answers every point of
  // the request across every shard, no matter how publishers race.
  const std::shared_ptr<const ShardedSnapshot> pinned = snapshot();
  if (pinned == nullptr) {
    metrics_.offline_queries->Add(1);
    response.status = QueryStatus::kOffline;
    return response;
  }
  if (request.generation != 0 && request.generation != pinned->generation) {
    metrics_.stale_generation->Add(1);
    response.status = QueryStatus::kGenerationUnavailable;
    return response;
  }
  response.status = QueryStatus::kOk;
  response.generation = pinned->generation;
  if (count == 0) {
    metrics_.queries->Add(1);
    metrics_.query_seconds->Observe(timer.Seconds());
    return response;
  }

  const auto& shards = pinned->shards;
  const int num_shards = static_cast<int>(shards.size());

  if (!ranked_mode) {
    ParallelChunks(
        options_.pool, 0, count, options_.grain,
        [&](int64_t, int64_t lo, int64_t hi) {
          const size_t n = static_cast<size_t>(hi - lo);
          std::vector<QueryOutcome> outcomes(n);
          const auto chunk_points = request.points.subspan(
              static_cast<size_t>(lo) * dim_, n * static_cast<size_t>(dim_));
          for (int s = 0; s < num_shards; ++s) {
            if (shards[static_cast<size_t>(s)]->num_clusters() == 0) continue;
            shards[static_cast<size_t>(s)]->AssignBatch(
                chunk_points, {outcomes.data(), outcomes.size()});
            for (size_t i = 0; i < n; ++i) {
              if (outcomes[i].cluster < 0) continue;
              ShardAssignment& best =
                  response.assignments[static_cast<size_t>(lo) + i];
              // Strictly-greater replacement: equal margins keep the
              // earlier (lower) shard, and each shard already prefers its
              // lowest cluster id — the ascending-(shard, cluster)
              // tie-break of the merge contract.
              if (best.cluster < 0 || outcomes[i].margin > best.margin) {
                static_cast<QueryOutcome&>(best) = outcomes[i];
                best.shard = s;
              }
            }
          }
          for (size_t i = 0; i < n; ++i) {
            response.assignments[static_cast<size_t>(lo) + i].generation =
                pinned->generation;
          }
        });
  } else {
    ParallelChunks(
        options_.pool, 0, count, options_.grain,
        [&](int64_t, int64_t lo, int64_t hi) {
          for (int64_t q = lo; q < hi; ++q) {
            const auto point = request.points.subspan(
                static_cast<size_t>(q) * dim_, static_cast<size_t>(dim_));
            std::vector<ShardScoredCluster> merged;
            for (int s = 0; s < num_shards; ++s) {
              const std::vector<ScoredCluster> scored =
                  shards[static_cast<size_t>(s)]->TopKClusters(point,
                                                               request.top_k);
              for (const ScoredCluster& sc : scored) {
                ShardScoredCluster out;
                static_cast<ScoredCluster&>(out) = sc;
                out.shard = s;
                out.generation = pinned->generation;
                merged.push_back(out);
              }
            }
            // Total order (affinity desc, shard asc, cluster asc): no two
            // distinct candidates compare equal, so the merged ranking is
            // deterministic whatever sort runs underneath.
            std::sort(merged.begin(), merged.end(),
                      [](const ShardScoredCluster& a,
                         const ShardScoredCluster& b) {
                        if (a.affinity != b.affinity)
                          return a.affinity > b.affinity;
                        if (a.shard != b.shard) return a.shard < b.shard;
                        return a.cluster < b.cluster;
                      });
            if (static_cast<int>(merged.size()) > request.top_k) {
              merged.resize(static_cast<size_t>(request.top_k));
            }
            response.ranked[static_cast<size_t>(q)] = std::move(merged);
          }
        });
    metrics_.topk_queries->Add(count);
  }

  metrics_.queries->Add(1);
  metrics_.points->Add(count);
  metrics_.fanout->Add(static_cast<int64_t>(count) * num_shards);
  metrics_.query_seconds->Observe(timer.Seconds());
  return response;
}

std::vector<BoundaryPair> ShardRouter::BoundaryClusters(
    const AffinityParams& affinity) const {
  ALID_TRACE_SCOPE("router", "boundary_report");
  std::vector<BoundaryPair> report;
  const std::shared_ptr<const ShardedSnapshot> pinned = snapshot();
  if (pinned == nullptr) return report;

  // Every (table, bucket key) a cluster's members occupy — each block
  // carries them deduplicated per table. The per-shard hashers share
  // projections (same LshParams seed), so equal keys mean the same bucket of
  // the same table.
  struct BucketRef {
    int table;
    uint64_t key;
    int shard;
    int cluster;

    bool operator<(const BucketRef& o) const {
      if (table != o.table) return table < o.table;
      if (key != o.key) return key < o.key;
      if (shard != o.shard) return shard < o.shard;
      return cluster < o.cluster;
    }
  };
  std::vector<BucketRef> refs;
  for (int s = 0; s < static_cast<int>(pinned->shards.size()); ++s) {
    const auto blocks = pinned->shards[static_cast<size_t>(s)]->blocks();
    for (int c = 0; c < static_cast<int>(blocks.size()); ++c) {
      const ClusterBlock& block = *blocks[static_cast<size_t>(c)];
      for (int t = 0; t < block.num_tables(); ++t) {
        for (uint64_t key : block.table_keys(t)) {
          refs.push_back(BucketRef{t, key, s, c});
        }
      }
    }
  }
  std::sort(refs.begin(), refs.end());

  // Count shared buckets per cross-shard cluster pair. The map key orders
  // the report ascending by (shard_a, cluster_a, shard_b, cluster_b).
  std::map<std::array<int, 4>, int64_t> pairs;
  size_t lo = 0;
  while (lo < refs.size()) {
    size_t hi = lo;
    while (hi < refs.size() && refs[hi].table == refs[lo].table &&
           refs[hi].key == refs[lo].key) {
      ++hi;
    }
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        if (refs[i].shard == refs[j].shard) continue;
        ++pairs[{refs[i].shard, refs[i].cluster, refs[j].shard,
                 refs[j].cluster}];
      }
    }
    lo = hi;
  }

  // Exact cross density of each colliding pair, in one fixed double-loop
  // order — the same weighted pair sum the stream's merge rule
  // (InstallPoolCluster) evaluates, so a reconciliation pass can apply the
  // stream's own density threshold to these numbers verbatim.
  const AffinityFunction fn(affinity);
  report.reserve(pairs.size());
  for (const auto& [key, buckets] : pairs) {
    const ClusterBlock& a =
        *pinned->shards[static_cast<size_t>(key[0])]->blocks()[
            static_cast<size_t>(key[1])];
    const ClusterBlock& b =
        *pinned->shards[static_cast<size_t>(key[2])]->blocks()[
            static_cast<size_t>(key[3])];
    Scalar cross = 0.0;
    for (Index i = 0; i < a.count; ++i) {
      const auto row_a = a.row(i);
      for (Index j = 0; j < b.count; ++j) {
        cross += a.weights[static_cast<size_t>(i)] *
                 b.weights[static_cast<size_t>(j)] *
                 fn.FromDistance(LpDistance(row_a, b.row(j), affinity.p));
      }
    }
    report.push_back(BoundaryPair{key[0], key[1], key[2], key[3], buckets,
                                  cross});
  }
  return report;
}

}  // namespace alid
