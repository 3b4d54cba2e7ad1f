#include "serve/cluster_server.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace alid {

ClusterServer::ClusterServer(int dim, ClusterServerOptions options)
    : dim_(dim), options_(options) {
  ALID_CHECK(dim_ > 0);
  ALID_CHECK(options_.history_capacity >= 0);
  obs::MetricsRegistry& registry = metrics_.registry;
  metrics_.single_queries = registry.AddCounter("single_queries");
  metrics_.batch_calls = registry.AddCounter("batch_calls");
  metrics_.queries = registry.AddCounter("queries");
  metrics_.assigned = registry.AddCounter("assigned");
  metrics_.topk_queries = registry.AddCounter("topk_queries");
  metrics_.info_queries = registry.AddCounter("info_queries");
  metrics_.query_invalid = registry.AddCounter("query_invalid");
  metrics_.snapshots_published = registry.AddCounter("snapshots_published");
  metrics_.rows_reused = registry.AddCounter("rows_reused");
  metrics_.clusters_reused = registry.AddCounter("clusters_reused");
  metrics_.bytes_shared = registry.AddCounter("bytes_shared");
  metrics_.bytes_copied = registry.AddCounter("bytes_copied");
  metrics_.query_seconds =
      registry.AddHistogram("query_seconds", obs::LatencyHistogramEdges());
  metrics_.publish_seconds =
      registry.AddHistogram("publish_seconds", obs::LatencyHistogramEdges());
  // History-ring gauges take the publication lock shared, exactly like
  // stats(). The callbacks capture `this` — they die with the registry,
  // which dies with the server.
  registry.AddCallbackGauge("history_ring_bytes",
                            [this] { return PinHistory().Bytes(); });
  registry.AddCallbackGauge("generations_retained", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return static_cast<int64_t>(history_.size());
  });
  registry.AddCallbackGauge("history_evictions", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return history_evictions_;
  });
  if (options_.pool != nullptr) {
    options_.pool->RegisterMetrics(&registry, "pool");
  }
}

ClusterServer::PinnedHistory ClusterServer::PinHistory() const {
  PinnedHistory pinned;
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  pinned.current = snapshot_ptr_;
  pinned.ring.reserve(history_.size());
  for (const Retained& entry : history_) pinned.ring.push_back(entry.snapshot);
  pinned.evictions = history_evictions_;
  return pinned;
}

int64_t ClusterServer::PinnedHistory::Bytes() const {
  std::unordered_set<const ClusterBlock*> counted;
  if (current != nullptr) {
    for (const auto& block : current->blocks()) counted.insert(block.get());
  }
  int64_t bytes = 0;
  for (const auto& snapshot : ring) {
    for (const auto& block : snapshot->blocks()) {
      if (counted.insert(block.get()).second) {
        bytes += static_cast<int64_t>(block->MemoryBytes());
      }
    }
  }
  return bytes;
}

void ClusterServer::Publish(std::shared_ptr<const ClusterSnapshot> snapshot) {
  if (snapshot != nullptr) ALID_CHECK(snapshot->dim() == dim_);
  const ClusterSnapshot* incoming = snapshot.get();
  // Copied while `snapshot` still holds the incoming one: after the swap a
  // concurrent Publish may retire and release it.
  const SnapshotBuildInfo info =
      incoming != nullptr ? incoming->build_info() : SnapshotBuildInfo{};
  // Snapshots released by this publication (ring evictions, plus the swap
  // operand itself when it goes out of scope) die outside the critical
  // section, so an expensive teardown never stalls readers.
  std::vector<std::shared_ptr<const ClusterSnapshot>> evicted;
  bool republish = false;
  {
    ALID_TRACE_SCOPE("serve", "publish_swap");
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    republish = snapshot_ptr_.get() == incoming;
    if (!republish && snapshot_ptr_ != nullptr &&
        options_.history_capacity > 0) {
      // Retire the outgoing snapshot into the ring. A generation republished
      // later (rollback) would otherwise accumulate duplicate entries, so an
      // existing entry of the same generation is dropped first.
      const uint64_t retiring = snapshot_ptr_->generation();
      for (auto it = history_.begin(); it != history_.end();) {
        if (it->generation == retiring) {
          evicted.push_back(std::move(it->snapshot));
          it = history_.erase(it);
        } else {
          ++it;
        }
      }
      history_.push_back(Retained{retiring, snapshot_ptr_});
    }
    snapshot_ptr_.swap(snapshot);
    while (static_cast<int>(history_.size()) > options_.history_capacity) {
      evicted.push_back(std::move(history_.front().snapshot));
      history_.pop_front();
      ++history_evictions_;
    }
  }
  evicted.clear();
  metrics_.snapshots_published->Add(1);
  // Re-publishing the snapshot that was already current (e.g. a rollback)
  // still counts as a publication, but its build cost and re-use totals were
  // recorded when it was first published — folding them again would claim
  // work that never happened. The offline nullptr publish has no build.
  if (incoming == nullptr || republish) return;
  metrics_.rows_reused->Add(info.rows_reused);
  metrics_.clusters_reused->Add(info.clusters_reused);
  metrics_.bytes_shared->Add(info.bytes_shared);
  metrics_.bytes_copied->Add(info.bytes_copied);
  metrics_.publish_seconds->Observe(info.build_seconds);
}

std::shared_ptr<const ClusterSnapshot> ClusterServer::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_ptr_;
}

std::shared_ptr<const ClusterSnapshot> ClusterServer::SnapshotAt(
    uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  if (generation == 0) return snapshot_ptr_;
  if (snapshot_ptr_ != nullptr && snapshot_ptr_->generation() == generation) {
    return snapshot_ptr_;
  }
  // Newest-first scan: as-of queries overwhelmingly address recent
  // generations, and the ring is small by construction.
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->generation == generation) return it->snapshot;
  }
  return nullptr;
}

uint64_t ClusterServer::generation() const {
  const auto snap = snapshot();
  return snap != nullptr ? snap->generation() : 0;
}

QueryResponse ClusterServer::Query(const QueryRequest& request) const {
  QueryResponse response;
  if (request.points.size() % static_cast<size_t>(dim_) != 0 ||
      request.top_k < 0) {
    // No point count to size an answer by (or no mode to answer in).
    response.status = QueryStatus::kInvalidInput;
    metrics_.query_invalid->Add(1);
    return response;
  }
  const Index count = static_cast<Index>(request.points.size() / dim_);
  if (!AllFinite(request.points)) {
    response.status = QueryStatus::kInvalidInput;
    metrics_.query_invalid->Add(1);
    if (request.top_k > 0) {
      response.ranked.resize(static_cast<size_t>(count));
    } else {
      response.assignments.resize(static_cast<size_t>(count));
    }
    return response;
  }
  WallTimer timer;
  ALID_TRACE_SCOPE("serve", "query");
  // One acquire for the whole request: every point of the call is answered
  // by the same snapshot even if Publish swaps mid-call — the linearization
  // point of the request is this load. An as-of request pins the retained
  // generation the same way, so its answers are exactly the answers that
  // generation gave when it was current.
  std::shared_ptr<const ClusterSnapshot> snap;
  {
    ALID_TRACE_SCOPE("serve", "snapshot_pin");
    snap = SnapshotAt(request.generation);
  }
  if (snap == nullptr) {
    response.status = request.generation == 0
                          ? QueryStatus::kOffline
                          : QueryStatus::kGenerationUnavailable;
  } else {
    response.status = QueryStatus::kOk;
    response.generation = snap->generation();
  }
  if (request.top_k > 0) {
    response.ranked.resize(static_cast<size_t>(count));
    if (count == 0) return response;
    if (snap != nullptr) {
      // Ranked queries are pure per point; chunking only distributes them.
      ParallelChunks(options_.pool, 0, count, options_.grain,
                     [&](int64_t, int64_t lo, int64_t hi) {
                       ALID_TRACE_SCOPE("serve", "rank_chunk");
                       for (int64_t q = lo; q < hi; ++q) {
                         response.ranked[q] = snap->TopKClusters(
                             request.points.subspan(
                                 static_cast<size_t>(q) * dim_,
                                 static_cast<size_t>(dim_)),
                             request.top_k);
                       }
                     });
    }
    metrics_.topk_queries->Add(count);
    return response;
  }
  response.assignments.resize(static_cast<size_t>(count));
  if (count == 0) return response;
  if (snap != nullptr) {
    ParallelChunks(
        options_.pool, 0, count, options_.grain,
        [&](int64_t, int64_t lo, int64_t hi) {
          // Candidate walk + scoring of one chunk (the per-worker view of
          // the batch in a trace).
          ALID_TRACE_SCOPE("serve", "assign_chunk");
          // Query-major block assignment inside the chunk: the snapshot
          // streams each cluster's SoA tiles across the whole block of
          // queries, and every outcome stays bit-identical to a per-query
          // Assign (see ClusterSnapshot::AssignBatch).
          snap->AssignBatch(
              request.points.subspan(static_cast<size_t>(lo) * dim_,
                                     static_cast<size_t>(hi - lo) * dim_),
              std::span<QueryOutcome>(response.assignments)
                  .subspan(static_cast<size_t>(lo),
                           static_cast<size_t>(hi - lo)));
        });
  }
  int64_t assigned = 0;
  for (const QueryOutcome& r : response.assignments) {
    assigned += r.cluster >= 0 ? 1 : 0;
  }
  (count == 1 ? metrics_.single_queries : metrics_.batch_calls)->Add(1);
  // queries bumps before assigned (and stats() reads them in the opposite
  // order) so unassigned = queries - assigned stays >= 0 even mid-call.
  metrics_.queries->Add(count);
  metrics_.assigned->Add(assigned);
  metrics_.query_seconds->Observe(timer.Seconds() /
                                  static_cast<double>(count));
  return response;
}

GenerationDiffResult ClusterServer::GenerationDiff(uint64_t from,
                                                   uint64_t to) const {
  GenerationDiffResult diff;
  const auto snap_from = SnapshotAt(from);
  const auto snap_to = SnapshotAt(to);
  if (snap_from == nullptr || snap_to == nullptr) return diff;
  diff.ok = true;
  diff.from = snap_from->generation();
  diff.to = snap_to->generation();
  std::unordered_map<uint64_t, int> from_by_uid;
  from_by_uid.reserve(static_cast<size_t>(snap_from->num_clusters()));
  for (int c = 0; c < snap_from->num_clusters(); ++c) {
    if (snap_from->cluster_uid(c) != 0) {
      from_by_uid.emplace(snap_from->cluster_uid(c), c);
    }
  }
  for (int c = 0; c < snap_to->num_clusters(); ++c) {
    const uint64_t uid = snap_to->cluster_uid(c);
    const auto it = uid != 0 ? from_by_uid.find(uid) : from_by_uid.end();
    if (it == from_by_uid.end()) {
      ClusterDrift born;
      born.uid = uid;
      born.cluster_to = c;
      born.size_to = snap_to->cluster_size(c);
      born.density_to = snap_to->density(c);
      diff.births.push_back(born);
      continue;
    }
    const int f = it->second;
    from_by_uid.erase(it);
    if (snap_from->cluster_version(f) == snap_to->cluster_version(c)) {
      ++diff.unchanged;
      continue;
    }
    ClusterDrift moved;
    moved.uid = uid;
    moved.cluster_from = f;
    moved.cluster_to = c;
    moved.size_from = snap_from->cluster_size(f);
    moved.size_to = snap_to->cluster_size(c);
    moved.density_from = snap_from->density(f);
    moved.density_to = snap_to->density(c);
    diff.drifted.push_back(moved);
  }
  // Clusters of `from` never matched: deaths, in ascending id so the report
  // is deterministic.
  std::vector<std::pair<int, uint64_t>> gone;
  gone.reserve(from_by_uid.size());
  for (const auto& [uid, c] : from_by_uid) gone.emplace_back(c, uid);
  // uid == 0 clusters (non-stream sources) cannot match; report them too.
  for (int c = 0; c < snap_from->num_clusters(); ++c) {
    if (snap_from->cluster_uid(c) == 0) gone.emplace_back(c, 0);
  }
  std::sort(gone.begin(), gone.end());
  for (const auto& [c, uid] : gone) {
    ClusterDrift dead;
    dead.uid = uid;
    dead.cluster_from = c;
    dead.size_from = snap_from->cluster_size(c);
    dead.density_from = snap_from->density(c);
    diff.deaths.push_back(dead);
  }
  return diff;
}

ClusterSnapshotInfo ClusterServer::ClusterInfo(int cluster) const {
  metrics_.info_queries->Add(1);
  const auto snap = snapshot();
  if (snap == nullptr) return {};
  return snap->ClusterInfo(cluster);
}

ServeStatsView ClusterServer::stats() const {
  ServeStatsView view;
  view.single_queries = metrics_.single_queries->value();
  view.batch_calls = metrics_.batch_calls->value();
  // assigned loads before queries: Query bumps queries first, so this order
  // (plus the clamp) keeps unassigned >= 0 even mid-call.
  view.assigned = metrics_.assigned->value();
  view.queries = metrics_.queries->value();
  view.unassigned = std::max<int64_t>(0, view.queries - view.assigned);
  view.topk_queries = metrics_.topk_queries->value();
  view.info_queries = metrics_.info_queries->value();
  view.snapshots_published = metrics_.snapshots_published->value();
  view.rows_reused = metrics_.rows_reused->value();
  view.clusters_reused = metrics_.clusters_reused->value();
  view.bytes_shared = metrics_.bytes_shared->value();
  view.bytes_copied = metrics_.bytes_copied->value();
  const PinnedHistory pinned = PinHistory();
  view.history_ring_bytes = pinned.Bytes();
  view.generations_retained = static_cast<int>(pinned.ring.size());
  view.history_evictions = pinned.evictions;
  return view;
}

}  // namespace alid
