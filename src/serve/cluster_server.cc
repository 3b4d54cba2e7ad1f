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
  ALID_CHECK(options_.history_budget_bytes >= 0);
  // History-ring gauges ride the same per-instance registry as the serve
  // counters; each read takes the publication lock shared, exactly like
  // stats(). The callbacks capture `this` — they die with the registry,
  // which dies with the server.
  obs::MetricsRegistry* registry = stats_.mutable_registry();
  registry->AddCallbackGauge("history_ring_bytes", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return history_ring_bytes_;
  });
  registry->AddCallbackGauge("generations_retained", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return static_cast<int64_t>(history_.size());
  });
  registry->AddCallbackGauge("history_evictions", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return history_evictions_;
  });
  if (options_.pool != nullptr) {
    options_.pool->RegisterMetrics(registry, "pool");
  }
}

int64_t ClusterServer::HistoryBytesLocked() const {
  std::unordered_set<const ClusterBlock*> counted;
  if (snapshot_ptr_ != nullptr) {
    for (const auto& block : snapshot_ptr_->blocks()) {
      counted.insert(block.get());
    }
  }
  int64_t bytes = 0;
  for (const Retained& entry : history_) {
    for (const auto& block : entry.snapshot->blocks()) {
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
  double build_seconds = 0.0;
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  if (incoming != nullptr) {
    const SnapshotBuildInfo& info = incoming->build_info();
    build_seconds = info.build_seconds;
    rows_reused = info.rows_reused;
    clusters_reused = info.clusters_reused;
    bytes_shared = info.bytes_shared;
    bytes_copied = info.bytes_copied;
  }
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
    history_ring_bytes_ = HistoryBytesLocked();
    while (options_.history_budget_bytes > 0 &&
           history_ring_bytes_ > options_.history_budget_bytes &&
           !history_.empty()) {
      evicted.push_back(std::move(history_.front().snapshot));
      history_.pop_front();
      ++history_evictions_;
      history_ring_bytes_ = HistoryBytesLocked();
    }
  }
  evicted.clear();
  // Re-publishing the snapshot that was already current (e.g. a rollback)
  // still counts as a publication, but its build cost and re-use totals were
  // recorded when it was first published — folding them again would claim
  // work that never happened.
  stats_.RecordPublish(incoming != nullptr && !republish, build_seconds,
                       republish ? 0 : rows_reused,
                       republish ? 0 : clusters_reused,
                       republish ? 0 : bytes_shared,
                       republish ? 0 : bytes_copied);
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
    stats_.RecordInvalid();
    return response;
  }
  const Index count = static_cast<Index>(request.points.size() / dim_);
  if (!AllFinite(request.points)) {
    response.status = QueryStatus::kInvalidInput;
    stats_.RecordInvalid();
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
    stats_.RecordTopK(count);
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
  stats_.RecordAssign(count, assigned, timer.Seconds(),
                      /*batch=*/count != 1);
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
  stats_.RecordInfo();
  const auto snap = snapshot();
  if (snap == nullptr) return {};
  return snap->ClusterInfo(cluster);
}

ServeStatsView ClusterServer::stats() const {
  ServeStatsView view = stats_.View();
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  view.history_ring_bytes = history_ring_bytes_;
  view.generations_retained = static_cast<int>(history_.size());
  view.history_evictions = history_evictions_;
  return view;
}

}  // namespace alid
