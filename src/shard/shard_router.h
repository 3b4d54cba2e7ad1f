#ifndef ALID_SHARD_SHARD_ROUTER_H_
#define ALID_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "shard/sharded_stream.h"

namespace alid {

class ThreadPool;

/// Options of the fan-out query side.
struct ShardRouterOptions {
  /// Optional shared executor pool for batched fan-out queries; results are
  /// bit-identical for any pool width, grain, scheduling, or nullptr — the
  /// runtime's standard determinism contract.
  ThreadPool* pool = nullptr;
  /// Chunk grain of batched queries (see DeterministicGrain); 0 auto.
  int64_t grain = 0;
};

/// One atomically published sharded generation: the per-shard
/// ClusterSnapshots exported together from one quiescent ShardedStream
/// state. `generation` is the stream's total arrival count — a pure
/// function of (config, stream), never of wall time or publish cadence.
struct ShardedSnapshot {
  uint64_t generation = 0;
  std::vector<std::shared_ptr<const ClusterSnapshot>> shards;
};

/// One merged assignment: the QueryOutcome shape plus the owning shard
/// (generation carries the *sharded* generation, not the per-shard one).
struct ShardAssignment : QueryOutcome {
  int shard = -1;

  bool operator==(const ShardAssignment&) const = default;
};

/// One merged ranked candidate.
struct ShardScoredCluster : ScoredCluster {
  int shard = -1;

  bool operator==(const ShardScoredCluster&) const = default;
};

/// The answer to one fanned-out QueryRequest — the sharded mirror of
/// QueryResponse (same status vocabulary, shard-tagged outcomes).
struct ShardedQueryResponse {
  QueryStatus status = QueryStatus::kOffline;
  uint64_t generation = 0;
  std::vector<ShardAssignment> assignments;
  std::vector<std::vector<ShardScoredCluster>> ranked;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// One cross-shard boundary-cluster pair: two clusters on different shards
/// whose members share at least one LSH bucket (same table, same key — the
/// per-shard indices are seeded identically, so keys are comparable), with
/// the weighted cross density the stream's own merge rule would consult
/// (InstallPoolCluster's pair sum: sum_ij w_i w_j a(x_i, x_j)). A pair
/// whose cross_density clears the detector's density threshold is exactly
/// what a future reconciliation pass would merge.
struct BoundaryPair {
  int shard_a = -1;
  int cluster_a = -1;
  int shard_b = -1;  ///< Always > shard_a.
  int cluster_b = -1;
  /// Distinct (table, bucket) keys the two clusters' members share.
  int64_t shared_buckets = 0;
  Scalar cross_density = 0.0;

  bool operator==(const BoundaryPair&) const = default;
};

/// The serve side of the sharded runtime: publishes the per-shard snapshots
/// of a ShardedStream as ONE atomically-swapped ShardedSnapshot generation
/// and answers queries by fanning out over every shard and merging by
/// score. A request pins exactly one ShardedSnapshot (the linearization
/// point), so every point of a batch — and every shard visited for it — is
/// answered by the same generation even while a hot publisher keeps
/// swapping; the publication cell is the same TSan-visible reader-writer
/// idiom as ClusterServer's.
///
/// Merge semantics: assignment takes the shard whose winner has the
/// largest positive margin, ties broken by ascending (shard, cluster) id —
/// within a shard the snapshot already prefers the lowest cluster id, and
/// across shards a strictly-greater-margin replacement keeps the earliest
/// shard. TopK concatenates the per-shard rankings and orders by affinity
/// descending with the same ascending (shard, cluster) tie-break. Both are
/// pure functions of (request, pinned generation).
///
/// Thread-safety: queries from any number of threads concurrently with one
/// publisher; publishers are externally synchronized with each other (they
/// read the stream, which is single-writer anyway).
class ShardRouter {
 public:
  ShardRouter(int dim, int num_shards, ShardRouterOptions options = {});

  /// Exports every shard's ClusterSnapshot (incrementally against the
  /// previous publish, concurrently on the pool) and swaps the bundle in as
  /// one generation = stream.size(). The stream must be quiescent (between
  /// ingest calls — same contract as ClusterSnapshot::FromStream). Returns
  /// the published generation.
  uint64_t PublishFromStream(const ShardedStream& stream);

  /// Takes the router offline (queries answer kOffline) and drops the
  /// incremental chain.
  void Unpublish();

  /// The current sharded snapshot, or nullptr before the first publish.
  std::shared_ptr<const ShardedSnapshot> snapshot() const;

  /// Generation of the current snapshot (0 when offline).
  uint64_t generation() const;

  /// Snapshot of `generation` (0 = current). The router keeps no history
  /// ring: any nonzero generation other than the current one answers
  /// nullptr (kGenerationUnavailable at the Query level) — per-shard time
  /// travel stays available on the underlying ClusterServers.
  std::shared_ptr<const ShardedSnapshot> SnapshotAt(uint64_t generation) const;

  /// The fan-out serve entry point — QueryRequest semantics as in
  /// ClusterServer::Query, answered by every shard of ONE pinned
  /// generation and merged (see class comment). Assignment results are
  /// bit-identical to querying each shard snapshot serially and merging by
  /// the stated rule. A request with a non-finite coordinate answers
  /// kInvalidInput.
  ShardedQueryResponse Query(const QueryRequest& request) const;

  /// The boundary-cluster report of the current generation: every
  /// cross-shard cluster pair colliding in LSH bucket space, with shared
  /// bucket counts and exact cross densities, ordered by ascending
  /// (shard_a, cluster_a, shard_b, cluster_b). Deterministic — a pure
  /// function of the pinned snapshot. `affinity` must be the streams' own
  /// kernel parameters (the report reproduces the stream's merge test).
  std::vector<BoundaryPair> BoundaryClusters(
      const AffinityParams& affinity) const;

  int dim() const { return dim_; }
  int num_shards() const { return num_shards_; }
  const ShardRouterOptions& options() const { return options_; }

  /// Router instruments: `shard_fanout_queries` (per-shard sub-queries
  /// issued — count x shards per fanned request; the CI gate asserts it
  /// positive so the fan-out path cannot silently no-op), request/point
  /// counters, and the query/publish latency histograms.
  const obs::MetricsRegistry& metrics() const { return metrics_.registry; }

 private:
  int dim_;
  int num_shards_;
  ShardRouterOptions options_;

  // The publication cell (ClusterServer idiom): shared lock to pin, unique
  // lock to swap. previous_ belongs to the (single) publisher only.
  mutable std::shared_mutex snapshot_mu_;
  std::shared_ptr<const ShardedSnapshot> current_;
  std::vector<std::shared_ptr<const ClusterSnapshot>> previous_;

  struct RouterInstruments {
    obs::MetricsRegistry registry;
    obs::Counter* queries = nullptr;         // requests answered
    obs::Counter* points = nullptr;          // items answered
    obs::Counter* fanout = nullptr;          // shard_fanout_queries
    obs::Counter* topk_queries = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Counter* offline_queries = nullptr;
    obs::Counter* stale_generation = nullptr;
    obs::Counter* invalid_queries = nullptr;  // kInvalidInput answers
    obs::Histogram* query_seconds = nullptr;
    obs::Histogram* publish_seconds = nullptr;
  };
  RouterInstruments metrics_;
};

}  // namespace alid

#endif  // ALID_SHARD_SHARD_ROUTER_H_
