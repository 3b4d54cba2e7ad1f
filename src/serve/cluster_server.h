#ifndef ALID_SERVE_CLUSTER_SERVER_H_
#define ALID_SERVE_CLUSTER_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/cluster_snapshot.h"

namespace alid {

class ThreadPool;

/// Options of the query side.
struct ClusterServerOptions {
  /// Optional shared executor pool for batched queries (the same pool the
  /// rest of the runtime runs on). Each query is pure against the batch's
  /// snapshot, so results are bit-identical for any pool width, scheduling
  /// discipline, grain, or pool == nullptr — the runtime's standard
  /// determinism contract.
  ThreadPool* pool = nullptr;
  /// Chunk grain of batched queries (see DeterministicGrain); 0 auto.
  int64_t grain = 0;
  /// Retired generations the server keeps addressable for as-of queries
  /// (the history ring, oldest evicted first); 0 disables time travel.
  /// Retention is cheap because consecutive generations share their
  /// unchanged clusters' arena blocks — the ring pays only for blocks no
  /// longer referenced by the current snapshot (see
  /// ServeStatsView::history_ring_bytes).
  int history_capacity = 4;
};

/// One read of a ClusterServer's counters (ClusterServer::stats()), taken
/// from the server's obs::MetricsRegistry — the serving counterpart of
/// StreamStats. The query and publish latency profiles live only in the
/// registry, as the `query_seconds` / `publish_seconds` histograms.
struct ServeStatsView {
  int64_t single_queries = 0;  ///< Single-point assignment queries.
  int64_t batch_calls = 0;     ///< Batched assignment calls (Query, >1 point).
  int64_t queries = 0;         ///< Items answered (singles + batch items).
  int64_t assigned = 0;        ///< Queries routed to a cluster.
  int64_t unassigned = 0;      ///< Queries matching no cluster (noise).
  int64_t topk_queries = 0;
  int64_t info_queries = 0;
  int64_t snapshots_published = 0;
  /// Always 0. Every candidate cluster is scored exactly; these fields stay
  /// only for readers that still print them and will be removed.
  int64_t sketch_prunes = 0;
  int64_t sketch_exact = 0;
  /// Member rows / clusters the published snapshots inherited from their
  /// predecessors via the incremental export (0 under from-scratch builds).
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  /// Arena-block bytes the published snapshots shared with their
  /// predecessors (refcount bumps) vs. newly materialized — the byte-level
  /// ledger of the O(changed-bytes) publish property (see
  /// SnapshotBuildInfo).
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  /// The history ring at stats() time: unique arena bytes held *only* for
  /// retained historical generations (blocks shared with the current
  /// snapshot are free; computed when read, never on publish), how many
  /// retired generations are addressable, and how many the capacity bound
  /// evicted.
  int64_t history_ring_bytes = 0;
  int generations_retained = 0;
  int64_t history_evictions = 0;
};

/// A unified serve request: `points` holds count * dim scalars, row-major.
/// top_k == 0 asks for assignments (one QueryOutcome per point — the
/// Theorem-1 absorb decision); top_k > 0 asks for ranked candidates (one
/// ScoredCluster list per point, descending affinity, truncated to top_k).
/// generation == 0 addresses the current snapshot; any other value
/// addresses that retained generation from the history ring (bounded time
/// travel) and fails with kGenerationUnavailable once it was evicted.
struct QueryRequest {
  std::span<const Scalar> points;
  int top_k = 0;
  uint64_t generation = 0;
};

enum class QueryStatus {
  kOk = 0,
  /// No snapshot published (or an explicit nullptr publish took the server
  /// offline): every point answers unassigned, generation 0.
  kOffline = 1,
  /// The addressed generation is neither current nor retained in the
  /// history ring.
  kGenerationUnavailable = 2,
  /// The request is malformed, generation 0 and nothing scored: a point
  /// buffer that is not a multiple of dim or a negative top_k answers
  /// empty; a NaN or infinite coordinate answers every point unassigned.
  /// Each one counts in the server's `query_invalid` registry counter.
  kInvalidInput = 3,
};

/// The answer to one QueryRequest. Exactly one of `assignments` (top_k ==
/// 0) or `ranked` (top_k > 0) is populated per point; on a non-kOk status
/// the populated side holds default (unassigned / empty) entries so callers
/// can index it without branching.
struct QueryResponse {
  QueryStatus status = QueryStatus::kOffline;
  /// Generation of the snapshot that answered (0 on non-kOk statuses).
  uint64_t generation = 0;
  std::vector<QueryOutcome> assignments;
  std::vector<std::vector<ScoredCluster>> ranked;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// One cluster's change between two generations (ClusterServer::
/// GenerationDiff). Clusters match across snapshots by stream uid; a
/// matched cluster whose version differs drifted (membership/weights/
/// density changed), an unmatched one was born or died.
struct ClusterDrift {
  uint64_t uid = 0;
  int cluster_from = -1;  ///< Id in the `from` snapshot (-1 for births).
  int cluster_to = -1;    ///< Id in the `to` snapshot (-1 for deaths).
  Index size_from = 0;
  Index size_to = 0;
  Scalar density_from = 0.0;
  Scalar density_to = 0.0;
};

/// What changed between two retained generations.
struct GenerationDiffResult {
  /// False when either generation is not addressable (evicted or never
  /// published) — the vectors are empty then.
  bool ok = false;
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<ClusterDrift> births;   ///< In `to` only.
  std::vector<ClusterDrift> deaths;   ///< In `from` only.
  std::vector<ClusterDrift> drifted;  ///< Matched, version changed.
  /// Matched clusters whose (uid, version) survived verbatim — exactly the
  /// clusters whose arena blocks the two snapshots share.
  int unchanged = 0;
};

/// The read side of the serving subsystem: answers generation-addressed
/// queries against immutable ClusterSnapshots published through an
/// RCU-style atomic shared_ptr swap. Readers never wait on each other and
/// never see torn state — a query (or a whole batch) acquires one snapshot
/// reference up front and scores against it even while Publish() installs a
/// successor; a retired snapshot enters the bounded history ring (staying
/// addressable for as-of queries) and dies when evicted and released by its
/// last in-flight reader. The write side (an ingest/refresh loop) mutates
/// nothing the readers touch: it builds a fresh snapshot off-line and
/// publishes it in one pointer swap. Because consecutive snapshots share
/// their unchanged clusters' sealed blocks, the ring costs O(changed
/// bytes), not O(window), and a publish moves no payload bytes: the
/// snapshot build copies block pointers and indexes each cluster's carried
/// LSH keys, and Publish itself only swaps, retires and evicts.
///
/// The publication cell implements std::atomic<std::shared_ptr> semantics
/// (P0718: linearizable store, acquire loads) over a reader-writer lock
/// rather than libstdc++'s _Sp_atomic: the latter's hand-rolled spinlock is
/// opaque to ThreadSanitizer, and this subsystem's swap-linearizability
/// contract is enforced under TSan in CI. Readers take the lock shared and
/// hold it only to bump the snapshot's refcount, so a reader is delayed
/// only by the O(1) swap of a concurrent Publish, never by other readers.
///
/// Thread-safety: Publish and every query method may be called from any
/// number of threads concurrently. Detect-side structures (OnlineAlid, the
/// detectors) stay externally synchronized as before — only their exported
/// snapshots enter the server.
class ClusterServer {
 public:
  /// `dim` is the dimensionality served (ALID_CHECKed positive here, and
  /// checked against every published snapshot and query).
  explicit ClusterServer(int dim, ClusterServerOptions options = {});

  /// Atomically installs a new snapshot (a release in the publication
  /// order: a reader that sees it also sees everything its build wrote).
  /// The retired snapshot enters the history ring (unless history_capacity
  /// is 0); generations evicted by the capacity bound are released
  /// outside the swap critical section, so an expensive teardown never
  /// stalls readers. Passing nullptr takes the server offline (queries
  /// answer unassigned, generation 0).
  void Publish(std::shared_ptr<const ClusterSnapshot> snapshot);

  /// The current snapshot, or nullptr before the first Publish. Holding the
  /// returned pointer pins the snapshot across later swaps.
  std::shared_ptr<const ClusterSnapshot> snapshot() const;

  /// Generation of the current snapshot (0 when offline).
  uint64_t generation() const;

  /// The unified serve entry point (see QueryRequest): assignment or
  /// ranked mode, against the current snapshot or a retained generation.
  /// The whole request is answered by ONE snapshot (acquired once) and
  /// chunked across the shared pool; assignment results are bit-identical
  /// to querying that snapshot point by point serially, and an as-of
  /// request reproduces exactly the answers the addressed generation gave
  /// when it was current (the snapshot is immutable — nothing to recompute).
  /// A request with a non-finite coordinate answers kInvalidInput.
  QueryResponse Query(const QueryRequest& request) const;

  /// Cluster births, deaths and drift between two addressable generations
  /// (0 = current). Purely metadata — O(clusters), no member rows touched.
  GenerationDiffResult GenerationDiff(uint64_t from, uint64_t to) const;

  /// Snapshot of generation `generation` (0 = current): the current
  /// snapshot or a ring entry, nullptr when not addressable. Holding the
  /// pointer pins it past eviction.
  std::shared_ptr<const ClusterSnapshot> SnapshotAt(uint64_t generation) const;

  /// Copy-out of one cluster's metadata from the current snapshot
  /// (info.cluster == -1 when offline or out of range).
  ClusterSnapshotInfo ClusterInfo(int cluster) const;

  int dim() const { return dim_; }
  const ClusterServerOptions& options() const { return options_; }

  /// A read of the serving counters (query counts, publish byte ledger,
  /// history-ring gauges). Counters only go up.
  ServeStatsView stats() const;

  /// The per-instance instrument registry behind stats(): every serve
  /// counter, the query/publish latency histograms, and the history-ring
  /// and pool gauges, exportable as single-line JSON (bench trajectory) or
  /// Prometheus text.
  const obs::MetricsRegistry& metrics() const { return metrics_.registry; }

 private:
  struct Retained {
    uint64_t generation = 0;
    std::shared_ptr<const ClusterSnapshot> snapshot;
  };

  // References to the current snapshot and every ring entry, copied under
  // the shared lock so the history bytes are summed outside it.
  struct PinnedHistory {
    std::shared_ptr<const ClusterSnapshot> current;  // nullptr when offline
    std::vector<std::shared_ptr<const ClusterSnapshot>> ring;  // oldest first
    int64_t evictions = 0;
    // Unique arena-block bytes referenced by ring entries but NOT by the
    // current snapshot — the true extra cost of time travel (shared blocks
    // are charged to the live snapshot).
    int64_t Bytes() const;
  };
  PinnedHistory PinHistory() const;

  // The server's instruments on its per-instance registry, wired in the
  // constructor; pointers are stable for the server's lifetime.
  struct ServeInstruments {
    obs::MetricsRegistry registry;
    obs::Counter* single_queries = nullptr;
    obs::Counter* batch_calls = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* assigned = nullptr;
    obs::Counter* topk_queries = nullptr;
    obs::Counter* info_queries = nullptr;
    obs::Counter* query_invalid = nullptr;  // kInvalidInput answers
    obs::Counter* snapshots_published = nullptr;
    obs::Counter* rows_reused = nullptr;
    obs::Counter* clusters_reused = nullptr;
    obs::Counter* bytes_shared = nullptr;
    obs::Counter* bytes_copied = nullptr;
    // Mean per-query seconds of each assignment call (one observation per
    // call: call seconds / points) and build seconds of each publish.
    obs::Histogram* query_seconds = nullptr;
    obs::Histogram* publish_seconds = nullptr;
  };

  int dim_;
  ClusterServerOptions options_;
  // The publication cell (see class comment). shared lock: copy the
  // pointer / scan the ring; unique lock: swap + retire + evict.
  mutable std::shared_mutex snapshot_mu_;
  std::shared_ptr<const ClusterSnapshot> snapshot_ptr_;
  std::deque<Retained> history_;  // oldest first
  int64_t history_evictions_ = 0;
  ServeInstruments metrics_;
};

}  // namespace alid

#endif  // ALID_SERVE_CLUSTER_SERVER_H_
