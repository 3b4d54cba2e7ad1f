#ifndef ALID_SERVE_CLUSTER_SNAPSHOT_H_
#define ALID_SERVE_CLUSTER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "core/cluster.h"
#include "lsh/lsh_index.h"
#include "core/cluster_block.h"

namespace alid {

class EpochStamp;
class OnlineAlid;
class ThreadPool;

/// Parameters of a snapshot build. For scoring parity with a detector, pass
/// the detector's own affinity/LSH parameters: the LSH seed fixes the
/// Gaussian projections, so a query point hashes to the same buckets in the
/// snapshot's cluster index as in the source index — which makes the
/// snapshot's candidate clusters (and hence Assign) *exactly* the Theorem-1
/// absorb decision the source detector would take.
struct ClusterSnapshotOptions {
  /// Affinity kernel the supports were detected under.
  AffinityParams affinity;
  /// LSH parameters of FromClusters' hasher (seed included).
  LshParams lsh;
  /// Absorb slack of the assignment rule (see OnlineAlidOptions).
  double absorb_slack = 0.05;
  /// Optional pool for FromClusters' block builds (one ClusterBlock::Build
  /// per cluster; build-time only — queries never touch it).
  ThreadPool* pool = nullptr;
  /// Chunk grain of the block builds; 0 auto.
  int64_t grain = 0;
};

/// Cost accounting of one snapshot build — what it shares with the
/// previous snapshot (FromStream with a previous snapshot) and what is new.
struct SnapshotBuildInfo {
  int clusters_total = 0;
  /// Clusters whose block the previous snapshot already held (the same
  /// pointer): the stream did not reseal them since that export.
  int clusters_reused = 0;
  Index rows_reused = 0;    ///< Member rows in blocks shared with it.
  Index rows_rebuilt = 0;   ///< Member rows in blocks new to this build.
  /// Block bytes this build *shared* with its predecessor vs. bytes in
  /// blocks the predecessor did not hold (sealed since by the stream, or
  /// built here by FromClusters). bytes_shared > 0 on a steady-state
  /// incremental publish is the O(changed-bytes) property CI gates on.
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  double build_seconds = 0.0;
};

/// The shared shape of every answered query — the single result vocabulary
/// of the serve API (ClusterServer::Query). ScoredCluster extends it without
/// changing its meaning.
struct QueryOutcome {
  /// Snapshot cluster id, or -1 when no candidate cluster absorbs the point.
  int cluster = -1;
  /// pi(s_c, x) of the cluster (0 when unassigned).
  Scalar affinity = 0.0;
  /// Signed margin over the absorb threshold density * (1 - absorb_slack)
  /// (0 when unassigned; may be negative for ranked non-absorbable
  /// candidates).
  Scalar margin = 0.0;
  /// Generation of the snapshot that answered (0 when offline).
  uint64_t generation = 0;

  bool operator==(const QueryOutcome&) const = default;
};

/// Former name of a snapshot's assignment outcome, kept as an alias for
/// external readers.
using AssignOutcome = QueryOutcome;

/// One scored candidate of a TopKClusters query.
struct ScoredCluster : QueryOutcome {
  /// True iff the affinity clears the absorb threshold
  /// density * (1 - absorb_slack), i.e. margin > 0; the top absorbable
  /// candidate is exactly Assign's answer.
  bool absorbable = false;

  bool operator==(const ScoredCluster&) const = default;
};

/// Copy-out of one cluster's metadata (safe to hold across snapshot swaps).
struct ClusterSnapshotInfo {
  int cluster = -1;  ///< -1 when the queried id was out of range.
  Index size = 0;
  Scalar density = 0.0;
  /// x^T A x recomputed from the cluster block's own kernel entries (one
  /// distance column per member) — an integrity check that the exported
  /// supports and the reported density describe the same simplex.
  Scalar verified_density = 0.0;
  Index seed = -1;     ///< Source id of the detection seed.
  IndexList members;   ///< Source ids (dataset rows / stream slots).
  std::vector<Scalar> weights;
};

/// An immutable, self-contained view of one detection state, built for
/// serving: every dominant cluster's payload (compacted member rows, simplex
/// weights, source ids, distinct LSH keys, SoA tiles) lives in a sealed
/// refcounted ClusterBlock (see core/cluster_block.h), plus a per-snapshot
/// index from LSH bucket key to the clusters with a member in that bucket.
/// A stream export holds the stream's own blocks and hasher, so consecutive
/// generations share every unchanged cluster's block instead of copying it
/// — publish costs only the cluster index, and a server's history ring of
/// old generations is nearly free. Every query method is const, touches
/// only snapshot-owned state plus thread-local scratch, and is therefore
/// safe for any number of concurrent readers — the read side of the serving
/// subsystem's RCU design.
class ClusterSnapshot {
 public:
  /// Builds from any detector output shaped as clusters over `data` — the
  /// common export path of AlidDetector::DetectAll and Palid::Detect
  /// (apply Filtered() first for the paper's density cut). `generation`
  /// tags the snapshot for publication ordering.
  static std::shared_ptr<const ClusterSnapshot> FromClusters(
      const Dataset& data, std::span<const Cluster> clusters,
      const ClusterSnapshotOptions& options, uint64_t generation = 0);

  /// Convenience overload for a DetectionResult.
  static std::shared_ptr<const ClusterSnapshot> FromDetection(
      const Dataset& data, const DetectionResult& result,
      const ClusterSnapshotOptions& options, uint64_t generation = 0);

  /// Exports the live state of a stream. Affinity/LSH parameters and absorb
  /// slack are taken from the stream's own options, so Assign reproduces
  /// the stream's absorb decision bit for bit; the generation is the
  /// stream's arrival count. The export copies the stream's sealed block
  /// pointers (OnlineAlid::cluster_block) and hasher and indexes the
  /// blocks' carried keys — no row gather, hashing, table seeding, tiling or
  /// density verification runs here. The stream must not be mutated during
  /// the export (the ingest loop exports between batches); afterwards the
  /// snapshot is fully decoupled, since sealed blocks never change.
  ///
  /// `previous` only feeds the accounting: a block counts as shared
  /// (build_info) iff `previous` holds the same pointer. `pool` is unused
  /// (the export has no parallel pass) and stays for existing callers. The
  /// snapshot is deep-equal to FromClusters over the stream's data and
  /// clusters (the property tests pin this every generation).
  static std::shared_ptr<const ClusterSnapshot> FromStream(
      const OnlineAlid& stream, ThreadPool* pool = nullptr,
      std::shared_ptr<const ClusterSnapshot> previous = nullptr);

  int num_clusters() const { return static_cast<int>(blocks_.size()); }
  Index num_members() const { return num_members_; }
  int dim() const { return hasher_->dim(); }
  uint64_t generation() const { return generation_; }
  double absorb_slack() const { return absorb_slack_; }

  /// The Theorem-1 absorb decision for an arbitrary point: candidates are
  /// the clusters of the point's LSH collisions, the winner the candidate
  /// with the largest positive margin pi(s_c, x) - density_c * (1 - slack)
  /// (lowest id on ties — the same rule as OnlineAlid::ScoreArrival).
  /// outcome.generation carries this snapshot's generation.
  QueryOutcome Assign(std::span<const Scalar> point) const;

  /// Assign for a batch of queries: `points` holds count * dim scalars,
  /// row-major; `outcomes` must hold count entries. Each outcome — winner,
  /// affinity, margin — is bit-identical to a standalone Assign of the same
  /// point: the batch only reorders the *work* query-major (outer loop over
  /// clusters in ascending id, inner loop over a block of queries, each
  /// with its own incumbent), so one cluster's SoA tiles are streamed
  /// through the cache once per query block instead of once per query.
  /// Every query still visits its candidates in ascending cluster id.
  void AssignBatch(std::span<const Scalar> points,
                   std::span<QueryOutcome> outcomes) const;

  /// The candidate clusters of `point` scored by pi(s_c, x), descending
  /// (lowest id on ties), truncated to k.
  std::vector<ScoredCluster> TopKClusters(std::span<const Scalar> point,
                                          int k) const;

  /// Copy-out of cluster `c`'s metadata; info.cluster == -1 when out of
  /// range.
  ClusterSnapshotInfo ClusterInfo(int c) const;

  Scalar density(int c) const { return density_[c]; }
  Index cluster_size(int c) const { return blocks_[c]->count; }
  /// Stream identity of cluster `c` ((0, 0) when the source carries none) —
  /// what ClusterServer::GenerationDiff matches on.
  uint64_t cluster_uid(int c) const { return src_uid_[c]; }
  uint64_t cluster_version(int c) const { return src_version_[c]; }

  /// What this build cost and what the incremental path saved/shared.
  const SnapshotBuildInfo& build_info() const { return build_info_; }

  /// The sealed blocks backing this snapshot, one per cluster — shared with
  /// the stream and with other generations that hold the same clusters. The
  /// server's history accounting walks these to charge each block once.
  std::span<const std::shared_ptr<const ClusterBlock>> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// The hasher queries are keyed with — a stream export's is the stream's.
  const std::shared_ptr<const LshHasher>& hasher() const { return hasher_; }

 private:
  ClusterSnapshot(std::shared_ptr<const LshHasher> hasher,
                  const ClusterSnapshotOptions& options, uint64_t generation);

  // Installs one sealed block per cluster (in cluster order), indexes the
  // blocks' carried keys by cluster, and books the build: a block counts as
  // shared iff `previous` holds the same pointer.
  void Assemble(std::span<const Cluster> clusters,
                std::vector<std::shared_ptr<const ClusterBlock>> blocks,
                const ClusterSnapshot* previous);

  // Scores candidate cluster c for `point` and installs it in `best` when
  // its margin is positive and beats `best_margin` (the Assign rule, lowest
  // id on ties because candidates are visited in ascending id).
  void ScoreCandidate(int c, std::span<const Scalar> point,
                      Scalar* best_margin, QueryOutcome* best) const;
  // Marks, in thread-local scratch, the clusters with a member in one of
  // the point's buckets, and returns the marks.
  const EpochStamp& MarkCandidates(std::span<const Scalar> point) const;

  // One sealed block per cluster (see core/cluster_block.h): all
  // member-indexed payload lives there, shared with the stream and with the
  // other generations that hold the same cluster.
  std::vector<std::shared_ptr<const ClusterBlock>> blocks_;
  Index num_members_ = 0;
  std::vector<Scalar> density_;      // per cluster
  std::vector<Index> seed_;          // per cluster, source ids
  // Stream identity of each cluster ((0, 0) when the source carries none):
  // what GenerationDiff matches clusters by.
  std::vector<uint64_t> src_uid_;
  std::vector<uint64_t> src_version_;
  double absorb_slack_ = 0.05;
  AffinityFunction affinity_fn_;
  std::shared_ptr<const LshHasher> hasher_;
  // One table's bucket key -> cluster map: a (key, cluster) entry for every
  // cluster with a member in that bucket, sorted, and a directory over the
  // keys' top bits — slot s's entries are [slot_begin[s], slot_begin[s+1]).
  // Keys are hashes, so a slot holds about one entry.
  struct KeyIndex {
    int shift = 63;
    std::vector<int> slot_begin;
    std::vector<std::pair<uint64_t, int>> entries;
  };
  std::vector<KeyIndex> key_index_;  // per table
  uint64_t generation_ = 0;
  SnapshotBuildInfo build_info_;
};

}  // namespace alid

#endif  // ALID_SERVE_CLUSTER_SNAPSHOT_H_
