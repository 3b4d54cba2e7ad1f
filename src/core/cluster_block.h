#ifndef ALID_CORE_CLUSTER_BLOCK_H_
#define ALID_CORE_CLUSTER_BLOCK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/memory_tracker.h"
#include "common/types.h"
#include "core/cluster.h"
#include "simd/soa_block.h"

namespace alid {

class LshHasher;
class LshIndex;

/// The cluster-block arena's own MemoryTracker resource space: every sealed
/// ClusterBlock charges its bytes here (in addition to the process-global
/// tracker), so the footprint of the sealed cluster payloads — held by the
/// stream and shared by every retained snapshot generation, each block
/// counted once — stays separately attributable, in the style of sel4-gpi's
/// per-resource-space accounting. current_bytes() returns to its baseline
/// once every stream and snapshot (server ring included) is torn down; the
/// teardown tests pin this.
MemoryTracker& SnapshotArenaTracker();

/// One cluster's immutable payload — the single cluster representation that
/// the stream scores arrivals against and that serving snapshots share: the
/// member rows, simplex weights, source ids, each table's distinct LSH
/// bucket keys, SIMD SoA tiles and the verified density. Build() is the only
/// way to make one; it fills every field and seals the block, which from
/// then on lives behind shared_ptr<const ClusterBlock> and never changes.
/// OnlineAlid reseals a cluster only when its version moves, and every
/// snapshot of the stream holds the same pointers, so an unchanged cluster
/// costs a refcount bump per generation instead of a copy, and bounded time
/// travel over a ring of generations costs only each generation's unshared
/// blocks. Bytes are charged exactly once (at sealing) to both the global
/// MemoryTracker and SnapshotArenaTracker(), and released when the last
/// holder dies.
struct ClusterBlock {
  /// Traced ("arena"/"release"): the last holder's teardown returns the
  /// block's bytes to both trackers (member charges).
  ~ClusterBlock();
  ClusterBlock(const ClusterBlock&) = delete;
  ClusterBlock& operator=(const ClusterBlock&) = delete;

  /// Builds and seals the block of `cluster` over the rows of `data`:
  /// gathers the member rows, collects each table's distinct member keys
  /// under `hasher` (read from the inverted list of `index` when given — it
  /// must index `data` with `hasher`, as the stream's index does — and
  /// hashed from the gathered rows otherwise), builds the SoA tiles when
  /// the norm has a tile kernel, and verifies x^T A x under `fn`. Pure in
  /// its inputs and thread-safe, so callers build many blocks in parallel.
  static std::shared_ptr<const ClusterBlock> Build(
      const Dataset& data, const Cluster& cluster, const LshHasher& hasher,
      const AffinityFunction& fn, const LshIndex* index = nullptr);

  Index count = 0;  ///< Members of the cluster.
  int dim = 0;      ///< Row dimensionality.

  /// count x dim row-major member rows, in member (support) order.
  std::vector<Scalar> rows;
  /// Simplex weights, member order (parallel to rows).
  std::vector<Scalar> weights;
  /// Member -> source id (dataset row / stream slot).
  std::vector<Index> source_ids;
  /// The distinct bucket keys the members occupy, table by table, each
  /// table's ascending: table t's are keys[key_begin[t] .. key_begin[t+1]).
  /// A query collides with some member in table t iff its key is among
  /// them, so a snapshot indexes clusters by these without re-hashing.
  std::vector<uint64_t> keys;
  std::vector<Index> key_begin;  ///< num_tables + 1 offsets into keys.
  /// Dimension-major SIMD tiles of all member rows (member order); empty
  /// when the configured norm has no tile kernel.
  SoaBlock cluster_soa;
  /// x^T A x recomputed from the block's own kernel entries: the sum over
  /// (t, u) in that order of w_t * w_u * a_tu, with a_tt = 0 and the
  /// distances from the tile kernel (see ClusterSnapshotInfo::
  /// verified_density).
  Scalar verified_density = 0.0;

  /// Row-major view of member row i.
  std::span<const Scalar> row(Index i) const {
    return {rows.data() + static_cast<size_t>(i) * dim,
            static_cast<size_t>(dim)};
  }

  int num_tables() const { return static_cast<int>(key_begin.size()) - 1; }
  /// Table t's distinct member keys, ascending.
  std::span<const uint64_t> table_keys(int t) const {
    return {keys.data() + key_begin[t],
            static_cast<size_t>(key_begin[t + 1] - key_begin[t])};
  }

  /// Bytes of the block's payload vectors and tiles — what sharing saves and
  /// what sealing charges.
  size_t MemoryBytes() const;

 private:
  ClusterBlock() = default;

  ScopedMemoryCharge global_charge_{0};
  ScopedMemoryCharge arena_charge_{0, &SnapshotArenaTracker()};
};

/// pi(s, x): the weighted Eq.-1 kernel sum of every member of `block`
/// against `point`, accumulated in member order — the one Theorem-1 scoring
/// kernel of the stream's absorb decision and the snapshot's Assign /
/// TopKClusters. Runs through the SoA tiles when the norm has a tile kernel
/// and through the rows otherwise; both paths give the same bits (see
/// simd/soa_block.h).
Scalar BlockAffinity(const ClusterBlock& block, const AffinityFunction& fn,
                     std::span<const Scalar> point);

}  // namespace alid

#endif  // ALID_CORE_CLUSTER_BLOCK_H_
