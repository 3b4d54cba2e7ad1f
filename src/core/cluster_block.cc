#include "core/cluster_block.h"

#include <algorithm>

#include "common/check.h"
#include "lsh/lsh_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alid {

MemoryTracker& SnapshotArenaTracker() {
  // The arena tracker is also the process's "arena_*" gauge source: the
  // global registry exports the attributed block footprint without any
  // stream or snapshot code having to push updates.
  static MemoryTracker* tracker = [] {
    auto* t = new MemoryTracker();
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "arena_current_bytes", [t] { return t->current_bytes(); });
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "arena_peak_bytes", [t] { return t->peak_bytes(); });
    return t;
  }();
  return *tracker;
}

ClusterBlock::~ClusterBlock() {
  // An event marker, not a measurement: the payload vectors and both
  // charges destroy after this body, so the span records *when* a block
  // left the arena rather than how long the frees took.
  ALID_TRACE_SCOPE("arena", "release");
}

size_t ClusterBlock::MemoryBytes() const {
  return rows.size() * sizeof(Scalar) + weights.size() * sizeof(Scalar) +
         source_ids.size() * sizeof(Index) +
         keys.size() * sizeof(uint64_t) + key_begin.size() * sizeof(Index) +
         cluster_soa.MemoryBytes();
}

std::shared_ptr<const ClusterBlock> ClusterBlock::Build(
    const Dataset& data, const Cluster& cluster, const LshHasher& hasher,
    const AffinityFunction& fn, const LshIndex* index) {
  ALID_CHECK(cluster.members.size() == cluster.weights.size());
  std::shared_ptr<ClusterBlock> block(new ClusterBlock());
  const Index count = static_cast<Index>(cluster.members.size());
  const int dim = data.dim();
  block->count = count;
  block->dim = dim;
  {
    ALID_TRACE_SCOPE("block", "gather");
    block->rows.resize(static_cast<size_t>(count) * dim);
    for (Index t = 0; t < count; ++t) {
      const Index source = cluster.members[t];
      ALID_CHECK(source >= 0 && source < data.size());
      const std::span<const Scalar> row = data[source];
      std::copy(row.begin(), row.end(),
                block->rows.begin() + static_cast<size_t>(t) * dim);
    }
    block->weights = cluster.weights;
    block->source_ids = cluster.members;
  }
  {
    // Every member's keys (count x tables, member-major), then each
    // table's column sorted and deduplicated: once per seal, far below the
    // O(count^2 dim) density verification below.
    ALID_TRACE_SCOPE("block", "keys");
    ALID_CHECK(index == nullptr || index->hasher().get() == &hasher);
    const int tables = hasher.num_tables();
    std::vector<uint64_t> all_keys(static_cast<size_t>(count) * tables);
    for (Index t = 0; t < count; ++t) {
      uint64_t* keys = &all_keys[static_cast<size_t>(t) * tables];
      if (index != nullptr) {
        index->ItemKeys(cluster.members[t], keys);
      } else {
        hasher.ComputePointKeys(block->row(t), keys);
      }
    }
    std::vector<uint64_t> column(static_cast<size_t>(count));
    block->key_begin.push_back(0);
    for (int table = 0; table < tables; ++table) {
      for (Index t = 0; t < count; ++t) {
        column[t] = all_keys[static_cast<size_t>(t) * tables + table];
      }
      std::sort(column.begin(), column.end());
      const auto end = std::unique(column.begin(), column.end());
      block->keys.insert(block->keys.end(), column.begin(), end);
      block->key_begin.push_back(static_cast<Index>(block->keys.size()));
    }
  }
  const double p = fn.params().p;
  const bool simd_norm = SimdSupportsNorm(p);
  if (simd_norm) {
    ALID_TRACE_SCOPE("block", "soa_tiles");
    block->cluster_soa.FromRowMajor(block->rows.data(), count, dim);
  }
  {
    // x^T A x in (t, u) order: one distance column per member t — through
    // the block's own tiles when the norm has a tile kernel, row by row
    // otherwise — with a_tt = 0, the oracle's diagonal convention.
    ALID_TRACE_SCOPE("block", "verify_density");
    const SoaBlock& soa = block->cluster_soa;
    std::vector<Scalar> dist(
        static_cast<size_t>(simd_norm ? soa.num_tiles() * kSimdTileLanes
                                      : count));
    Scalar density = 0.0;
    for (Index t = 0; t < count; ++t) {
      const std::span<const Scalar> point = block->row(t);
      if (simd_norm) {
        for (Index tile = 0; tile < soa.num_tiles(); ++tile) {
          TileDistances(*ActiveSimdOps(), soa, tile, point.data(), p,
                        &dist[static_cast<size_t>(tile) * kSimdTileLanes]);
        }
      } else {
        for (Index u = 0; u < count; ++u) {
          dist[u] = LpDistance(block->row(u), point, p);
        }
      }
      for (Index u = 0; u < count; ++u) {
        const Scalar a = u == t ? 0.0 : fn.FromDistance(dist[u]);
        density += block->weights[t] * block->weights[u] * a;
      }
    }
    block->verified_density = density;
  }
  {
    // Sealed: charge the bytes to the global tracker and the arena's
    // resource space exactly once; destruction releases both.
    ALID_TRACE_SCOPE("arena", "seal");
    const int64_t bytes = static_cast<int64_t>(block->MemoryBytes());
    block->global_charge_.Adjust(bytes);
    block->arena_charge_.Adjust(bytes);
  }
  return block;
}

Scalar BlockAffinity(const ClusterBlock& block, const AffinityFunction& fn,
                     std::span<const Scalar> point) {
  if (SimdSupportsNorm(fn.params().p)) {
    return SoaWeightedKernelSum(*ActiveSimdOps(), block.cluster_soa,
                                block.weights, fn, point.data());
  }
  const double p = fn.params().p;
  Scalar affinity = 0.0;  // member order, like the tile path
  for (Index t = 0; t < block.count; ++t) {
    affinity +=
        block.weights[t] * fn.FromDistance(LpDistance(block.row(t), point, p));
  }
  return affinity;
}

}  // namespace alid
