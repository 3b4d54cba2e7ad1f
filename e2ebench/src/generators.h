#ifndef E2EBENCH_GENERATORS_H_
#define E2EBENCH_GENERATORS_H_

// Input generators of the end-to-end benchmark. Every generated row is a pure
// function of (workload parameters, seed, batch index, row key): a batch can
// be produced without its predecessors, and the same arguments always give
// the same bytes. The program under test receives only the points; the
// planted labels stay here for AVG-F scoring.

#include <cstdint>
#include <vector>

namespace e2ebench {

/// Label of a row that belongs to no planted cluster.
inline constexpr int64_t kNoise = -1;

/// Rows of one batch (row-major) with one planted label per row.
struct Rows {
  int dim = 0;
  std::vector<double> points;
  std::vector<int64_t> labels;
  int64_t count() const { return static_cast<int64_t>(labels.size()); }
};

/// A static SIFT-like planted set (the paper's Table 2 setting):
/// non-negative, L2-normalised descriptors; `words` visual words hold
/// `word_fraction` of the items, the rest is sparse clutter.
struct SiftLikeParams {
  int64_t n = 4000;
  int dim = 128;
  int words = 20;
  double word_fraction = 0.3;
  double word_spread = 0.015;
  /// Affinity scale and LSH segment length under which the words are
  /// dense subgraphs and the clutter is not.
  double Kernel() const;
  double LshSegment() const;
};

/// The whole static set (rows 0..n-1, word members first).
Rows SiftLikeSet(const SiftLikeParams& params, uint64_t seed);
/// `count` query descriptors drawn from the same distribution.
Rows SiftLikeQueries(const SiftLikeParams& params, uint64_t seed,
                     uint64_t request, int64_t count);

/// Dense planted clusters with Zipf-distributed sizes: each arrival picks
/// cluster c with probability proportional to (c + 1)^-zipf; a share of the
/// arrivals is uniform noise.
struct ZipfStreamParams {
  int dim = 16;
  int clusters = 16;
  double zipf = 0.6;
  int64_t batch = 32;
  double spread = 1.0;
  double box = 800.0;
  double noise = 0.05;
};

/// Many small clusters born and killed in bursts: `slots` cluster slots,
/// each reborn at a fresh center every `period` batches and fed for
/// `lifetime` batches; slot phases fall on `storms` offsets, so births and
/// deaths come in storms.
struct ChurnStreamParams {
  int dim = 16;
  int slots = 48;
  int period = 8;
  int lifetime = 3;
  int storms = 3;
  int64_t batch = 96;
  double spread = 1.0;
  double box = 600.0;
  double noise = 0.1;
};

/// Affinity scale and LSH segment length of a stream of the given spread
/// (intra-cluster distance ~ sqrt(2 d) * spread maps to affinity 0.9; the
/// segment is three times that distance).
double StreamKernel(int dim, double spread);
double StreamLshSegment(int dim, double spread);

/// Arrivals of batch `batch`.
Rows ZipfBatch(const ZipfStreamParams& params, uint64_t seed, int64_t batch);
Rows ChurnBatch(const ChurnStreamParams& params, uint64_t seed,
                int64_t batch);
/// `count` query points drawn from the arrival distribution of batch
/// `batch`; `request` keys the draw.
Rows ZipfQueries(const ZipfStreamParams& params, uint64_t seed, int64_t batch,
                 uint64_t request, int64_t count);
Rows ChurnQueries(const ChurnStreamParams& params, uint64_t seed,
                  int64_t batch, uint64_t request, int64_t count);

/// True iff churn slot `slot` is fed at batch `batch`; `generation`
/// receives the index of its current incarnation.
bool ChurnSlotLive(const ChurnStreamParams& params, uint64_t seed, int slot,
                   int64_t batch, int64_t* generation);

}  // namespace e2ebench

#endif  // E2EBENCH_GENERATORS_H_
