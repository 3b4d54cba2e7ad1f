#include "generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2ebench {
namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Counter-based randomness: a SplitMix64 stream keyed by a mixed tuple, so
// every row's draws depend only on its key.
class KeyedRng {
 public:
  explicit KeyedRng(uint64_t key) : state_(key) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return SplitMix(state_);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  // Standard normal (Box-Muller on two draws).
  double Gaussian() {
    const double u1 = 1.0 - Uniform();  // (0, 1]
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

// Mixes the parts into one key (order matters).
uint64_t Key(uint64_t a, uint64_t b, uint64_t c = 0, uint64_t d = 0,
             uint64_t e = 0) {
  uint64_t h = SplitMix(a);
  for (uint64_t part : {b, c, d, e}) h = SplitMix(h ^ SplitMix(part + h));
  return h;
}

// Which kind of row a key draws: a stream arrival or a query point.
enum class RowKind : uint64_t { kArrival = 1, kQuery = 2 };

// Stream tags keep the draws of different workloads and purposes apart.
enum Tag : uint64_t {
  kSiftCenter = 11,
  kSiftRow = 12,
  kSiftQuery = 13,
  kZipfCenter = 21,
  kZipfRow = 22,
  kChurnPhase = 31,
  kChurnCenter = 32,
  kChurnRow = 33,
};

constexpr double kNoiseMargin = 20.0;

// Projects onto the non-negative unit sphere (SIFT geometry).
void NormalizeSift(double* v, int dim) {
  double norm = 0.0;
  for (int t = 0; t < dim; ++t) {
    if (v[t] < 0.0) v[t] = 0.0;
    norm += v[t] * v[t];
  }
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (int t = 0; t < dim; ++t) v[t] /= norm;
  }
}

// `active` distinct dimensions drawn uniformly, filled from [lo, hi).
void SparseDirection(KeyedRng& rng, int dim, int active, double lo, double hi,
                     double* out) {
  std::vector<int> order(dim);
  std::iota(order.begin(), order.end(), 0);
  for (int i = 0; i < active; ++i) {
    const int j = i + static_cast<int>(rng.Next() % (dim - i));
    std::swap(order[i], order[j]);
  }
  std::fill(out, out + dim, 0.0);
  for (int i = 0; i < active; ++i) out[order[i]] = rng.Uniform(lo, hi);
  NormalizeSift(out, dim);
}

std::vector<double> SiftCenters(const SiftLikeParams& p, uint64_t seed) {
  std::vector<double> centers(static_cast<size_t>(p.words) * p.dim);
  for (int w = 0; w < p.words; ++w) {
    KeyedRng rng(Key(seed, kSiftCenter, w));
    SparseDirection(rng, p.dim, p.dim / 4, 0.2, 1.0, &centers[w * p.dim]);
  }
  return centers;
}

void SiftWordRow(const SiftLikeParams& p, const double* center,
                 KeyedRng& rng, double* out) {
  for (int t = 0; t < p.dim; ++t) {
    out[t] = center[t] + p.word_spread * rng.Gaussian();
  }
  NormalizeSift(out, p.dim);
}

int64_t SiftPerWord(const SiftLikeParams& p) {
  const auto word_total = static_cast<int64_t>(p.word_fraction * p.n);
  return std::max<int64_t>(2, word_total / p.words);
}

void UniformPoint(KeyedRng& rng, int dim, double box, double* out) {
  for (int t = 0; t < dim; ++t) {
    out[t] = rng.Uniform(-kNoiseMargin, box + kNoiseMargin);
  }
}

void GaussianAround(KeyedRng& rng, const std::vector<double>& center,
                    double spread, double* out) {
  for (size_t t = 0; t < center.size(); ++t) {
    out[t] = center[t] + spread * rng.Gaussian();
  }
}

std::vector<double> BoxCenter(uint64_t key, int dim, double box) {
  KeyedRng rng(key);
  std::vector<double> c(dim);
  for (double& x : c) x = rng.Uniform(0.0, box);
  return c;
}

int64_t FloorDiv(int64_t a, int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

// Draws one Zipf-stream row keyed by `key` into out; returns its label.
int64_t ZipfRow(const ZipfStreamParams& p, uint64_t seed,
                const std::vector<double>& cdf, uint64_t key, double* out) {
  KeyedRng rng(key);
  if (rng.Uniform() < p.noise) {
    UniformPoint(rng, p.dim, p.box, out);
    return kNoise;
  }
  const double u = rng.Uniform() * cdf.back();
  const int c = static_cast<int>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  const int cluster = std::min(c, p.clusters - 1);
  GaussianAround(rng, BoxCenter(Key(seed, kZipfCenter, cluster), p.dim, p.box),
                 p.spread, out);
  return cluster;
}

std::vector<double> ZipfCdf(const ZipfStreamParams& p) {
  std::vector<double> cdf(p.clusters);
  double total = 0.0;
  for (int c = 0; c < p.clusters; ++c) {
    total += std::pow(static_cast<double>(c + 1), -p.zipf);
    cdf[c] = total;
  }
  return cdf;
}

Rows ZipfRows(const ZipfStreamParams& p, uint64_t seed, RowKind kind,
              uint64_t a, int64_t count) {
  const std::vector<double> cdf = ZipfCdf(p);
  Rows rows;
  rows.dim = p.dim;
  rows.points.resize(static_cast<size_t>(count) * p.dim);
  rows.labels.resize(count);
  for (int64_t i = 0; i < count; ++i) {
    rows.labels[i] =
        ZipfRow(p, seed, cdf, Key(seed, kZipfRow, static_cast<uint64_t>(kind), a, i),
                &rows.points[i * p.dim]);
  }
  return rows;
}

Rows ChurnRows(const ChurnStreamParams& p, uint64_t seed, int64_t batch,
               RowKind kind, uint64_t a, int64_t count) {
  std::vector<int> live;
  std::vector<int64_t> generation;
  for (int s = 0; s < p.slots; ++s) {
    int64_t g = 0;
    if (ChurnSlotLive(p, seed, s, batch, &g)) {
      live.push_back(s);
      generation.push_back(g);
    }
  }
  Rows rows;
  rows.dim = p.dim;
  rows.points.resize(static_cast<size_t>(count) * p.dim);
  rows.labels.resize(count);
  for (int64_t i = 0; i < count; ++i) {
    KeyedRng rng(Key(seed, kChurnRow, static_cast<uint64_t>(kind), a, i));
    double* out = &rows.points[i * p.dim];
    if (live.empty() || rng.Uniform() < p.noise) {
      UniformPoint(rng, p.dim, p.box, out);
      rows.labels[i] = kNoise;
      continue;
    }
    const size_t pick = rng.Next() % live.size();
    const int slot = live[pick];
    const int64_t g = generation[pick];
    // Centers are keyed by the incarnation, so a reborn slot moves.
    const uint64_t center_key =
        Key(seed, kChurnCenter, slot, static_cast<uint64_t>(g));
    GaussianAround(rng, BoxCenter(center_key, p.dim, p.box), p.spread, out);
    rows.labels[i] = (static_cast<int64_t>(slot) << 32) | (g & 0xffffffff);
  }
  return rows;
}

}  // namespace

double SiftLikeParams::Kernel() const {
  return -std::log(0.9) / (std::sqrt(static_cast<double>(dim)) * word_spread *
                           1.2);
}

double SiftLikeParams::LshSegment() const {
  return 3.0 * std::sqrt(static_cast<double>(dim)) * word_spread * 1.2;
}

Rows SiftLikeSet(const SiftLikeParams& p, uint64_t seed) {
  const std::vector<double> centers = SiftCenters(p, seed);
  const int64_t per_word = SiftPerWord(p);
  Rows rows;
  rows.dim = p.dim;
  rows.points.resize(static_cast<size_t>(p.n) * p.dim);
  rows.labels.resize(p.n);
  for (int64_t i = 0; i < p.n; ++i) {
    KeyedRng rng(Key(seed, kSiftRow, i));
    double* out = &rows.points[i * p.dim];
    const int64_t word = i / per_word;
    if (word < p.words) {
      SiftWordRow(p, &centers[word * p.dim], rng, out);
      rows.labels[i] = word;
    } else {
      SparseDirection(rng, p.dim, p.dim / 6, 0.1, 1.0, out);
      rows.labels[i] = kNoise;
    }
  }
  return rows;
}

Rows SiftLikeQueries(const SiftLikeParams& p, uint64_t seed, uint64_t request,
                     int64_t count) {
  const std::vector<double> centers = SiftCenters(p, seed);
  Rows rows;
  rows.dim = p.dim;
  rows.points.resize(static_cast<size_t>(count) * p.dim);
  rows.labels.resize(count);
  for (int64_t i = 0; i < count; ++i) {
    KeyedRng rng(Key(seed, kSiftQuery, request, i));
    double* out = &rows.points[i * p.dim];
    if (rng.Uniform() < p.word_fraction) {
      const int word = static_cast<int>(rng.Next() % p.words);
      SiftWordRow(p, &centers[word * p.dim], rng, out);
      rows.labels[i] = word;
    } else {
      SparseDirection(rng, p.dim, p.dim / 6, 0.1, 1.0, out);
      rows.labels[i] = kNoise;
    }
  }
  return rows;
}

double StreamKernel(int dim, double spread) {
  return -std::log(0.9) / (std::sqrt(2.0 * dim) * spread);
}

double StreamLshSegment(int dim, double spread) {
  return 3.0 * std::sqrt(2.0 * dim) * spread;
}

Rows ZipfBatch(const ZipfStreamParams& p, uint64_t seed, int64_t batch) {
  return ZipfRows(p, seed, RowKind::kArrival, static_cast<uint64_t>(batch),
                  p.batch);
}

Rows ZipfQueries(const ZipfStreamParams& p, uint64_t seed, int64_t /*batch*/,
                 uint64_t request, int64_t count) {
  // The Zipf centers never move, so the batch index does not shape queries.
  return ZipfRows(p, seed, RowKind::kQuery, request, count);
}

Rows ChurnBatch(const ChurnStreamParams& p, uint64_t seed, int64_t batch) {
  return ChurnRows(p, seed, batch, RowKind::kArrival,
                   static_cast<uint64_t>(batch), p.batch);
}

Rows ChurnQueries(const ChurnStreamParams& p, uint64_t seed, int64_t batch,
                  uint64_t request, int64_t count) {
  return ChurnRows(p, seed, batch, RowKind::kQuery, request, count);
}

bool ChurnSlotLive(const ChurnStreamParams& p, uint64_t seed, int slot,
                   int64_t batch, int64_t* generation) {
  // Storms get equal shares of the slots; the seed decides which.
  const int64_t storm = static_cast<int64_t>(
      (static_cast<uint64_t>(slot) + SplitMix(Key(seed, kChurnPhase))) %
      static_cast<uint64_t>(p.storms));
  const int64_t phase = storm * p.period / p.storms;
  const int64_t since = batch - phase;
  const int64_t g = FloorDiv(since, p.period);
  *generation = g;
  return since - g * p.period < p.lifetime;
}

}  // namespace e2ebench
