#ifndef E2EBENCH_SERVING_H_
#define E2EBENCH_SERVING_H_

// The query side of the benchmark: one closed-loop client issuing a fixed
// request mix through the public serve API (ClusterServer::Query or
// ShardRouter::Query), timing each request and checking each answer.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "generators.h"
#include "harness.h"
#include "serve/cluster_server.h"

namespace e2ebench {

/// The request mix of a client. Request r is, by r modulo the mix length:
/// a single assignment, a batched assignment of `batch_points`, a top-k
/// query and (when `as_of`) a single assignment against the previous
/// published generation.
struct RequestMix {
  int batch_points = 16;
  int top_k = 3;
  bool as_of = false;
};

/// What one client saw.
struct ClientStats {
  int64_t requests = 0;
  int64_t points = 0;
  int64_t assign_points = 0;  ///< Points of assignment requests.
  int64_t assigned = 0;       ///< Of those, answered with a cluster.
  int64_t failed = 0;         ///< Non-kOk answers or malformed answers.
  int64_t mismatches = 0;     ///< Spot checks that disagreed.
  LatencySample latency_s;
  /// Distinct answering generations, in the order seen.
  std::vector<uint64_t> generations;
};

class QueryClient {
 public:
  /// `refill(k)` returns the k-th block of query points (any row count).
  using Refill = std::function<Rows(uint64_t)>;

  QueryClient(RequestMix mix, Refill refill,
              size_t latency_capacity = LatencySample::kDefaultCapacity)
      : mix_(mix), refill_(std::move(refill)) {
    stats_.latency_s = LatencySample(latency_capacity);
  }

  /// Issues the next request of the mix. `as_of_generation` is the
  /// generation an as-of request addresses (0 = current).
  template <class Server>
  void Issue(const Server& server, uint64_t as_of_generation,
             ThreadTrace* trace, const char* span_name);

  const ClientStats& stats() const { return stats_; }

 private:
  std::span<const double> NextPoints(int64_t count);

  // Every kSpotCheckEvery-th single assignment against a ClusterServer is
  // replayed on the answering snapshot itself and must agree bit for bit.
  static constexpr int64_t kSpotCheckEvery = 16;

  RequestMix mix_;
  Refill refill_;
  Rows buffer_;
  int64_t cursor_ = 0;
  uint64_t refills_ = 0;
  int64_t request_ = 0;
  ClientStats stats_;
};

inline std::span<const double> QueryClient::NextPoints(int64_t count) {
  if (cursor_ + count > buffer_.count()) {
    buffer_ = refill_(refills_++);
    cursor_ = 0;
  }
  const int64_t dim = buffer_.dim;
  std::span<const double> out(buffer_.points.data() + cursor_ * dim,
                              static_cast<size_t>(count * dim));
  cursor_ += count;
  return out;
}

template <class Server>
void QueryClient::Issue(const Server& server, uint64_t as_of_generation,
                        ThreadTrace* trace, const char* span_name) {
  const int kinds = mix_.as_of ? 4 : 3;
  const int kind = static_cast<int>(request_ % kinds);
  const int64_t count = kind == 1 ? mix_.batch_points : 1;
  alid::QueryRequest request;
  request.points = NextPoints(count);
  request.top_k = kind == 2 ? mix_.top_k : 0;
  request.generation = kind == 3 ? as_of_generation : 0;

  const int64_t start = NowNs();
  auto response = [&] {
    ScopedSpan span(trace, span_name, request_);
    return server.Query(request);
  }();
  stats_.latency_s.Add(static_cast<double>(NowNs() - start) * 1e-9);

  ++stats_.requests;
  stats_.points += count;
  const bool sized = request.top_k > 0
                         ? static_cast<int64_t>(response.ranked.size()) == count
                         : static_cast<int64_t>(response.assignments.size()) ==
                               count;
  if (!response.ok() || !sized) {
    ++stats_.failed;
  } else {
    if (stats_.generations.empty() ||
        stats_.generations.back() != response.generation) {
      stats_.generations.push_back(response.generation);
    }
    if (request.top_k == 0) {
      stats_.assign_points += count;
      for (const auto& a : response.assignments) {
        stats_.assigned += a.cluster >= 0 ? 1 : 0;
        if (a.generation != response.generation) ++stats_.failed;
      }
    }
    if constexpr (std::is_same_v<Server, alid::ClusterServer>) {
      if (kind == 0 && request_ % (kSpotCheckEvery * kinds) == 0) {
        const auto snapshot = server.SnapshotAt(response.generation);
        if (snapshot != nullptr) {
          const alid::AssignOutcome direct = snapshot->Assign(request.points);
          const auto& served = response.assignments.front();
          if (direct.cluster != served.cluster ||
              direct.affinity != served.affinity ||
              direct.margin != served.margin) {
            ++stats_.mismatches;
          }
        }
      }
    }
  }
  ++request_;
}

/// Checks every generation the clients saw against the published ones
/// (`published` ascending); returns how many were never published.
inline int64_t UnpublishedGenerations(
    const std::vector<uint64_t>& published,
    const std::vector<const ClientStats*>& clients) {
  int64_t bad = 0;
  for (const ClientStats* c : clients) {
    for (uint64_t g : c->generations) {
      if (!std::binary_search(published.begin(), published.end(), g)) ++bad;
    }
  }
  return bad;
}

}  // namespace e2ebench

#endif  // E2EBENCH_SERVING_H_
