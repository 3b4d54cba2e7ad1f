#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Measurement helpers of the end-to-end benchmark: latency summaries, the
// benchmark-side span recorder (spans around calls into the program's public
// API, never inside it), self-time accounting, the final-state digest and
// the result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace e2ebench {

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of the samples (mean of the middle two for an even count); 0 for
/// an empty set.
double Median(std::vector<double> samples);

/// Median plus the tail. The tail percentile is the highest one that a
/// sample of `kTailSample` calls supports with `kTailBeyond` calls beyond
/// it: p95 whenever a run completes at least kTailSample calls, and for
/// smaller runs the highest one with kTailBeyond of the run's own calls
/// beyond it. Fixing the percentile keeps it the same however many calls a
/// run completes, so a faster program is not charged a more extreme one.
/// Both values are nearest-rank percentiles over every sample. Below
/// 2 * kTailBeyond samples no percentile above the median qualifies, and
/// the tail is the median.
struct TailSummary {
  static constexpr int64_t kTailBeyond = 10;
  static constexpr int64_t kTailSample = 200;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;
  int64_t samples = 0;
};
TailSummary SummarizeTail(std::vector<double> samples);

/// A uniform random sample (Algorithm R, fixed seed) of at most `capacity`
/// latencies out of every one added.
class LatencySample {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;
  explicit LatencySample(size_t capacity = kDefaultCapacity,
                         uint64_t seed = 0x9e3779b97f4a7c15ull)
      : capacity_(capacity), state_(seed) {}
  void Add(double value);
  /// Appends another sample's kept values and counts its calls as seen
  /// (the union of per-client samples of equal rate stays uniform).
  void Merge(const LatencySample& other);
  const std::vector<double>& values() const { return values_; }
  /// Latencies ever added (kept or not).
  int64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t state_;
  int64_t seen_ = 0;
  std::vector<double> values_;
};

/// One recorded span: a call the benchmark made into one layer.
struct SpanRecord {
  const char* name = nullptr;  ///< Static string: the layer/operation.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span in the same thread.
  int64_t id = -1;      ///< Batch, episode or request id.
};

/// The spans of one thread. Spans nest by scope; a span's parent is the
/// innermost span open on the same thread when it began.
class ThreadTrace {
 public:
  explicit ThreadTrace(std::string thread_name)
      : thread_name_(std::move(thread_name)) {}
  int32_t Begin(const char* name, int64_t id);
  void End(int32_t span);
  const std::string& thread_name() const { return thread_name_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::string thread_name_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null trace (tracing off) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, const char* name, int64_t id = -1)
      : trace_(trace), index_(trace ? trace->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
std::vector<double> SelfSeconds(std::span<const SpanRecord> spans);

/// Per-name aggregate of self times.
struct LayerTime {
  int64_t calls = 0;
  double self_seconds = 0.0;
  std::vector<double> self_samples;
};

/// Owns the per-thread traces of one traced run; keeps every span in memory
/// (nothing is dropped) and writes them out once at the end.
class Tracer {
 public:
  /// A new trace for the calling thread. Thread-safe.
  ThreadTrace* NewThread(const std::string& thread_name);
  int64_t SpanCount() const;
  /// Self-time aggregate per span name across threads.
  std::map<std::string, LayerTime> LayerTimes() const;
  /// Writes one tab-separated line per span (thread, index, parent, name,
  /// id, start_ns, end_ns, self_ns). Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// 64-bit digest of a detection state: every cluster's member ids and the
/// bit patterns of its weights, in cluster order.
class Digest {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  void AddClusters(std::span<const alid::Cluster> clusters);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with all its digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
