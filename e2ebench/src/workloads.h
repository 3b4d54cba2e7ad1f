#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace e2ebench {

/// The paper's keep threshold: a cluster (or planted group) is dominant
/// when its density reaches it.
inline constexpr double kKeepDensity = 0.75;

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir;
  int nproc = 1;
};

/// How a workload splits the `nproc` threads it may use. Writer, query
/// clients and pool workers together never exceed nproc.
struct ThreadSplit {
  int writer = 1;
  int clients = 0;
  int pool = 1;
};

/// Everything a run reports: the metric values by name, human-readable
/// lines, failed checks and the operation counts.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  ThreadSplit split;
  /// Workload-specific run context (sizes, window, shard count...).
  std::string context;

  void Fail(const std::string& what) { failures.push_back(what); }
};

/// Name and unit of one reported metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed with tracing off.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics, printed by the traced run (0 where the workload does
/// not run the layer).
extern const std::vector<MetricSpec> kPerLayer;

/// Raw end-to-end measurements shared by every workload.
struct EndToEndSamples {
  std::vector<double> setup_s;  ///< One per set-up.
  LatencySample detect_s;
  /// Items per second of writer-loop time, one per round (episode); the
  /// median over rounds keeps one disturbed round from moving the rate.
  std::vector<double> ingest_rate;
  LatencySample ingest_s;   ///< Per insert call.
  LatencySample publish_s;  ///< Per publish (build + swap).
  /// Query points answered per second of client time, one per round.
  std::vector<double> query_rate;
  LatencySample query_s;  ///< Per request.
  double avg_f = 0.0;
};

/// Fills the end-to-end metrics (and their tail/sample-count lines).
void ReportEndToEnd(const EndToEndSamples& samples, Report* report);

/// Fills the per-layer self times of the traced run from its spans.
void ReportLayerTimes(const Tracer& tracer, Report* report);

/// Writes the traced run's spans to <trace_dir>/<workload>-seed<n>.tsv
/// (nothing without a trace_dir); a failed write is reported as a line.
void WriteTrace(const Tracer& tracer, const RunConfig& config,
                const std::string& workload, Report* report);

void RunDetectStatic(const RunConfig& config, Report* report);
void RunIngestHeavy(const RunConfig& config, Report* report);
void RunServeChurn(const RunConfig& config, Report* report);
void RunShardFanout(const RunConfig& config, Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
