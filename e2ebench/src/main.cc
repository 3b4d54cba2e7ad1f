// End-to-end benchmark of the ALID runtime.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-dir <dir>]
//
// Runs one workload in this process through the library's public API and
// prints human-readable lines, then a run-context line, then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (tracing off); with --trace 1
// the run is repeated with the benchmark's own spans on and the metrics are
// the per-layer ones. Exit code 0 only when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "simd/simd_dispatch.h"
#include "workloads.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using e2ebench::Report;
using e2ebench::RunConfig;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<detect_static|ingest_heavy|serve_churn|shard_fanout> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

// Host CPU time stolen by the hypervisor and total CPU time so far, in
// ticks, from /proc/stat (both 0 where it is not readable).
std::pair<long long, long long> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  long long v[8] = {};
  const int read = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                               &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                               &v[7]);
  std::fclose(f);
  if (read != 8) return {0, 0};
  long long total = 0;
  for (long long x : v) total += x;
  return {v[7], total};
}

bool ParseInt(const char* text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0';
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, &number) || number < 0) Usage("bad --seed");
      config.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, &number) || number < 1 || number > 60) {
        Usage("--seconds must be a whole number in [1, 60]");
      }
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, &number) || (number != 0 && number != 1)) {
        Usage("--trace must be 0 or 1");
      }
      config.trace = number == 1;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  // The program's own span recorder stays off in both runs: every span of
  // the traced run is recorded by the benchmark around public calls.
  alid::obs::TraceRecorder::Global().Disable();
  const auto steal_start = StealTicks();

  Report report;
  if (config.workload == "detect_static") {
    e2ebench::RunDetectStatic(config, &report);
  } else if (config.workload == "ingest_heavy") {
    e2ebench::RunIngestHeavy(config, &report);
  } else if (config.workload == "serve_churn") {
    e2ebench::RunServeChurn(config, &report);
  } else if (config.workload == "shard_fanout") {
    e2ebench::RunShardFanout(config, &report);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  const auto& recorder = alid::obs::TraceRecorder::Global();
  if (recorder.enabled()) report.Fail("the program's span recorder was on");
  report.metrics["obs.spans_dropped"] =
      static_cast<double>(recorder.dropped_events());

  const auto& specs = config.trace ? e2ebench::kPerLayer : e2ebench::kEndToEnd;
  std::vector<e2ebench::Metric> metrics;
  for (const e2ebench::MetricSpec& spec : specs) {
    const auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) report.Fail(std::string(spec.name) + " is not finite");
    metrics.push_back({spec.name, value, spec.unit});
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  for (const e2ebench::Metric& m : metrics) {
    std::printf("metric %-34s %-16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!config.trace) {
    // Printed beside the metrics but not in the result line, where it is
    // `failed` over `attempted`: it is 0 on every passing run.
    std::printf("metric %-34s %-16.6g %s\n", "failed_share",
                report.attempted > 0
                    ? static_cast<double>(report.failed) / report.attempted
                    : 0.0,
                "ratio");
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // The share of the machine's CPU time the host took away during the run:
  // readings taken under heavy steal are not comparable with quiet ones.
  const auto steal_end = StealTicks();
  const long long total = steal_end.second - steal_start.second;
  const double steal_share =
      total > 0 ? static_cast<double>(steal_end.first - steal_start.first) / total
                : 0.0;
  std::printf(
      "context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%d,\"simd_isa\":\"%s\",\"build_type\":\"%s\","
      "\"host_steal_share\":%.4f,"
      "\"threads\":{\"writer\":%d,\"clients\":%d,\"pool\":%d},%s}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.nproc,
      alid::SimdIsaName(alid::ActiveSimdIsa()), E2EBENCH_BUILD_TYPE,
      steal_share, report.split.writer, report.split.clients, report.split.pool,
      report.context.c_str());
  const bool correct = report.failures.empty();
  std::printf("%s\n", e2ebench::ResultJson(correct, std::max<int64_t>(
                                                        1, report.attempted),
                                           report.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
