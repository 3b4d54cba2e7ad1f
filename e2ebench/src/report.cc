#include <cstdio>

#include "workloads.h"

namespace e2ebench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"detect_s", "s"},
    {"ingest_items_per_s", "1/s"},
    {"ingest_batch_p50_ms", "ms"},
    {"ingest_batch_tail_ms", "ms"},
    {"publish_p50_ms", "ms"},
    {"publish_tail_ms", "ms"},
    {"query_qps", "1/s"},
    {"query_p50_us", "us"},
    {"query_tail_us", "us"},
    {"avg_f", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"lsh.build_s", "s"},
    {"lsh.bytes", "bytes"},
    {"lsh.candidates_per_item", "count"},
    {"core.palid.detect_s", "s"},
    {"core.palid.task_s_sum", "s"},
    {"core.palid.task_s_max", "s"},
    {"core.palid.busy_share", "ratio"},
    {"core.palid.seeds", "count"},
    {"core.palid.tasks", "count"},
    {"common.pool.steals", "count/batch"},
    {"affinity.entries_computed", "count/batch"},
    {"affinity.cache_hits", "count/batch"},
    {"affinity.cache_hit_ratio", "ratio"},
    {"affinity.cache_evictions", "count/batch"},
    {"affinity.cache_budget_bytes", "bytes"},
    {"affinity.peak_bytes", "bytes"},
    {"core.stream.insert_s", "s"},
    {"core.stream.absorbed", "count/batch"},
    {"core.stream.pooled", "count/batch"},
    {"core.stream.evicted", "count/batch"},
    {"core.stream.redetections", "count/batch"},
    {"core.stream.refreshes", "count/batch"},
    {"core.stream.refresh_conflicts", "count/batch"},
    {"core.stream.clusters_born", "count/batch"},
    {"core.stream.clusters_dissolved", "count/batch"},
    {"core.stream.sketch_prunes", "count/batch"},
    {"core.stream.sketch_exact", "count/batch"},
    {"core.stream.absorb_ratio", "ratio"},
    {"core.stream.entries_per_absorb", "entries/absorb"},
    {"core.stream.sketch_prune_ratio", "ratio"},
    {"core.stream.refresh_conflict_ratio", "ratio"},
    {"serve.publish.build_s", "s"},
    {"serve.publish.swap_s", "s"},
    {"serve.publish.reuse_ratio", "ratio"},
    {"serve.publish.bytes_copied", "bytes/batch"},
    {"serve.publish.bytes_shared", "bytes/batch"},
    {"serve.publish.clusters_reused", "count/batch"},
    {"serve.query.calls", "count/batch"},
    {"serve.query.points", "count/batch"},
    {"serve.query.assigned_ratio", "ratio"},
    {"serve.query.sketch_prune_ratio", "ratio"},
    {"serve.query.failed", "count"},
    {"serve.history.bytes", "bytes"},
    {"shard.insert_s", "s"},
    {"shard.publish_s", "s"},
    {"shard.query_s", "s"},
    {"shard.occupancy_skew", "ratio"},
    {"shard.clusters_total", "count"},
    {"shard.boundary_pairs", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.spans_recorded", "count"},
    {"obs.spans_dropped", "count"},
};

namespace {

std::string Format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

void ReportTail(const char* p50_name, const char* tail_name, double scale,
                const LatencySample& sample, Report* report) {
  const TailSummary summary = SummarizeTail(sample.values());
  report->metrics[p50_name] = summary.p50 * scale;
  report->metrics[tail_name] = summary.tail * scale;
  report->lines.push_back(
      Format("tail %s = p%.2f over %lld samples (uniform sample of %lld "
             "calls)",
             tail_name, summary.tail_percentile,
             static_cast<long long>(summary.samples),
             static_cast<long long>(sample.seen())));
}

}  // namespace

void ReportEndToEnd(const EndToEndSamples& s, Report* report) {
  report->metrics["setup_s"] = Median(s.setup_s);
  report->metrics["detect_s"] = Median(s.detect_s.values());
  report->metrics["ingest_items_per_s"] = Median(s.ingest_rate);
  ReportTail("ingest_batch_p50_ms", "ingest_batch_tail_ms", 1e3, s.ingest_s,
             report);
  ReportTail("publish_p50_ms", "publish_tail_ms", 1e3, s.publish_s, report);
  report->metrics["query_qps"] = Median(s.query_rate);
  ReportTail("query_p50_us", "query_tail_us", 1e6, s.query_s, report);
  report->metrics["avg_f"] = s.avg_f;
  report->metrics["peak_rss_mb"] = PeakRssMb();
  report->lines.push_back(
      Format("samples setups=%zu rounds=%zu batches=%lld requests=%lld",
             s.setup_s.size(), s.ingest_rate.size(),
             static_cast<long long>(s.ingest_s.seen()),
             static_cast<long long>(s.query_s.seen())));
}

void ReportLayerTimes(const Tracer& tracer, Report* report) {
  // Span name -> per-layer metric fed by the median self time of its calls.
  static const std::map<std::string, std::string> kTimed = {
      {"lsh.build", "lsh.build_s"},
      {"core.palid.detect", "core.palid.detect_s"},
      {"core.stream.insert", "core.stream.insert_s"},
      {"serve.publish.build", "serve.publish.build_s"},
      {"serve.publish.swap", "serve.publish.swap_s"},
      {"shard.insert", "shard.insert_s"},
      {"shard.publish", "shard.publish_s"},
      {"shard.query", "shard.query_s"},
  };
  double root_total = 0.0;
  const std::map<std::string, LayerTime> layers = tracer.LayerTimes();
  for (const auto& [name, layer] : layers) root_total += layer.self_seconds;
  for (const auto& [name, layer] : layers) {
    const double median = Median(layer.self_samples);
    report->lines.push_back(Format(
        "layer %-22s calls=%-8lld self_total_s=%-10.4f self_median_s=%-10.3g "
        "share=%.4f",
        name.c_str(), static_cast<long long>(layer.calls), layer.self_seconds,
        median, root_total > 0.0 ? layer.self_seconds / root_total : 0.0));
    if (auto it = kTimed.find(name); it != kTimed.end()) {
      report->metrics[it->second] = median;
    }
  }
  report->metrics["obs.spans_recorded"] =
      static_cast<double>(tracer.SpanCount());
}

void WriteTrace(const Tracer& tracer, const RunConfig& config,
                const std::string& workload, Report* report) {
  if (config.trace_dir.empty()) return;
  const std::string path = config.trace_dir + "/" + workload + "-seed" +
                           std::to_string(config.seed) + ".tsv";
  report->lines.push_back((tracer.WriteTsv(path) ? "trace written to "
                                                 : "trace NOT written to ") +
                          path);
}

}  // namespace e2ebench
