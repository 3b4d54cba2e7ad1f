// detect_static: LSH build plus PALID on a static SIFT-like planted set (the
// paper's Table 2 setting), then the detection is published to a
// ClusterServer and queried. One episode per detection; the writer thread is
// also the only query client, so queries never overlap detection and
// detect_s measures lsh + core.palid + affinity alone.

#include <cstdio>
#include <memory>
#include <optional>

#include "affinity/affinity_function.h"
#include "affinity/lazy_affinity_oracle.h"
#include "common/dataset.h"
#include "common/thread_pool.h"
#include "core/palid.h"
#include "eval/metrics.h"
#include "lsh/lsh_index.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "serving.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr int kQueriesPerEpisode = 64;
constexpr int kSetups = 10;      // set-up is cheap; more give a steadier median
constexpr int kTracedEpisodes = 8;
constexpr double kMinAvgF = 0.9;

alid::LshParams LshParams(const SiftLikeParams& p) {
  alid::LshParams lsh;
  lsh.num_tables = 8;
  lsh.num_projections = 6;
  lsh.segment_length = p.LshSegment();
  return lsh;
}

// The system under test before the measured phase: dataset, kernel and
// pool. Each episode builds its own oracle, so no episode inherits a warm
// column cache from its predecessor.
struct StaticSystem {
  Rows rows;
  std::vector<alid::IndexList> truth;
  alid::Dataset data;
  std::unique_ptr<alid::AffinityFunction> affinity;
  std::unique_ptr<alid::ThreadPool> pool;
};

std::unique_ptr<StaticSystem> Setup(const SiftLikeParams& p, uint64_t seed,
                                    int pool_threads) {
  auto sys = std::make_unique<StaticSystem>();
  sys->rows = SiftLikeSet(p, seed);
  sys->data = alid::Dataset(p.dim, sys->rows.points);
  for (int64_t i = 0; i < sys->rows.count(); ++i) {
    const int64_t label = sys->rows.labels[i];
    if (label < 0) continue;
    if (static_cast<size_t>(label) >= sys->truth.size()) {
      sys->truth.resize(label + 1);
    }
    sys->truth[label].push_back(static_cast<alid::Index>(i));
  }
  sys->affinity = std::make_unique<alid::AffinityFunction>(
      alid::AffinityParams{.k = p.Kernel(), .p = 2.0});
  sys->pool = std::make_unique<alid::ThreadPool>(pool_threads);
  return sys;
}

// Per-episode layer readings (counter changes across the episode's calls).
struct EpisodeLayers {
  double candidates_per_item = 0.0;
  std::vector<double> task_sum, task_max, busy_share, seeds, tasks, steals;
  std::vector<double> entries, hits, evictions, budget, peak, lsh_bytes;
  std::vector<double> reuse, bytes_copied, bytes_shared, clusters_reused;
};

struct PassResult {
  int64_t episodes = 0;
  std::vector<double> episode_s;
  uint64_t digest = 0;
  bool digests_agree = true;
  double avg_f = 0.0;
  EndToEndSamples samples;
  EpisodeLayers layers;
  std::vector<uint64_t> published;
  int64_t attempted_ops = 0;
  double history_bytes = 0.0;
  int64_t query_prunes = 0;
  int64_t query_exact = 0;
};

// Runs episodes until `seconds` pass (replay_episodes < 0) or exactly
// replay_episodes of them.
void RunEpisodes(StaticSystem& sys, const SiftLikeParams& p, double seconds,
                 int64_t replay_episodes, ThreadTrace* trace,
                 QueryClient* client, PassResult* out) {
  const alid::LshParams lsh_params = LshParams(p);
  alid::ClusterSnapshotOptions snap_options;
  snap_options.affinity = sys.affinity->params();
  snap_options.lsh = lsh_params;
  // The snapshot build runs on the writer thread: the pool has just finished
  // the detection, and a serial build exposes the publish latency to one
  // core instead of a barrier across all of them.
  alid::ClusterServer server(p.dim);
  alid::PalidOptions palid_options;
  palid_options.pool = sys.pool.get();

  const int64_t loop_start = NowNs();
  for (int64_t e = 0;; ++e) {
    if (replay_episodes >= 0 ? e >= replay_episodes
                             : (e > 0 && (NowNs() - loop_start) * 1e-9 >=
                                             seconds)) {
      break;
    }
    const int64_t episode_start = NowNs();
    const int64_t points_before = client->stats().points;
    ScopedSpan episode_span(trace, "episode", e);
    alid::LazyAffinityOracle oracle(sys.data, *sys.affinity);
    const int64_t steals_before = sys.pool->steal_count();
    const int64_t t0 = NowNs();
    std::optional<alid::LshIndex> lsh;
    {
      ScopedSpan span(trace, "lsh.build");
      lsh.emplace(sys.data, lsh_params);
    }
    const int64_t t1 = NowNs();
    alid::PalidStats stats;
    alid::DetectionResult result;
    {
      ScopedSpan span(trace, "core.palid.detect");
      result = alid::Palid(oracle, *lsh, palid_options).Detect(&stats);
    }
    const int64_t t2 = NowNs();
    ++out->attempted_ops;
    const alid::DetectionResult kept = result.Filtered(kKeepDensity);

    Digest digest;
    digest.AddClusters(kept.clusters);
    if (e == 0) out->digest = digest.value();
    if (digest.value() != out->digest) out->digests_agree = false;

    const uint64_t generation = static_cast<uint64_t>(e) + 1;
    out->published.push_back(generation);
    std::shared_ptr<const alid::ClusterSnapshot> snapshot;
    {
      ScopedSpan span(trace, "serve.publish.build");
      snapshot = alid::ClusterSnapshot::FromDetection(sys.data, kept,
                                                      snap_options, generation);
    }
    {
      ScopedSpan span(trace, "serve.publish.swap");
      server.Publish(snapshot);
    }
    const int64_t t3 = NowNs();
    ++out->attempted_ops;
    const alid::SnapshotBuildInfo& info = snapshot->build_info();

    for (int q = 0; q < kQueriesPerEpisode; ++q) {
      client->Issue(server, e > 0 ? generation - 1 : 0, trace, "serve.query");
    }
    const int64_t t4 = NowNs();
    out->episode_s.push_back((t4 - episode_start) * 1e-9);
    if (e == 0) {  // deterministic: scored once, outside the timed episode
      ScopedSpan span(trace, "eval.avg_f");
      out->avg_f = alid::AverageF1(sys.truth, kept);
      out->layers.candidates_per_item = lsh->MeanCandidatesPerItem();
    }

    EndToEndSamples& s = out->samples;
    s.ingest_s.Add((t1 - t0) * 1e-9);
    s.detect_s.Add((t2 - t0) * 1e-9);
    s.publish_s.Add((t3 - t2) * 1e-9);
    s.ingest_rate.push_back(sys.data.size() / out->episode_s.back());
    s.query_rate.push_back((client->stats().points - points_before) /
                           ((t4 - t3) * 1e-9));

    EpisodeLayers& l = out->layers;
    const double wall = stats.wall_seconds;
    double task_max = 0.0;
    for (double t : stats.task_seconds) task_max = std::max(task_max, t);
    l.task_sum.push_back(stats.total_task_seconds);
    l.task_max.push_back(task_max);
    l.busy_share.push_back(
        wall > 0.0 ? stats.total_task_seconds /
                         (wall * sys.pool->num_threads())
                   : 0.0);
    l.seeds.push_back(stats.num_seeds);
    l.tasks.push_back(stats.num_tasks);
    l.steals.push_back(
        static_cast<double>(sys.pool->steal_count() - steals_before));
    l.entries.push_back(static_cast<double>(oracle.entries_computed()));
    l.hits.push_back(static_cast<double>(oracle.cache_hits()));
    l.evictions.push_back(static_cast<double>(oracle.cache_evictions()));
    l.budget.push_back(static_cast<double>(oracle.cache_budget_bytes()));
    l.peak.push_back(static_cast<double>(oracle.peak_bytes()));
    l.lsh_bytes.push_back(static_cast<double>(lsh->MemoryBytes()));
    const double rows = static_cast<double>(info.rows_reused + info.rows_rebuilt);
    l.reuse.push_back(rows > 0.0 ? info.rows_reused / rows : 0.0);
    l.bytes_copied.push_back(static_cast<double>(info.bytes_copied));
    l.bytes_shared.push_back(static_cast<double>(info.bytes_shared));
    l.clusters_reused.push_back(info.clusters_reused);
    out->episodes = e + 1;
  }
  const alid::ServeStatsView view = server.stats();
  out->history_bytes = static_cast<double>(view.history_ring_bytes);
  out->query_prunes = view.sketch_prunes;
  out->query_exact = view.sketch_exact;
}

void CheckPass(const PassResult& pass, const ClientStats& client,
               Report* report) {
  report->attempted += pass.attempted_ops + client.requests;
  report->failed += client.failed + client.mismatches;
  if (client.failed > 0) report->Fail("query answers failed or malformed");
  if (client.mismatches > 0) {
    report->Fail("served answers disagree with their snapshot");
  }
  if (!pass.digests_agree) report->Fail("episodes detected different states");
  if (UnpublishedGenerations(pass.published, {&client}) > 0) {
    report->Fail("a query answer carried an unpublished generation");
  }
  if (pass.avg_f < kMinAvgF) report->Fail("AVG-F below the floor");
}

}  // namespace

void RunDetectStatic(const RunConfig& config, Report* report) {
  const SiftLikeParams p;
  report->split = {1, 0, std::max(1, config.nproc - 1)};
  char context[160];
  std::snprintf(context, sizeof(context),
                "\"n\":%lld,\"dim\":%d,\"words\":%d,\"queries_per_episode\":%d",
                static_cast<long long>(p.n), p.dim, p.words,
                kQueriesPerEpisode);
  report->context = context;

  const RequestMix mix{.batch_points = 16, .top_k = 3, .as_of = true};
  auto refill = [&p, &config](uint64_t k) {
    return SiftLikeQueries(p, config.seed, k, 256);
  };

  std::vector<double> setup_s;
  std::unique_ptr<StaticSystem> sys;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    sys.reset();
    const int64_t start = NowNs();
    sys = Setup(p, config.seed, report->split.pool);
    setup_s.push_back((NowNs() - start) * 1e-9);
  }

  QueryClient client(mix, refill);
  PassResult untraced;
  RunEpisodes(*sys, p, config.seconds, -1, nullptr, &client,
              &untraced);
  CheckPass(untraced, client.stats(), report);
  char line[128];
  std::snprintf(line, sizeof(line), "digest %016llx episodes=%lld",
                static_cast<unsigned long long>(untraced.digest),
                static_cast<long long>(untraced.episodes));
  report->lines.push_back(line);

  if (!config.trace) {
    EndToEndSamples s = untraced.samples;
    s.setup_s = setup_s;
    s.query_s = client.stats().latency_s;
    s.avg_f = untraced.avg_f;
    ReportEndToEnd(s, report);
    return;
  }

  // Traced replay of the first episodes on a fresh system.
  sys.reset();
  sys = Setup(p, config.seed, report->split.pool);
  Tracer tracer;
  ThreadTrace* trace = tracer.NewThread("writer");
  QueryClient traced_client(mix, refill);
  PassResult traced;
  RunEpisodes(*sys, p, config.seconds,
              std::min<int64_t>(untraced.episodes, kTracedEpisodes), trace,
              &traced_client, &traced);
  CheckPass(traced, traced_client.stats(), report);
  if (traced.digest != untraced.digest) {
    report->Fail("traced and untraced runs reached different states");
  }
  ReportLayerTimes(tracer, report);
  WriteTrace(tracer, config, "detect_static", report);

  const EpisodeLayers& l = traced.layers;
  auto& m = report->metrics;
  m["lsh.bytes"] = Median(l.lsh_bytes);
  m["lsh.candidates_per_item"] = l.candidates_per_item;
  m["core.palid.task_s_sum"] = Median(l.task_sum);
  m["core.palid.task_s_max"] = Median(l.task_max);
  m["core.palid.busy_share"] = Median(l.busy_share);
  m["core.palid.seeds"] = Median(l.seeds);
  m["core.palid.tasks"] = Median(l.tasks);
  m["common.pool.steals"] = Median(l.steals);
  m["affinity.entries_computed"] = Median(l.entries);
  m["affinity.cache_hits"] = Median(l.hits);
  m["affinity.cache_hit_ratio"] =
      Ratio(Median(l.hits), Median(l.hits) + Median(l.entries));
  m["affinity.cache_evictions"] = Median(l.evictions);
  m["affinity.cache_budget_bytes"] = Median(l.budget);
  m["affinity.peak_bytes"] = Median(l.peak);
  m["serve.publish.reuse_ratio"] = Median(l.reuse);
  m["serve.publish.bytes_copied"] = Median(l.bytes_copied);
  m["serve.publish.bytes_shared"] = Median(l.bytes_shared);
  m["serve.publish.clusters_reused"] = Median(l.clusters_reused);
  const ClientStats& c = traced_client.stats();
  const double episodes = static_cast<double>(traced.episodes);
  m["serve.query.calls"] = c.requests / episodes;
  m["serve.query.points"] = c.points / episodes;
  m["serve.query.assigned_ratio"] =
      Ratio(static_cast<double>(c.assigned), static_cast<double>(c.assign_points));
  m["serve.query.sketch_prune_ratio"] =
      Ratio(static_cast<double>(traced.query_prunes),
            static_cast<double>(traced.query_prunes + traced.query_exact));
  m["serve.query.failed"] = static_cast<double>(c.failed);
  m["serve.history.bytes"] = traced.history_bytes;
  m["obs.trace_overhead_ratio"] =
      Ratio(Median(traced.episode_s), Median(untraced.episode_s));
}

}  // namespace e2ebench
