// The stream workloads: one writer thread replays a generated stream as a
// closed loop (insert, then publish, for every batch) while query clients run
// their own closed loops against the published generations.
//
//   ingest_heavy  dense Zipf-sized clusters, light query load: the serial
//                 absorb/re-detection path of OnlineAlid dominates.
//   serve_churn   small clusters born and killed in bursts, saturating
//                 clients: publish and query dominate.
//   shard_fanout  the ingest_heavy stream through ShardedStream and
//                 ShardRouter with one shard per core.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "affinity/affinity_function.h"
#include "affinity/lazy_affinity_oracle.h"
#include "common/dataset.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "eval/metrics.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "serving.h"
#include "shard/shard_router.h"
#include "shard/sharded_stream.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr int64_t kQueryBlock = 256;
// AVG-F is averaged over the generations published at every kAvgFEvery-th
// batch of the first round: one instant's score depends on where the round
// happens to end in the births and maintenance cycle.
constexpr int64_t kAvgFEvery = 8;

/// Everything that distinguishes one stream workload.
struct StreamSpec {
  std::string name;
  int dim = 16;
  double spread = 1.0;
  int64_t batch = 32;
  int64_t window = 640;
  std::function<Rows(uint64_t seed, int64_t batch)> arrivals;
  std::function<Rows(uint64_t seed, int64_t batch, uint64_t request,
                     int64_t count)>
      queries;
  RequestMix mix;
  double think_ms = 0.0;  ///< Client pause between requests (0 = saturate).
  ThreadSplit split;
  int shards = 0;  ///< 0 = one OnlineAlid + ClusterServer.
  int64_t shard_window = 0;  ///< Per-shard window when sharded.
  int64_t round_batches = 48;  ///< Measured batches per round.
  /// Set-up batches: enough to fill every window and run the first
  /// maintenance passes, so a round measures the steady state.
  int64_t fill_batches = 20;
  int history_capacity = 4;
  double min_avg_f = 0.8;  ///< Correctness floor of avg_f.

  alid::OnlineAlidOptions Options(alid::ThreadPool* pool) const {
    alid::OnlineAlidOptions o;
    o.affinity = {.k = StreamKernel(dim, spread), .p = 2.0};
    o.lsh.segment_length = StreamLshSegment(dim, spread);
    // Six projections per table (not the default twelve) let members of
    // one planted cluster collide reliably at this segment length.
    o.lsh.num_projections = 6;
    o.window = window;
    o.pool = pool;
    return o;
  }
};

struct OracleReading {
  int64_t entries = 0, hits = 0, evictions = 0, budget = 0, peak = 0;
  void Add(const alid::LazyAffinityOracle& o) {
    entries += o.entries_computed();
    hits += o.cache_hits();
    evictions += o.cache_evictions();
    budget += o.cache_budget_bytes();
    peak += o.peak_bytes();
  }
};

void AddBuild(const alid::SnapshotBuildInfo& b, alid::SnapshotBuildInfo* sum) {
  sum->clusters_total += b.clusters_total;
  sum->clusters_reused += b.clusters_reused;
  sum->rows_reused += b.rows_reused;
  sum->rows_rebuilt += b.rows_rebuilt;
  sum->bytes_shared += b.bytes_shared;
  sum->bytes_copied += b.bytes_copied;
}

std::vector<uint64_t> Members(const alid::ClusterSnapshot& snap, int c,
                              int shards, int shard) {
  std::vector<uint64_t> keys;
  for (alid::Index slot : snap.ClusterInfo(c).members) {
    keys.push_back(static_cast<uint64_t>(slot) * shards + shard);
  }
  return keys;
}

// One OnlineAlid published through a ClusterServer. Item keys are slots.
class SingleStream {
 public:
  SingleStream(const StreamSpec& spec, alid::ThreadPool* pool)
      : stream_(spec.dim, spec.Options(pool)),
        server_(spec.dim,
                alid::ClusterServerOptions{
                    .history_capacity = spec.history_capacity}) {}

  void Insert(std::span<const double> points, std::vector<uint64_t>* keys,
              ThreadTrace* trace) {
    std::vector<alid::Index> slots;
    {
      ScopedSpan span(trace, "core.stream.insert");
      slots = stream_.InsertBatch(points);
    }
    keys->assign(slots.begin(), slots.end());
  }

  uint64_t Publish(ThreadTrace* trace) {
    {
      ScopedSpan span(trace, "serve.publish.build");
      last_ = alid::ClusterSnapshot::FromStream(
          stream_, stream_.options().pool, last_);
    }
    {
      ScopedSpan span(trace, "serve.publish.swap");
      server_.Publish(last_);
    }
    return last_->generation();
  }

  const alid::ClusterServer& query_target() const { return server_; }
  alid::StreamStats Stats() const { return stream_.stats(); }
  OracleReading Oracle() const {
    OracleReading r;
    r.Add(stream_.oracle());
    return r;
  }
  bool Alive(uint64_t key) const {
    return stream_.IsAlive(static_cast<alid::Index>(key));
  }
  std::vector<std::vector<uint64_t>> PublishedClusters() const {
    std::vector<std::vector<uint64_t>> out;
    for (int c = 0; c < last_->num_clusters(); ++c) {
      out.push_back(Members(*last_, c, 1, 0));
    }
    return out;
  }
  void AddDigest(Digest* d) const { d->AddClusters(stream_.clusters()); }
  alid::SnapshotBuildInfo LastBuild() const { return last_->build_info(); }
  std::pair<int64_t, int64_t> QuerySketch() const {
    const alid::ServeStatsView v = server_.stats();
    return {v.sketch_prunes, v.sketch_exact};
  }
  int64_t HistoryBytes() const { return server_.stats().history_ring_bytes; }
  const alid::OnlineAlidOptions& options() const { return stream_.options(); }
  int shards() const { return 1; }
  std::map<std::string, double> ShardMetrics() const { return {}; }

 private:
  alid::OnlineAlid stream_;
  alid::ClusterServer server_;
  std::shared_ptr<const alid::ClusterSnapshot> last_;
};

alid::ShardedStreamOptions ShardOptions(const StreamSpec& spec,
                                       alid::ThreadPool* pool) {
  alid::ShardedStreamOptions o;
  o.base = spec.Options(pool);
  o.base.window = spec.shard_window;
  o.num_shards = spec.shards;
  return o;
}

// S hash-partitioned OnlineAlid shards published through a ShardRouter.
// Item key = slot * S + shard.
class ShardedBackend {
 public:
  ShardedBackend(const StreamSpec& spec, alid::ThreadPool* pool)
      : stream_(spec.dim, ShardOptions(spec, pool)),
        router_(spec.dim, spec.shards) {}

  void Insert(std::span<const double> points, std::vector<uint64_t>* keys,
              ThreadTrace* trace) {
    std::vector<alid::ShardSlot> slots;
    {
      ScopedSpan span(trace, "shard.insert");
      slots = stream_.InsertBatch(points);
    }
    keys->clear();
    for (const alid::ShardSlot& s : slots) {
      keys->push_back(static_cast<uint64_t>(s.slot) * shards() + s.shard);
    }
  }

  uint64_t Publish(ThreadTrace* trace) {
    ScopedSpan span(trace, "shard.publish");
    return router_.PublishFromStream(stream_);
  }

  const alid::ShardRouter& query_target() const { return router_; }
  alid::StreamStats Stats() const { return stream_.stats(); }
  OracleReading Oracle() const {
    OracleReading r;
    for (int s = 0; s < shards(); ++s) r.Add(stream_.shard(s).oracle());
    return r;
  }
  bool Alive(uint64_t key) const {
    return stream_.shard(static_cast<int>(key % shards()))
        .IsAlive(static_cast<alid::Index>(key / shards()));
  }
  std::vector<std::vector<uint64_t>> PublishedClusters() const {
    std::vector<std::vector<uint64_t>> out;
    const auto snap = router_.snapshot();
    for (int s = 0; s < shards(); ++s) {
      for (int c = 0; c < snap->shards[s]->num_clusters(); ++c) {
        out.push_back(Members(*snap->shards[s], c, shards(), s));
      }
    }
    return out;
  }
  void AddDigest(Digest* d) const {
    for (int s = 0; s < shards(); ++s) d->AddClusters(stream_.shard(s).clusters());
  }
  alid::SnapshotBuildInfo LastBuild() const {
    alid::SnapshotBuildInfo sum;
    for (const auto& snap : router_.snapshot()->shards) {
      AddBuild(snap->build_info(), &sum);
    }
    return sum;
  }
  std::pair<int64_t, int64_t> QuerySketch() const {
    int64_t prunes = 0, exact = 0;
    for (const alid::obs::MetricSample& m : router_.metrics().Snapshot()) {
      if (m.name == "router_sketch_prunes") prunes = m.value;
      if (m.name == "router_sketch_exact") exact = m.value;
    }
    return {prunes, exact};
  }
  int64_t HistoryBytes() const { return 0; }  // the router keeps no history
  const alid::OnlineAlidOptions& options() const {
    return stream_.options().base;
  }
  int shards() const { return stream_.num_shards(); }
  std::map<std::string, double> ShardMetrics() const {
    double max_alive = 0.0, sum_alive = 0.0, clusters = 0.0;
    for (int s = 0; s < shards(); ++s) {
      const double alive = static_cast<double>(stream_.shard(s).alive());
      max_alive = std::max(max_alive, alive);
      sum_alive += alive;
      clusters += static_cast<double>(stream_.shard(s).clusters().size());
    }
    return {
        {"shard.occupancy_skew",
         sum_alive > 0.0 ? max_alive / (sum_alive / shards()) : 0.0},
        {"shard.clusters_total", clusters},
        {"shard.boundary_pairs",
         static_cast<double>(
             router_.BoundaryClusters(options().affinity).size())},
    };
  }

 private:
  alid::ShardedStream stream_;
  alid::ShardRouter router_;
};

// Counter changes summed over the writer's calls (traced pass only).
struct LayerDeltas {
  OracleReading oracle;  // entries/hits/evictions summed; budget/peak last
  alid::StreamStats stream;
  alid::SnapshotBuildInfo publish;
  int64_t steals = 0;
};

void Accumulate(const alid::StreamStats& a, const alid::StreamStats& b,
                alid::StreamStats* sum) {
  sum->arrivals += b.arrivals - a.arrivals;
  sum->absorbed += b.absorbed - a.absorbed;
  sum->pooled += b.pooled - a.pooled;
  sum->evicted += b.evicted - a.evicted;
  sum->redetections += b.redetections - a.redetections;
  sum->refreshes += b.refreshes - a.refreshes;
  sum->refresh_conflicts += b.refresh_conflicts - a.refresh_conflicts;
  sum->refresh_speculations += b.refresh_speculations - a.refresh_speculations;
  sum->clusters_born += b.clusters_born - a.clusters_born;
  sum->clusters_dissolved += b.clusters_dissolved - a.clusters_dissolved;
  sum->sketch_prunes += b.sketch_prunes - a.sketch_prunes;
  sum->sketch_exact += b.sketch_exact - a.sketch_exact;
}

struct StreamPass {
  int64_t rounds = 0;
  int64_t batches = 0;  ///< Measured batches over every round.
  uint64_t digest = 0;  ///< Final state of the first round.
  bool digests_agree = true;  ///< Every round ended in that state.
  double avg_f = 0.0;
  int64_t truth_clusters = 0;
  EndToEndSamples samples;
  std::vector<double> round_writer_s;
  double writer_seconds = 0.0;  ///< Summed over rounds.
  std::vector<ClientStats> clients;
  std::vector<uint64_t> published;
  int64_t attempted_ops = 0;
  LayerDeltas deltas;
  std::pair<int64_t, int64_t> query_sketch;
  int64_t history_bytes = 0;
  std::map<std::string, double> shard_metrics;
};

template <class Backend>
struct StreamSystem {
  std::unique_ptr<alid::ThreadPool> pool;
  std::unique_ptr<Backend> backend;
  std::vector<int64_t> occupant;  // item key -> arrival index
  int64_t next_batch = 0;
  std::vector<uint64_t> published;

  void Record(const std::vector<uint64_t>& keys, int64_t first_arrival) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] >= occupant.size()) occupant.resize(keys[i] * 2 + 1, -1);
      occupant[keys[i]] = first_arrival + static_cast<int64_t>(i);
    }
  }
};

// Fills the window and publishes the first generation.
template <class Backend>
std::unique_ptr<StreamSystem<Backend>> SetupStream(const StreamSpec& spec,
                                                   uint64_t seed) {
  auto sys = std::make_unique<StreamSystem<Backend>>();
  sys->pool = std::make_unique<alid::ThreadPool>(spec.split.pool);
  sys->backend = std::make_unique<Backend>(spec, sys->pool.get());
  const int64_t fill = spec.fill_batches;
  std::vector<uint64_t> keys;
  for (int64_t t = 0; t < fill; ++t) {
    const Rows rows = spec.arrivals(seed, t);
    sys->backend->Insert(rows.points, &keys, nullptr);
    sys->Record(keys, t * spec.batch);
  }
  sys->published.push_back(sys->backend->Publish(nullptr));
  sys->next_batch = fill;
  return sys;
}

// The items alive at a quality checkpoint, in arrival order, with the
// planted clusters among them that are dominant by the paper's rule: a
// label group whose uniform-weight density reaches the keep threshold. (A
// group of a few points cannot reach it: with mean affinity a, m members
// have density a * (m - 1) / m.)
struct WindowView {
  alid::Dataset data;
  std::vector<int64_t> arrivals;  // ascending; row i of data is arrivals[i]
  std::vector<alid::IndexList> truth;

  alid::Index RowOf(int64_t arrival) const {
    return static_cast<alid::Index>(
        std::lower_bound(arrivals.begin(), arrivals.end(), arrival) -
        arrivals.begin());
  }
};

template <class Backend>
WindowView AliveWindow(const StreamSpec& spec, uint64_t seed,
                       const StreamSystem<Backend>& sys) {
  WindowView view;
  for (uint64_t key = 0; key < sys.occupant.size(); ++key) {
    const int64_t a = sys.occupant[key];
    if (a >= 0 && sys.backend->Alive(key)) view.arrivals.push_back(a);
  }
  std::sort(view.arrivals.begin(), view.arrivals.end());
  view.data = alid::Dataset(spec.dim);
  std::map<int64_t, alid::IndexList> by_label;
  Rows rows;
  int64_t rows_batch = -1;
  for (int64_t a : view.arrivals) {
    const int64_t batch = a / spec.batch;
    const int64_t r = a % spec.batch;
    if (batch != rows_batch) {
      rows = spec.arrivals(seed, batch);
      rows_batch = batch;
    }
    if (rows.labels[r] >= 0) by_label[rows.labels[r]].push_back(view.data.size());
    view.data.Append(std::span<const double>(&rows.points[r * spec.dim],
                                             static_cast<size_t>(spec.dim)));
  }
  const alid::AffinityFunction affinity(sys.backend->options().affinity);
  for (auto& [label, members] : by_label) {
    if (alid::UniformDensity(view.data, affinity, members) >= kKeepDensity) {
      view.truth.push_back(members);
    }
  }
  return view;
}

// AVG-F of the last published generation against the dominant planted
// clusters of the items alive at that point.
template <class Backend>
double PublishedAvgF(const WindowView& view, const StreamSystem<Backend>& sys) {
  std::vector<alid::IndexList> detected;
  for (const auto& keys : sys.backend->PublishedClusters()) {
    alid::IndexList members;
    for (uint64_t k : keys) members.push_back(view.RowOf(sys.occupant[k]));
    std::sort(members.begin(), members.end());
    detected.push_back(members);
  }
  return alid::AverageF1(view.truth, detected);
}

template <class Backend>
uint64_t StateDigest(const StreamSystem<Backend>& sys) {
  Digest d;
  d.Add(sys.published.back());
  sys.backend->AddDigest(&d);
  return d.value();
}

// One measured pass: rounds of identical work until `seconds` of measured
// batches have passed (replay_rounds < 0) or exactly replay_rounds of them.
// A round sets a fresh system up (fill the window, publish the first
// generation), then the writer replays spec.round_batches batches while the
// clients query. Every round replays the same batches, so a faster or slower
// host changes the number of rounds, never the mix of work measured.
template <class Backend>
void RunPass(const StreamSpec& spec, const RunConfig& config,
             int64_t replay_rounds, Tracer* tracer, StreamPass* out) {
  ThreadTrace* writer_trace = tracer ? tracer->NewThread("writer") : nullptr;
  std::atomic<int64_t> current_batch{0};
  std::atomic<uint64_t> previous_generation{0};
  const size_t client_capacity =
      LatencySample::kDefaultCapacity / std::max(1, spec.split.clients);
  std::vector<QueryClient> clients;
  for (int c = 0; c < spec.split.clients; ++c) {
    clients.emplace_back(
        spec.mix,
        [&, c](uint64_t k) {
          return spec.queries(config.seed, current_batch.load(),
                              (static_cast<uint64_t>(c) << 40) | k,
                              kQueryBlock);
        },
        client_capacity);
  }
  const char* query_span = spec.shards > 0 ? "shard.query" : "serve.query";
  std::vector<double> avg_f;  // one per quality checkpoint of round 0
  LayerDeltas& d = out->deltas;
  std::vector<uint64_t> keys;

  for (int64_t round = 0;; ++round) {
    if (replay_rounds >= 0 ? round >= replay_rounds
                           : (round > 0 && out->writer_seconds >=
                                               config.seconds)) {
      break;
    }
    const int64_t setup_start = NowNs();
    auto sys = SetupStream<Backend>(spec, config.seed);
    out->samples.setup_s.push_back((NowNs() - setup_start) * 1e-9);
    out->attempted_ops += sys->next_batch + 1;  // fill inserts + publish
    current_batch.store(sys->next_batch - 1);
    previous_generation.store(0);
    const auto& target = sys->backend->query_target();

    std::atomic<bool> stop{false};
    std::vector<double> client_seconds(clients.size(), 0.0);
    int64_t points_before = 0;
    for (const QueryClient& client : clients) {
      points_before += client.stats().points;
    }
    int64_t loop_ns = 0;
    int64_t eval_ns = 0;
    {
      std::vector<std::jthread> threads;
      // Declared after the threads, so it runs first on any exit from this
      // scope: the clients stop before they are joined.
      struct StopClients {
        std::atomic<bool>& stop;
        ~StopClients() { stop.store(true); }
      } stop_clients{stop};
      for (size_t c = 0; c < clients.size(); ++c) {
        ThreadTrace* trace =
            tracer ? tracer->NewThread("client" + std::to_string(c)) : nullptr;
        threads.emplace_back([&, c, trace] {
          const int64_t start = NowNs();
          while (!stop.load(std::memory_order_relaxed)) {
            clients[c].Issue(target, previous_generation.load(), trace,
                             query_span);
            if (spec.think_ms > 0.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double, std::milli>(spec.think_ms));
            }
          }
          client_seconds[c] = (NowNs() - start) * 1e-9;
        });
      }

      const int64_t loop_start = NowNs();
      const int64_t first = sys->next_batch;
      for (int64_t t = first; t < first + spec.round_batches; ++t) {
        ScopedSpan batch_span(writer_trace, "batch", t);
        Rows rows;
        {
          ScopedSpan span(writer_trace, "data.gen");
          rows = spec.arrivals(config.seed, t);
        }
        alid::StreamStats before;
        OracleReading oracle_before;
        int64_t steals_before = 0;
        if (tracer != nullptr) {
          before = sys->backend->Stats();
          oracle_before = sys->backend->Oracle();
          steals_before = sys->pool->steal_count();
        }
        const int64_t t0 = NowNs();
        sys->backend->Insert(rows.points, &keys, writer_trace);
        const int64_t t1 = NowNs();
        if (tracer != nullptr) {
          Accumulate(before, sys->backend->Stats(), &d.stream);
          const OracleReading after = sys->backend->Oracle();
          d.oracle.entries += after.entries - oracle_before.entries;
          d.oracle.hits += after.hits - oracle_before.hits;
          d.oracle.evictions += after.evictions - oracle_before.evictions;
          d.oracle.budget = after.budget;
          d.oracle.peak = after.peak;
        }
        sys->Record(keys, t * spec.batch);
        const uint64_t generation = sys->backend->Publish(writer_trace);
        const int64_t t2 = NowNs();
        previous_generation.store(sys->published.back());
        sys->published.push_back(generation);
        current_batch.store(t);
        if (tracer != nullptr) {
          AddBuild(sys->backend->LastBuild(), &d.publish);
          d.steals += sys->pool->steal_count() - steals_before;
        }
        out->samples.ingest_s.Add((t1 - t0) * 1e-9);
        out->samples.publish_s.Add((t2 - t1) * 1e-9);
        // A batch is detected once it is absorbed and visible to queries.
        out->samples.detect_s.Add((t2 - t0) * 1e-9);
        out->attempted_ops += 2;
        ++out->batches;
        if (round == 0 && (t - first + 1) % kAvgFEvery == 0) {
          // Quality checkpoint, kept out of the writer's measured time.
          const int64_t eval_start = NowNs();
          ScopedSpan span(writer_trace, "eval.avg_f");
          const WindowView view = AliveWindow(spec, config.seed, *sys);
          avg_f.push_back(PublishedAvgF(view, *sys));
          out->truth_clusters = static_cast<int64_t>(view.truth.size());
          eval_ns += NowNs() - eval_start;
        }
      }
      loop_ns = NowNs() - loop_start - eval_ns;
    }  // stops and joins the clients

    out->round_writer_s.push_back(loop_ns * 1e-9);
    out->writer_seconds += loop_ns * 1e-9;
    out->samples.ingest_rate.push_back(
        static_cast<double>(spec.round_batches * spec.batch) /
        (loop_ns * 1e-9));
    // The clients run side by side with the writer: the round's served
    // rate is their points over the longest client wall time.
    int64_t points = 0;
    for (const QueryClient& client : clients) points += client.stats().points;
    out->samples.query_rate.push_back(
        static_cast<double>(points - points_before) /
        *std::max_element(client_seconds.begin(), client_seconds.end()));
    const uint64_t digest = StateDigest(*sys);
    ++out->rounds;
    if (round > 0) {
      if (digest != out->digest || sys->published != out->published) {
        out->digests_agree = false;
      }
      continue;
    }
    out->digest = digest;
    out->published = sys->published;
    out->query_sketch = sys->backend->QuerySketch();
    out->history_bytes = sys->backend->HistoryBytes();
    if (tracer != nullptr) out->shard_metrics = sys->backend->ShardMetrics();
  }

  for (const QueryClient& client : clients) {
    const ClientStats& stats = client.stats();
    out->clients.push_back(stats);
    out->samples.query_s.Merge(stats.latency_s);
  }
  double sum = 0.0;
  for (double f : avg_f) sum += f;
  out->avg_f = avg_f.empty() ? 0.0 : sum / static_cast<double>(avg_f.size());
  out->samples.avg_f = out->avg_f;
}

void CheckPass(const StreamSpec& spec, const StreamPass& pass,
               Report* report) {
  std::vector<const ClientStats*> clients;
  int64_t failed = 0, mismatches = 0, requests = 0;
  for (const ClientStats& c : pass.clients) {
    clients.push_back(&c);
    failed += c.failed;
    mismatches += c.mismatches;
    requests += c.requests;
  }
  report->attempted += pass.attempted_ops + requests;
  report->failed += failed + mismatches;
  if (failed > 0) report->Fail("query answers failed or malformed");
  if (mismatches > 0) report->Fail("served answers disagree with their snapshot");
  if (!pass.digests_agree) report->Fail("rounds reached different states");
  if (UnpublishedGenerations(pass.published, clients) > 0) {
    report->Fail("a query answer carried an unpublished generation");
  }
  if (pass.avg_f < spec.min_avg_f) report->Fail("AVG-F below the floor");
}

void ReportStreamLayers(const StreamPass& traced,
                        const StreamPass& untraced, Report* report) {
  auto& m = report->metrics;
  const double batches = std::max<double>(1.0, traced.batches);
  const LayerDeltas& d = traced.deltas;
  m["common.pool.steals"] = d.steals / batches;

  const double entries = static_cast<double>(d.oracle.entries);
  const double hits = static_cast<double>(d.oracle.hits);
  m["affinity.entries_computed"] = entries / batches;
  m["affinity.cache_hits"] = hits / batches;
  m["affinity.cache_hit_ratio"] = Ratio(hits, hits + entries);
  m["affinity.cache_evictions"] = d.oracle.evictions / batches;
  m["affinity.cache_budget_bytes"] = static_cast<double>(d.oracle.budget);
  m["affinity.peak_bytes"] = static_cast<double>(d.oracle.peak);

  const alid::StreamStats& s = d.stream;
  m["core.stream.absorbed"] = s.absorbed / batches;
  m["core.stream.pooled"] = s.pooled / batches;
  m["core.stream.evicted"] = s.evicted / batches;
  m["core.stream.redetections"] = s.redetections / batches;
  m["core.stream.refreshes"] = s.refreshes / batches;
  m["core.stream.refresh_conflicts"] = s.refresh_conflicts / batches;
  m["core.stream.clusters_born"] = s.clusters_born / batches;
  m["core.stream.clusters_dissolved"] = s.clusters_dissolved / batches;
  m["core.stream.sketch_prunes"] = s.sketch_prunes / batches;
  m["core.stream.sketch_exact"] = s.sketch_exact / batches;
  m["core.stream.absorb_ratio"] =
      Ratio(static_cast<double>(s.absorbed), static_cast<double>(s.arrivals));
  m["core.stream.entries_per_absorb"] =
      Ratio(entries, static_cast<double>(s.absorbed));
  m["core.stream.sketch_prune_ratio"] =
      Ratio(static_cast<double>(s.sketch_prunes),
            static_cast<double>(s.sketch_prunes + s.sketch_exact));
  m["core.stream.refresh_conflict_ratio"] =
      Ratio(static_cast<double>(s.refresh_conflicts),
            static_cast<double>(s.refresh_speculations + s.refresh_conflicts));

  const alid::SnapshotBuildInfo& p = d.publish;
  m["serve.publish.reuse_ratio"] =
      Ratio(static_cast<double>(p.rows_reused),
            static_cast<double>(p.rows_reused + p.rows_rebuilt));
  m["serve.publish.bytes_copied"] = p.bytes_copied / batches;
  m["serve.publish.bytes_shared"] = p.bytes_shared / batches;
  m["serve.publish.clusters_reused"] = p.clusters_reused / batches;

  int64_t calls = 0, points = 0, assign_points = 0, assigned = 0, failed = 0;
  for (const ClientStats& c : traced.clients) {
    calls += c.requests;
    points += c.points;
    assign_points += c.assign_points;
    assigned += c.assigned;
    failed += c.failed;
  }
  m["serve.query.calls"] = calls / batches;
  m["serve.query.points"] = points / batches;
  m["serve.query.assigned_ratio"] =
      Ratio(static_cast<double>(assigned), static_cast<double>(assign_points));
  m["serve.query.sketch_prune_ratio"] =
      Ratio(static_cast<double>(traced.query_sketch.first),
            static_cast<double>(traced.query_sketch.first +
                                traced.query_sketch.second));
  m["serve.query.failed"] = static_cast<double>(failed);
  m["serve.history.bytes"] = static_cast<double>(traced.history_bytes);
  for (const auto& [name, value] : traced.shard_metrics) m[name] = value;
  m["obs.trace_overhead_ratio"] =
      Ratio(traced.writer_seconds, Median(untraced.round_writer_s));
}

template <class Backend>
void RunStreamWorkload(const StreamSpec& spec, const RunConfig& config,
                       Report* report) {
  report->split = spec.split;
  char context[200];
  std::snprintf(context, sizeof(context),
                "\"dim\":%d,\"batch\":%lld,\"window\":%lld,\"shards\":%d,"
                "\"think_ms\":%.2f,\"history_capacity\":%d,\"round_batches\":%lld",
                spec.dim, static_cast<long long>(spec.batch),
                static_cast<long long>(spec.window), spec.shards,
                spec.think_ms, spec.history_capacity,
                static_cast<long long>(spec.round_batches));
  report->context = context;

  StreamPass untraced;
  RunPass<Backend>(spec, config, -1, nullptr, &untraced);
  CheckPass(spec, untraced, report);
  char line[200];
  std::snprintf(line, sizeof(line),
                "digest %016llx rounds=%lld batches=%lld dominant_planted=%lld",
                static_cast<unsigned long long>(untraced.digest),
                static_cast<long long>(untraced.rounds),
                static_cast<long long>(untraced.batches),
                static_cast<long long>(untraced.truth_clusters));
  report->lines.push_back(line);
  if (!config.trace) {
    ReportEndToEnd(untraced.samples, report);
    return;
  }

  // One traced round: the same work as every untraced round.
  Tracer tracer;
  StreamPass traced;
  RunPass<Backend>(spec, config, 1, &tracer, &traced);
  CheckPass(spec, traced, report);
  if (traced.digest != untraced.digest) {
    report->Fail("traced and untraced runs reached different states");
  }
  ReportLayerTimes(tracer, report);
  ReportStreamLayers(traced, untraced, report);
  WriteTrace(tracer, config, spec.name, report);
}

ZipfStreamParams HeavyParams() { return ZipfStreamParams{}; }

StreamSpec ZipfSpec(const std::string& name, const RunConfig& config) {
  const ZipfStreamParams p = HeavyParams();
  StreamSpec spec;
  spec.name = name;
  spec.dim = p.dim;
  spec.spread = p.spread;
  spec.batch = p.batch;
  spec.window = 20 * p.batch;
  spec.arrivals = [p](uint64_t seed, int64_t t) { return ZipfBatch(p, seed, t); };
  spec.queries = [p](uint64_t seed, int64_t t, uint64_t r, int64_t n) {
    return ZipfQueries(p, seed, t, r, n);
  };
  spec.mix = RequestMix{.batch_points = 8, .top_k = 3, .as_of = false};
  spec.think_ms = 0.2;
  spec.split = {1, 1, std::max(1, config.nproc - 2)};
  return spec;
}

}  // namespace

void RunIngestHeavy(const RunConfig& config, Report* report) {
  RunStreamWorkload<SingleStream>(ZipfSpec("ingest_heavy", config), config,
                                  report);
}

void RunShardFanout(const RunConfig& config, Report* report) {
  StreamSpec spec = ZipfSpec("shard_fanout", config);
  spec.shards = config.nproc;
  // The same number of live items as ingest_heavy, split across the shards.
  spec.shard_window = spec.window / spec.shards;
  // Each shard sees a 1/S share of the arrivals, so its first maintenance
  // pass (every 256 of its own arrivals) needs S times more batches.
  spec.fill_batches = 2 * spec.fill_batches;
  spec.round_batches = 96;  // its batches are short: fewer set-ups per run
  spec.min_avg_f = 0.2;
  RunStreamWorkload<ShardedBackend>(spec, config, report);
}

void RunServeChurn(const RunConfig& config, Report* report) {
  const ChurnStreamParams p{};
  StreamSpec spec;
  spec.name = "serve_churn";
  spec.dim = p.dim;
  spec.spread = p.spread;
  spec.batch = p.batch;
  spec.window = 8 * p.batch;
  spec.fill_batches = 8;
  spec.arrivals = [p](uint64_t seed, int64_t t) { return ChurnBatch(p, seed, t); };
  spec.queries = [p](uint64_t seed, int64_t t, uint64_t r, int64_t n) {
    return ChurnQueries(p, seed, t, r, n);
  };
  spec.mix = RequestMix{.batch_points = 16, .top_k = 3, .as_of = true};
  spec.split = {1, std::max(1, config.nproc - 2), 1};
  spec.history_capacity = 32;
  spec.round_batches = 64;
  RunStreamWorkload<SingleStream>(spec, config, report);
}

}  // namespace e2ebench
