// Figure 7 — scalability analysis (Section 5.2).
//
// Runs AP / IID / SEA / ALID over growing data sizes on the three synthetic
// a* regimes of Table 1 (a* = ωn/20, a* = n^η/20, a* = P/20) and on the
// NDI-like workload, reporting runtime (a-d), algorithmic memory (e-h) and
// AVG-F (i-l), plus the empirical log-log orders of growth.
//
// Paper shapes to reproduce: under a double-log axis ALID's runtime slope is
// ~2 for a*=ωn, ~1.7 for a*=n^0.9 and ~1 for a*=P, always below the
// baselines; ALID's memory curve is orders of magnitude below the O(n^2)
// methods; AVG-F stays comparable across methods. The O(n^2) baselines are
// capped at the sizes a 1-core machine can materialize.
//
// A second section sweeps 1/2/4/8 executors over the *parallelized*
// baselines (k-means, mean shift, SC-FL, AP, SEA) and PALID, all on one
// shared work-stealing pool per width — the same-substrate comparison the
// scalability literature demands. Every baseline's output is bit-identical
// across the sweep (tests/baseline_determinism_test.cc), so only wall time
// moves. The sweep's JSON record carries per-baseline speedup columns for
// the bench trajectory; the PALID rows are marked `gate_speedup` so
// tools/check_speedup.py holds them to the ROADMAP's >=2x-at-8 claim.
#include "bench_util.h"
#include "registry.h"

#include <memory>
#include <string_view>

#include "baselines/kmeans.h"
#include "baselines/mean_shift.h"
#include "baselines/spectral.h"
#include "common/thread_pool.h"
#include "core/palid.h"
#include "data/ndi_like.h"
#include "data/synthetic.h"

namespace alid::bench {
namespace {

constexpr double kBaselineCap = 3000.0;  // dense O(n^2) methods stop here
constexpr double kApCap = 1500.0;        // AP message passing stops here

LabeledData MakeRegime(SyntheticRegime regime, Index n, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 100;  // the paper's synthetic dimensionality
  cfg.num_clusters = 20;
  cfg.regime = regime;
  cfg.omega = 1.0;
  cfg.eta = 0.9;
  cfg.P = 1000;
  cfg.seed = seed;
  return cfg.n > 0 ? MakeSynthetic(cfg) : LabeledData{};
}

void SweepSizes(BenchContext& ctx, const char* name, const char* regime,
                const std::function<LabeledData(Index)>& make,
                const std::vector<double>& sizes, std::string& json) {
  PrintHeader(name);
  std::vector<double> xs, alid_time, alid_mem;
  for (double base : sizes) {
    const Index n = ctx.Scaled(base);
    LabeledData data = make(n);
    char config[64];
    std::snprintf(config, sizeof(config), "n=%d", data.size());
    if (base <= kApCap) PrintStatsRow(config, RunAp(data));
    if (base <= kBaselineCap) {
      PrintStatsRow(config, RunIid(data));
      PrintStatsRow(config, RunSea(data, /*r_scale=*/1.0));
    }
    RunStats alid = RunAlid(data);
    PrintStatsRow(config, alid);
    AppendF(json,
            "%s{\"regime\":\"%s\",\"method\":\"ALID\",\"n\":%d,"
            "\"wall_seconds\":%.6f,\"peak_bytes\":%lld,\"avg_f\":%.4f}",
            json.back() == '[' ? "" : ",", regime, data.size(), alid.seconds,
            static_cast<long long>(alid.peak_bytes), alid.avg_f);
    xs.push_back(data.size());
    alid_time.push_back(alid.seconds);
    alid_mem.push_back(static_cast<double>(alid.peak_bytes));
  }
  std::printf("  ALID empirical orders of growth: runtime slope %.2f, "
              "memory slope %.2f (log-log fit)\n",
              LogLogSlope(xs, alid_time), LogLogSlope(xs, alid_mem));
}

struct ParallelRow {
  const char* method;
  int executors;
  double wall_seconds;
  double speedup;  // vs the method's own 1-executor (serial) row
};

// Sweeps 1/2/4/8 executors over every parallelized baseline and PALID, one
// shared pool per width. "1 executor" runs the serial path (no pool) — the
// honest single-substrate baseline, since a pooled ParallelFor lets the
// calling thread participate alongside the workers.
void ParallelBaselineSweep(BenchContext& ctx) {
  PrintHeader("parallel baselines: executor sweep on one shared pool");
  SyntheticConfig cfg;
  cfg.n = ctx.Scaled(3000);
  cfg.dim = 32;
  cfg.num_clusters = 20;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 1.0;
  cfg.seed = 105;
  LabeledData data = MakeSynthetic(cfg);
  const int k = cfg.num_clusters;
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  // Shared inputs built once, outside the timed sections: the sweep times
  // each method's own hot loops, not input materialization.
  LshIndex lsh(data.data, MakeLshParams(data));
  SparseMatrix sparse =
      Sparsifier::FromLshCollisions(data.data, affinity, lsh);

  std::vector<ParallelRow> rows;
  std::printf("%-10s %-6s %-10s %-8s\n", "method", "execs", "wall(s)",
              "speedup");
  for (int execs : {1, 2, 4, 8}) {
    std::unique_ptr<ThreadPool> owned;
    ThreadPool* pool = nullptr;
    if (execs > 1) {
      owned = std::make_unique<ThreadPool>(execs);
      pool = owned.get();
    }
    auto time_method = [&](const char* name,
                           const std::function<void()>& run) {
      WallTimer timer;
      run();
      rows.push_back({name, execs, timer.Seconds(), 0.0});
    };
    time_method("KMEANS", [&] {
      KMeansOptions o;
      o.pool = pool;
      RunKMeans(data.data, k, o);
    });
    time_method("MEANSHIFT", [&] {
      MeanShiftOptions o;
      o.pool = pool;
      o.max_ascents = 64;
      RunMeanShift(data.data, o);
    });
    time_method("SC-FL", [&] {
      SpectralOptions o;
      o.num_clusters = k;
      o.pool = pool;
      SpectralClusterFull(data.data, affinity, o);
    });
    time_method("AP", [&] {
      ApOptions o;
      o.max_iterations = 100;
      o.preference = 0.01;  // below the surviving similarities (Sec. 5)
      o.pool = pool;
      ApDetector(AffinityView(&sparse), o).Detect();
    });
    time_method("SEA", [&] {
      SeaOptions o;
      o.pool = pool;
      SeaDetector(AffinityView(&sparse), o).DetectAll();
    });
    time_method("PALID", [&] {
      // Fresh oracle per row keeps the counters per row; the map
      // tasks run on the same shared pool as the baselines above.
      LazyAffinityOracle oracle(data.data, affinity);
      PalidOptions o;
      if (pool != nullptr) {
        o.pool = pool;
      } else {
        o.num_executors = 1;
      }
      Palid(oracle, lsh, o).Detect();
    });
  }
  for (ParallelRow& row : rows) {
    for (const ParallelRow& base : rows) {
      if (base.executors == 1 &&
          std::string_view(base.method) == row.method) {
        row.speedup = row.wall_seconds > 0.0
                          ? base.wall_seconds / row.wall_seconds
                          : 0.0;
      }
    }
    std::printf("%-10s %-6d %-10.3f %-8.2f\n", row.method, row.executors,
                row.wall_seconds, row.speedup);
  }
  std::printf("Expected shape: every method's 8-executor wall time at or "
              "below its serial wall time on multi-core hardware (identical "
              "output bits either way).\n");
  std::string json;
  AppendF(json, "{\"bench\":\"fig7_parallel_baselines\",\"n\":%d,\"rows\":[",
          data.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendF(json,
            "%s{\"method\":\"%s\",\"executors\":%d,\"wall_seconds\":%.6f,"
            "\"speedup\":%.4f,\"gate_speedup\":%s}",
            i == 0 ? "" : ",", rows[i].method, rows[i].executors,
            rows[i].wall_seconds, rows[i].speedup,
            std::string_view(rows[i].method) == "PALID" ? "true" : "false");
  }
  json += "]}";
  ctx.EmitJson(json);
}

void Run(BenchContext& ctx) {
  std::printf("Figure 7: scalability on the three a* regimes and NDI "
              "(scale %.2f)\n", ctx.scale());
  const std::vector<double> sizes{700, 1400, 2800, 5600, 11200};
  std::string json = "{\"bench\":\"fig7_scalability\",\"rows\":[";

  SweepSizes(ctx, "(a,e,i) a* = omega*n/20, omega=1.0", "proportional",
             [](Index n) {
               return MakeRegime(SyntheticRegime::kProportional, n, 101);
             },
             sizes, json);
  SweepSizes(ctx, "(b,f,j) a* = n^eta/20, eta=0.9", "sublinear",
             [](Index n) {
               return MakeRegime(SyntheticRegime::kSublinear, n, 102);
             },
             sizes, json);
  SweepSizes(ctx, "(c,g,k) a* = P/20, P=1000", "bounded",
             [](Index n) {
               return MakeRegime(SyntheticRegime::kBounded, n, 103);
             },
             sizes, json);
  SweepSizes(ctx, "(d,h,l) NDI-like subsets", "ndi",
             [](Index n) {
               NdiLikeConfig cfg;
               cfg.num_groups = 12;
               cfg.num_duplicates = n / 8;
               cfg.num_noise = n - n / 8;
               cfg.seed = 104;
               return MakeNdiLike(cfg);
             },
             sizes, json);

  std::printf("\nExpected shape (paper, log-log): ALID runtime slopes "
              "~2 / ~1.7 / ~1 on the three regimes; memory far below the "
              "O(n^2) baselines; AVG-F comparable across methods.\n");
  json += "]}";
  ctx.EmitJson(json);

  ParallelBaselineSweep(ctx);
}

ALID_BENCHMARK("fig7_scalability", "paper,scalability,speedup",
               "fig7_scalability,fig7_parallel_baselines", Run);

}  // namespace
}  // namespace alid::bench
