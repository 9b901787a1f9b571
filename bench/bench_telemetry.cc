// Telemetry overhead benchmark (docs/observability.md): the MVCC churn
// workload (one writer thread racing query threads through the engine's
// public DML/Search paths), run alternately with telemetry disabled and
// fully enabled — registry histograms on every query and DML op, the
// slow-query log threshold armed, and the periodic background dump
// running — to price the record path.
//
// The record path is a handful of relaxed atomic fetch_adds per
// operation plus two steady_clock reads per stage, so the gate is
// tight: best-of-N wall time with telemetry on must stay within 5% of
// telemetry off (BENCH_telemetry.json, checked by
// tools/check_bench_json.py). Reps alternate off/on so thermal or
// frequency drift hits both modes equally, and best-of-N discards
// scheduler noise. Every rep oracle-validates a slice of its queries;
// mismatches must be 0 — telemetry must never alter results.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "telemetry/metrics_registry.h"
#include "workload/concurrent_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

struct RepOutcome {
  double wall_ms = 0.0;
  double qry_p50_ms = 0.0;
  double qry_p95_ms = 0.0;
  uint64_t queries = 0;
  uint64_t validated = 0;
  uint64_t mismatches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = static_cast<uint32_t>(flags.GetInt("docs", 4000));
  cfg.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 3000));
  cfg.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 30));
  cfg.writer_ops = static_cast<uint32_t>(flags.GetInt("writer_ops", 12000));
  cfg.query_threads =
      static_cast<uint32_t>(flags.GetInt("query_threads", 3));
  cfg.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  cfg.validate_every =
      static_cast<uint32_t>(flags.GetInt("validate_every", 64));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const std::string out_path =
      flags.GetString("out", "BENCH_telemetry.json");

  std::printf("# telemetry overhead: %u docs, %u writer ops, %u query "
              "threads, best of %d reps per mode\n\n",
              cfg.initial_docs, cfg.writer_ops, cfg.query_threads, reps);

  std::FILE* json = OpenBenchJson(out_path, "telemetry");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n  \"writer_ops\": %u,\n"
               "  \"query_threads\": %u,\n  \"reps\": %d,\n"
               "  \"series\": [",
               cfg.initial_docs, cfg.writer_ops, cfg.query_threads, reps);

  TablePrinter table({"rep", "mode", "wall ms", "qry p50 ms", "qry p95 ms",
                      "validated", "mismatches"});
  std::vector<RepOutcome> off_reps, on_reps;
  std::atomic<uint64_t> periodic_dumps{0};
  bool dump_ok = true;
  bool first_series = true;
  for (int rep = 0; rep < reps; ++rep) {
    // Off first, on second, every rep: interleaving cancels drift.
    for (const bool telemetry_on : {false, true}) {
      core::SvrEngineOptions options;
      options.telemetry.enabled = telemetry_on;
      if (telemetry_on) {
        // Everything armed: slow-query comparisons on the query path
        // (the default threshold keeps captures rare, which is the
        // production posture) and the background dump thread racing the
        // workload through the registry.
        options.telemetry.dump_interval_ms = 250;
        options.telemetry.dump_sink = [&periodic_dumps](const std::string&) {
          periodic_dumps.fetch_add(1);
        };
      }
      auto engine =
          CheckResult(workload::SetupChurnEngine(options, cfg), "setup");
      auto result = CheckResult(
          workload::RunConcurrentChurn(engine.get(), cfg), "churn run");
      if (telemetry_on) {
        // The export surface must round-trip both formats mid-flight.
        const std::string j =
            engine->DumpMetrics(telemetry::DumpFormat::kJson);
        const std::string p =
            engine->DumpMetrics(telemetry::DumpFormat::kPrometheus);
        if (j.find("\"query.total_us\"") == std::string::npos ||
            p.find("# TYPE svr_query_total_us summary") ==
                std::string::npos) {
          dump_ok = false;
        }
      }
      engine->Stop();

      RepOutcome o;
      o.wall_ms = result.wall_ms;
      o.qry_p50_ms = result.query.p50_ms;
      o.qry_p95_ms = result.query.p95_ms;
      o.queries = result.queries_run;
      o.validated = result.validated_queries;
      o.mismatches = result.mismatches;
      (telemetry_on ? on_reps : off_reps).push_back(o);

      const char* mode = telemetry_on ? "on" : "off";
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.1f", o.wall_ms);
      table.Row({std::to_string(rep), mode, wall, Ms(o.qry_p50_ms),
                 Ms(o.qry_p95_ms), std::to_string(o.validated),
                 std::to_string(o.mismatches)});
      std::fprintf(
          json,
          "%s\n    {\"rep\": %d, \"mode\": \"%s\", \"wall_ms\": %.3f,\n"
          "     \"queries\": %llu, \"qry_p50_ms\": %.5f, "
          "\"qry_p95_ms\": %.5f,\n"
          "     \"validated\": %llu, \"mismatches\": %llu}",
          first_series ? "" : ",", rep, mode, o.wall_ms,
          static_cast<unsigned long long>(o.queries), o.qry_p50_ms,
          o.qry_p95_ms, static_cast<unsigned long long>(o.validated),
          static_cast<unsigned long long>(o.mismatches));
      first_series = false;
    }
  }

  const auto best_wall = [](const std::vector<RepOutcome>& v) {
    double best = v.front().wall_ms;
    for (const RepOutcome& o : v) best = std::min(best, o.wall_ms);
    return best;
  };
  const double off_best = best_wall(off_reps);
  const double on_best = best_wall(on_reps);
  const double ratio = on_best / off_best;

  std::fprintf(json,
               "\n  ],\n  \"summary\": {\"off_best_wall_ms\": %.3f, "
               "\"on_best_wall_ms\": %.3f,\n"
               "    \"overhead_ratio\": %.4f, \"periodic_dumps\": %llu, "
               "\"dump_ok\": %s}\n}\n",
               off_best, on_best, ratio,
               static_cast<unsigned long long>(periodic_dumps.load()),
               dump_ok ? "true" : "false");
  std::fclose(json);

  std::printf("\n# best wall: off %.1f ms, on %.1f ms -> overhead ratio "
              "%.4f (gate: <= 1.05)\n",
              off_best, on_best, ratio);
  std::printf("# periodic dumps delivered: %llu, export round-trip %s\n",
              static_cast<unsigned long long>(periodic_dumps.load()),
              dump_ok ? "ok" : "FAILED");
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
