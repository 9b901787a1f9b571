// Concurrency benchmark (docs/concurrency.md): query threads racing the
// merge maintenance under sustained mixed DML churn, with the short→long
// merge
//
//   off        — never merged (short lists grow for the whole run),
//   sync       — policy merges inline on the write path, inside the
//                writer's exclusive critical section: queries queue
//                behind every sweep (the p99 spike this PR removes),
//   background — policy hits become scheduler jobs; merge work runs as
//                a reader off the write path and installs with an
//                atomic per-term swap (write-path merge time ~0).
//
// Every mode drives the same workload through the public SvrEngine DML
// and Search APIs from multiple threads; a fraction of queries is
// validated against the brute-force oracle under ReadSnapshot, so the
// run also proves snapshot consistency under concurrency. Emits
// BENCH_concurrency.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workload/concurrent_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

index::Method ParseMethod(const std::string& name) {
  if (name == "id") return index::Method::kId;
  if (name == "idts") return index::Method::kIdTermScore;
  if (name == "st") return index::Method::kScoreThreshold;
  if (name == "cts") return index::Method::kChunkTermScore;
  return index::Method::kChunk;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = static_cast<uint32_t>(flags.GetInt("docs", 6000));
  cfg.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 5000));
  cfg.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 40));
  cfg.writer_ops =
      static_cast<uint32_t>(flags.GetInt("writer_ops", 20000));
  cfg.insert_pct = flags.GetDouble("insert_pct", 10.0);
  cfg.delete_pct = flags.GetDouble("delete_pct", 2.0);
  cfg.content_pct = flags.GetDouble("content_pct", 5.0);
  cfg.query_threads =
      static_cast<uint32_t>(flags.GetInt("query_threads", 2));
  cfg.query_terms = static_cast<uint32_t>(flags.GetInt("query_terms", 2));
  cfg.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  cfg.validate_every =
      static_cast<uint32_t>(flags.GetInt("validate_every", 8));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));

  core::SvrEngineOptions base;
  base.method = ParseMethod(flags.GetString("method", "chunk"));
  base.table_pool_pages =
      static_cast<uint64_t>(flags.GetInt("table_pages", 1 << 15));
  base.list_pool_pages =
      static_cast<uint64_t>(flags.GetInt("list_pages", 1 << 15));
  base.merge_policy.short_ratio = flags.GetDouble("merge_ratio", 0.2);
  base.merge_policy.min_short_postings =
      static_cast<uint32_t>(flags.GetInt("merge_min", 32));
  base.merge_policy.short_bytes_budget =
      static_cast<uint64_t>(flags.GetInt("merge_budget_kb", 1024)) * 1024;
  base.merge_policy.check_interval =
      static_cast<uint32_t>(flags.GetInt("merge_interval", 200));
  base.scheduler.queue_capacity =
      static_cast<size_t>(flags.GetInt("merge_queue", 1024));
  base.scheduler.workers =
      static_cast<size_t>(flags.GetInt("merge_workers", 1));

  const std::string out_path =
      flags.GetString("out", "BENCH_concurrency.json");
  std::vector<std::string> modes =
      SplitCsv(flags.GetString("modes", "off,sync,background"));

  std::printf("# Concurrent churn: %u docs, %u writer ops vs %u query "
              "threads (validate every %u)\n\n",
              cfg.initial_docs, cfg.writer_ops, cfg.query_threads,
              cfg.validate_every);

  std::FILE* json = OpenBenchJson(out_path, "concurrent_churn");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n  \"writer_ops\": %u,\n"
               "  \"query_threads\": %u,\n  \"validate_every\": %u,\n"
               "  \"series\": [",
               cfg.initial_docs, cfg.writer_ops, cfg.query_threads,
               cfg.validate_every);

  TablePrinter table({"method", "mode", "qry p50 ms", "qry p99 ms",
                      "wr p50 ms", "wr p99 ms", "wr merge ms", "merges",
                      "reclaimed", "validated"});
  bool first_series = true;
  for (const std::string& mode : modes) {
    core::SvrEngineOptions options = base;
    options.merge_policy.enabled = (mode != "off");
    options.background_merge = (mode == "background");

    auto engine = CheckResult(workload::SetupChurnEngine(options, cfg),
                              "setup");
    auto result = CheckResult(
        workload::RunConcurrentChurn(engine.get(), cfg), "churn run");
    if (engine->merge_scheduler() != nullptr) {
      // Quiesce so the final counters include queued jobs and the
      // reclaim pass that follows them.
      engine->merge_scheduler()->WaitIdle();
      result.stats = engine->GetStats();
    }

    table.Row({flags.GetString("method", "chunk"), mode,
               Ms(result.query.p50_ms), Ms(result.query.p99_ms),
               Ms(result.write.p50_ms), Ms(result.write.p99_ms),
               Ms(result.stats.write_merge_ms),
               std::to_string(result.stats.index.term_merges),
               std::to_string(result.stats.objects_reclaimed),
               std::to_string(result.validated_queries)});

    std::fprintf(
        json,
        "%s\n    {\"mode\": \"%s\", \"method\": \"%s\",\n"
        "     \"queries\": %llu, \"qry_mean_ms\": %.5f, "
        "\"qry_p50_ms\": %.5f, \"qry_p95_ms\": %.5f, "
        "\"qry_p99_ms\": %.5f, \"qry_max_ms\": %.5f,\n"
        "     \"writes\": %llu, \"wr_p50_ms\": %.5f, "
        "\"wr_p99_ms\": %.5f, \"wr_max_ms\": %.5f, "
        "\"write_merge_ms\": %.5f,\n"
        "     \"term_merges\": %llu, \"merge_jobs_completed\": %llu, "
        "\"merge_jobs_aborted\": %llu, \"merge_sync_fallbacks\": %llu,\n"
        "     \"objects_reclaimed\": %llu, \"reclaim_pending\": %llu,\n"
        "     \"validated\": %llu, \"mismatches\": %llu, "
        "\"wall_ms\": %.2f}",
        first_series ? "" : ",", mode.c_str(),
        flags.GetString("method", "chunk").c_str(),
        static_cast<unsigned long long>(result.query.count),
        result.query.mean_ms, result.query.p50_ms, result.query.p95_ms,
        result.query.p99_ms, result.query.max_ms,
        static_cast<unsigned long long>(result.write.count),
        result.write.p50_ms, result.write.p99_ms, result.write.max_ms,
        result.stats.write_merge_ms,
        static_cast<unsigned long long>(result.stats.index.term_merges),
        static_cast<unsigned long long>(result.stats.merge_jobs_completed),
        static_cast<unsigned long long>(result.stats.merge_jobs_aborted),
        static_cast<unsigned long long>(result.stats.merge_sync_fallbacks),
        static_cast<unsigned long long>(result.stats.objects_reclaimed),
        static_cast<unsigned long long>(result.stats.reclaim_pending),
        static_cast<unsigned long long>(result.validated_queries),
        static_cast<unsigned long long>(result.mismatches),
        result.wall_ms);
    first_series = false;

    std::printf("# %s: %llu queries, %llu validated, %llu mismatches, "
                "write-path merge %.2f ms\n",
                mode.c_str(),
                static_cast<unsigned long long>(result.query.count),
                static_cast<unsigned long long>(result.validated_queries),
                static_cast<unsigned long long>(result.mismatches),
                result.stats.write_merge_ms);
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf(
      "# expectation: background write_merge_ms ~0 vs sync; query p99 "
      "smooth while merges land; mismatches always 0\n");
  return 0;
}
