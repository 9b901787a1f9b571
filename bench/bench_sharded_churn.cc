// Sharding benchmark (docs/sharding.md): writer throughput as the
// engine is hash-partitioned across 1/2/4/8 shards, with writer threads
// scaled to match the shard count.
//
// With one shard every DML op serializes behind the engine-wide
// exclusive lock — and, worse, behind every in-flight query's reader
// lock, so writer throughput is capped no matter how many writer
// threads exist. With N shards a query only ever holds one shard's
// reader lock at a time and writers to the other shards proceed, so
// aggregate writer throughput climbs with the shard count even before
// extra cores enter the picture.
//
// Writers run for a fixed wall budget (`run_ms`) per configuration and
// the reported metric is completed DML ops per second across all writer
// threads. A fraction of queries re-runs under ReadSnapshotAll and
// checks every shard's top-k against the brute-force oracle plus the
// GatherTopK merge of both sides, so the scaling curve is oracle-
// validated, not asserted. Emits BENCH_sharding.json (validated by
// tools/check_bench_json.py in ci.sh: throughput must be monotone
// non-decreasing from 1 to 4 shards, mismatches must be 0).

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
  cfg.initial_docs = static_cast<uint32_t>(flags.GetInt("docs", 4000));
  cfg.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 3000));
  cfg.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 30));
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

  const uint32_t run_ms =
      static_cast<uint32_t>(flags.GetInt("run_ms", 4000));

  core::ShardedSvrEngineOptions base;
  base.shard.method = ParseMethod(flags.GetString("method", "chunk"));
  base.shard.table_pool_pages =
      static_cast<uint64_t>(flags.GetInt("table_pages", 1 << 15));
  base.shard.list_pool_pages =
      static_cast<uint64_t>(flags.GetInt("list_pages", 1 << 15));
  base.shard.merge_policy.enabled = true;
  base.shard.merge_policy.short_ratio = flags.GetDouble("merge_ratio", 0.2);
  base.shard.merge_policy.min_short_postings =
      static_cast<uint32_t>(flags.GetInt("merge_min", 32));
  base.shard.merge_policy.check_interval =
      static_cast<uint32_t>(flags.GetInt("merge_interval", 200));
  base.shard.background_merge = flags.GetBool("background", true);
  base.shard.scheduler.workers =
      static_cast<size_t>(flags.GetInt("merge_workers", 1));

  const std::string out_path =
      flags.GetString("out", "BENCH_sharding.json");
  std::vector<uint32_t> shard_counts;
  for (const std::string& s : SplitCsv(flags.GetString("shards",
                                                       "1,2,4,8"))) {
    const int n = std::atoi(s.c_str());
    if (n <= 0) {
      std::fprintf(stderr, "FATAL bad shard count '%s'\n", s.c_str());
      return 1;
    }
    shard_counts.push_back(static_cast<uint32_t>(n));
  }

  std::printf("# Sharded churn: %u docs, %u ms writer budget per config, "
              "%u query threads (validate every %u)\n\n",
              cfg.initial_docs, run_ms, cfg.query_threads,
              cfg.validate_every);

  std::FILE* json = OpenBenchJson(out_path, "sharded_churn");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n  \"run_ms\": %u,\n"
               "  \"query_threads\": %u,\n  \"validate_every\": %u,\n"
               "  \"method\": \"%s\",\n  \"series\": [",
               cfg.initial_docs, run_ms, cfg.query_threads,
               cfg.validate_every,
               flags.GetString("method", "chunk").c_str());

  TablePrinter table({"shards", "writers", "wr ops", "wr ops/s",
                      "wr p99 ms", "qry p50 ms", "qry p99 ms", "merges",
                      "validated", "mismatches"});
  bool first_series = true;
  for (uint32_t shards : shard_counts) {
    core::ShardedSvrEngineOptions options = base;
    options.num_shards = shards;

    auto engine = CheckResult(workload::SetupShardedChurnEngine(options,
                                                                cfg),
                              "setup");
    auto result = CheckResult(
        workload::RunShardedChurn(engine.get(), cfg, shards, run_ms),
        "sharded churn run");
    // Quiesce every shard's scheduler so final counters are complete.
    for (uint32_t s = 0; s < engine->num_shards(); ++s) {
      if (engine->shard(s)->merge_scheduler() != nullptr) {
        engine->shard(s)->merge_scheduler()->WaitIdle();
      }
    }
    result.stats = engine->GetStats();

    char opsps[32];
    std::snprintf(opsps, sizeof(opsps), "%.0f", result.writer_ops_per_sec);
    table.Row({std::to_string(shards), std::to_string(shards),
               std::to_string(result.writer_ops_done), opsps,
               Ms(result.write.p99_ms), Ms(result.query.p50_ms),
               Ms(result.query.p99_ms),
               std::to_string(result.stats.total.index.term_merges),
               std::to_string(result.validated_queries),
               std::to_string(result.mismatches)});

    std::fprintf(
        json,
        "%s\n    {\"shards\": %u, \"writer_threads\": %u,\n"
        "     \"writer_ops\": %llu, \"writer_wall_ms\": %.2f, "
        "\"writer_ops_per_sec\": %.2f,\n"
        "     \"wr_p50_ms\": %.5f, \"wr_p99_ms\": %.5f,\n"
        "     \"queries\": %llu, \"qry_p50_ms\": %.5f, "
        "\"qry_p99_ms\": %.5f,\n"
        "     \"term_merges\": %llu, \"merge_jobs_completed\": %llu, "
        "\"merge_workers\": %llu, \"objects_reclaimed\": %llu,\n"
        "     \"validated\": %llu, \"mismatches\": %llu, "
        "\"wall_ms\": %.2f}",
        first_series ? "" : ",", shards, shards,
        static_cast<unsigned long long>(result.writer_ops_done),
        result.writer_wall_ms, result.writer_ops_per_sec,
        result.write.p50_ms, result.write.p99_ms,
        static_cast<unsigned long long>(result.queries_run),
        result.query.p50_ms, result.query.p99_ms,
        static_cast<unsigned long long>(
            result.stats.total.index.term_merges),
        static_cast<unsigned long long>(
            result.stats.total.merge_jobs_completed),
        static_cast<unsigned long long>(result.stats.total.merge_workers),
        static_cast<unsigned long long>(
            result.stats.total.objects_reclaimed),
        static_cast<unsigned long long>(result.validated_queries),
        static_cast<unsigned long long>(result.mismatches),
        result.wall_ms);
    first_series = false;

    std::printf("# shards=%u: %llu writer ops in %.0f ms (%.0f ops/s), "
                "%llu validated, %llu mismatches\n",
                shards,
                static_cast<unsigned long long>(result.writer_ops_done),
                result.writer_wall_ms, result.writer_ops_per_sec,
                static_cast<unsigned long long>(result.validated_queries),
                static_cast<unsigned long long>(result.mismatches));
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf("# expectation: writer ops/s monotone non-decreasing from "
              "1 to 4 shards; mismatches always 0\n");
  return 0;
}
