// MVCC read-path benchmark (docs/concurrency.md): reader latency and
// writer throughput under churn, lock-based baseline vs the versioned
// read path, at 1/4/8 shards.
//
// Both modes run the *same* engine — the snapshot machinery is always
// underneath, so results are identical — and differ only in reader
// serialization (SvrEngineOptions::read_locking):
//
//   lock  — the pre-MVCC model: every Search holds the engine-wide
//           shared_mutex its shard's DML takes exclusively, so readers
//           queue behind writers and writers wait for readers to drain.
//   mvcc  — readers pin a ReadView (epoch guard + one atomic snapshot
//           load) and never block; writers pay the copy-on-write
//           shadowing instead.
//
// Each (shards, mode) pair runs in two reader regimes, because one
// regime cannot show both claims honestly on a small box:
//
//   saturated — readers loop with no think time. On a reader-preferring
//               shared_mutex this starves lock-mode writers to a
//               handful of ops (the pathology the MVCC read path
//               removes), so the writer-throughput comparison is the
//               headline here; reader latencies are NOT comparable
//               across modes in this regime (the starved baseline's
//               readers race over a frozen index).
//   paced     — readers arrive with think time, so writers in both
//               modes sustain the same churn and the reader-p95
//               comparison is like-for-like.
//
// A fraction of queries re-runs under ReadSnapshotAll at one pinned
// cross-shard read timestamp and checks every shard's top-k against the
// brute-force oracle at that exact version, so every curve is
// oracle-validated. Emits BENCH_mvcc.json (gated by
// tools/check_bench_json.py in ci.sh: mismatches must be 0 everywhere;
// saturated MVCC writer throughput must beat the lock baseline by a
// wide factor at every shard count; paced MVCC reader p95 must not
// exceed the lock baseline at the base shard count — beyond it,
// single-core scheduler noise between N writer threads dominates and
// the comparison is reported, not gated).

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
      static_cast<uint32_t>(flags.GetInt("query_threads", 3));
  cfg.query_terms = static_cast<uint32_t>(flags.GetInt("query_terms", 2));
  cfg.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  cfg.validate_every =
      static_cast<uint32_t>(flags.GetInt("validate_every", 16));
  const uint32_t think_us =
      static_cast<uint32_t>(flags.GetInt("think_us", 150));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));

  const uint32_t run_ms =
      static_cast<uint32_t>(flags.GetInt("run_ms", 4000));
  const uint32_t query_pool =
      static_cast<uint32_t>(flags.GetInt("query_pool", 1));

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
  base.num_query_threads = query_pool;

  const std::string out_path = flags.GetString("out", "BENCH_mvcc.json");
  std::vector<uint32_t> shard_counts;
  for (const std::string& s :
       SplitCsv(flags.GetString("shards", "1,4,8"))) {
    const int n = std::atoi(s.c_str());
    if (n <= 0) {
      std::fprintf(stderr, "FATAL bad shard count '%s'\n", s.c_str());
      return 1;
    }
    shard_counts.push_back(static_cast<uint32_t>(n));
  }

  std::printf("# MVCC churn: %u docs, %u ms writer budget per config, "
              "%u query threads (validate every %u)\n\n",
              cfg.initial_docs, run_ms, cfg.query_threads,
              cfg.validate_every);

  std::FILE* json = OpenBenchJson(out_path, "mvcc_churn");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n  \"run_ms\": %u,\n"
               "  \"query_threads\": %u,\n  \"validate_every\": %u,\n"
               "  \"method\": \"%s\",\n  \"series\": [",
               cfg.initial_docs, run_ms, cfg.query_threads,
               cfg.validate_every,
               flags.GetString("method", "chunk").c_str());

  TablePrinter table({"shards", "pacing", "mode", "wr ops/s",
                      "qry p50 ms", "qry p95 ms", "qry p99 ms", "merges",
                      "validated", "mismatches"});
  bool first_series = true;
  for (uint32_t shards : shard_counts) {
    for (const bool paced : {false, true}) {
    for (const bool mvcc : {false, true}) {
      core::ShardedSvrEngineOptions options = base;
      options.num_shards = shards;
      options.shard.read_locking =
          mvcc ? core::ReadLocking::kMvcc : core::ReadLocking::kSharedLock;
      workload::ConcurrentChurnConfig run_cfg = cfg;
      run_cfg.query_think_us = paced ? think_us : 0;
      const char* pacing = paced ? "paced" : "saturated";

      auto engine = CheckResult(
          workload::SetupShardedChurnEngine(options, run_cfg), "setup");
      auto result = CheckResult(
          workload::RunShardedChurn(engine.get(), run_cfg, shards, run_ms),
          "mvcc churn run");
      // Quiesce every shard's scheduler so final counters are complete.
      for (uint32_t s = 0; s < engine->num_shards(); ++s) {
        if (engine->shard(s)->merge_scheduler() != nullptr) {
          engine->shard(s)->merge_scheduler()->WaitIdle();
        }
      }
      result.stats = engine->GetStats();
      const char* mode = mvcc ? "mvcc" : "lock";

      char opsps[32];
      std::snprintf(opsps, sizeof(opsps), "%.0f",
                    result.writer_ops_per_sec);
      table.Row({std::to_string(shards), pacing, mode, opsps,
                 Ms(result.query.p50_ms), Ms(result.query.p95_ms),
                 Ms(result.query.p99_ms),
                 std::to_string(result.stats.total.index.term_merges),
                 std::to_string(result.validated_queries),
                 std::to_string(result.mismatches)});

      std::fprintf(
          json,
          "%s\n    {\"shards\": %u, \"pacing\": \"%s\", "
          "\"mode\": \"%s\",\n"
          "     \"writer_ops\": %llu, \"writer_ops_per_sec\": %.2f, "
          "\"wr_p99_ms\": %.5f,\n"
          "     \"queries\": %llu, \"qry_p50_ms\": %.5f, "
          "\"qry_p95_ms\": %.5f, \"qry_p99_ms\": %.5f,\n"
          "     \"term_merges\": %llu, \"fine_installs\": %llu, "
          "\"install_aborts\": %llu, \"list_state_retired\": %llu,\n"
          "     \"commit_watermark\": %llu, \"objects_reclaimed\": %llu,\n"
          "     \"validated\": %llu, \"mismatches\": %llu, "
          "\"wall_ms\": %.2f}",
          first_series ? "" : ",", shards, pacing, mode,
          static_cast<unsigned long long>(result.writer_ops_done),
          result.writer_ops_per_sec, result.write.p99_ms,
          static_cast<unsigned long long>(result.queries_run),
          result.query.p50_ms, result.query.p95_ms, result.query.p99_ms,
          static_cast<unsigned long long>(
              result.stats.total.index.term_merges),
          static_cast<unsigned long long>(
              result.stats.total.index.merge_installs_fine),
          static_cast<unsigned long long>(
              result.stats.total.index.merge_install_aborts),
          static_cast<unsigned long long>(
              result.stats.total.index.list_state_retired),
          static_cast<unsigned long long>(result.stats.commit_watermark),
          static_cast<unsigned long long>(
              result.stats.total.objects_reclaimed),
          static_cast<unsigned long long>(result.validated_queries),
          static_cast<unsigned long long>(result.mismatches),
          result.wall_ms);
      first_series = false;

      std::printf(
          "# shards=%u %s mode=%s: %.0f writer ops/s, reader p95 "
          "%.3f ms, %llu validated, %llu mismatches\n",
          shards, pacing, mode, result.writer_ops_per_sec,
          result.query.p95_ms,
          static_cast<unsigned long long>(result.validated_queries),
          static_cast<unsigned long long>(result.mismatches));
    }
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf("# expectation: saturated mvcc writer ops/s >> lock "
              "(starved) at every shard count; paced mvcc reader p95 <= "
              "lock at the base shard count; mismatches always 0\n");
  return 0;
}
