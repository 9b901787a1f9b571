// Durability benchmark (docs/durability.md): what persistence costs on
// the commit path of the durable engine (a one-shard ShardedSvrEngine),
// and what recovery costs on restart. Two series, one
// JSON artifact (BENCH_durability.json, gated by
// tools/check_bench_json.py in ci.sh):
//
//   commit   — N client threads hammer score updates through a durable
//              engine, once per SyncMode. Both modes run the identical
//              workload on a WAL whose fsync is padded to a disk-like
//              latency (LatencyWalFile — tmpfs fsync is near-free and
//              would flatter the per-statement baseline). Group commit
//              amortizes one padded fsync over every statement that
//              queued while the previous one was in flight, so its
//              throughput must beat sync-each by a wide factor (gated
//              at >= 3x; roughly the thread count in practice).
//   recovery — build a WAL of W statements, restart, and time Open's
//              recovery, with and without a checkpoint covering the
//              prefix. The checkpointed run must replay fewer WAL
//              records; every run must answer a pre-crash query set
//              identically after recovery (gated: mismatches == 0).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "core/sharded_engine.h"
#include "durability/wal_file.h"
#include "workload/crash_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

using relational::AggFunction;
using relational::AggregateKind;
using relational::Schema;
using relational::Value;
using relational::ValueType;

durability::WalFileFactory LatencyFactory(uint64_t sync_delay_us) {
  return [sync_delay_us](const std::string& path,
                         std::unique_ptr<durability::WalFile>* out) {
    std::unique_ptr<durability::WalFile> base;
    SVR_RETURN_NOT_OK(durability::OpenPosixWalFile(path, &base));
    *out = std::make_unique<durability::LatencyWalFile>(std::move(base),
                                                       sync_delay_us);
    return Status::OK();
  };
}

struct CorpusShape {
  uint32_t docs = 250;
  uint32_t vocab = 300;
  uint32_t terms_per_doc = 10;
  uint64_t seed = 2005;
};

/// docs{id,text} + scores{id,val} + the S1 index — the same minimal
/// scored corpus the crash driver uses. Setup statements are part of the
/// WAL too; the recovery series counts them in recovered_seq.
Status SetupCorpus(core::ShardedSvrEngine* engine,
                   const CorpusShape& shape) {
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "docs",
      Schema({{"id", ValueType::kInt64}, {"text", ValueType::kString}},
             0)));
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "scores",
      Schema({{"id", ValueType::kInt64}, {"val", ValueType::kDouble}},
             0)));
  Random rng(shape.seed);
  for (uint32_t d = 0; d < shape.docs; ++d) {
    std::string text;
    for (uint32_t t = 0; t < shape.terms_per_doc; ++t) {
      if (!text.empty()) text.push_back(' ');
      text += "t" + std::to_string(rng.Uniform(shape.vocab));
    }
    SVR_RETURN_NOT_OK(engine->Insert(
        "docs", {Value::Int(d), Value::String(text)}));
    SVR_RETURN_NOT_OK(engine->Insert(
        "scores",
        {Value::Int(d), Value::Double(rng.UniformDouble(1.0, 100000.0))}));
  }
  return engine->CreateTextIndex(
      "docs", "text",
      {{"S1", "scores", "id", "val", AggregateKind::kValue}},
      AggFunction::WeightedSum({1.0}));
}

core::ShardedSvrEngineOptions DurableOptions(
    const std::string& dir, durability::SyncMode mode,
    durability::WalFileFactory factory) {
  core::ShardedSvrEngineOptions options;
  options.shard.method = index::Method::kChunk;
  options.durability.enabled = true;
  options.durability.dir = dir;
  options.durability.sync_mode = mode;
  options.durability.file_factory = std::move(factory);
  return options;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- commit series -----------------------------------------------------

struct CommitResult {
  uint64_t ops = 0;
  double wall_ms = 0;
  double ops_per_sec = 0;
};

CommitResult RunCommit(const std::string& dir, durability::SyncMode mode,
                       const CorpusShape& shape, uint32_t threads,
                       uint32_t ops_per_thread, uint64_t sync_delay_us) {
  Check(workload::WipeDirectory(dir), "wipe");
  auto engine = CheckResult(
      core::ShardedSvrEngine::Open(
          DurableOptions(dir, mode, LatencyFactory(sync_delay_us))),
      "open");
  Check(SetupCorpus(engine.get(), shape), "setup");

  const double t0 = NowMs();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(shape.seed * 7919 + t);
      for (uint32_t i = 0; i < ops_per_thread; ++i) {
        const int64_t pk = static_cast<int64_t>(rng.Uniform(shape.docs));
        Check(engine->Update(
                  "scores",
                  {Value::Int(pk),
                   Value::Double(rng.UniformDouble(1.0, 100000.0))}),
              "durable update");
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_ms = NowMs() - t0;
  engine->Stop();

  CommitResult r;
  r.ops = static_cast<uint64_t>(threads) * ops_per_thread;
  r.wall_ms = wall_ms;
  r.ops_per_sec = r.ops / (wall_ms / 1000.0);
  return r;
}

// --- recovery series ---------------------------------------------------

struct RecoveryResult {
  double recovery_ms = 0;
  durability::RecoveryStats stats;
  uint64_t queries = 0;
  uint64_t mismatches = 0;
};

std::vector<std::string> QuerySet(const CorpusShape& shape, uint32_t n) {
  Random rng(shape.seed + 17);
  std::vector<std::string> out;
  for (uint32_t q = 0; q < n; ++q) {
    out.push_back("t" + std::to_string(rng.Uniform(shape.vocab)) + " t" +
                  std::to_string(rng.Uniform(shape.vocab)));
  }
  return out;
}

std::vector<std::pair<int64_t, double>> TopDocs(
    core::ShardedSvrEngine* engine, const std::string& q, size_t k) {
  auto r = CheckResult(engine->Search(q, k), "search");
  std::vector<std::pair<int64_t, double>> out;
  out.reserve(r.size());
  for (const auto& row : r) out.emplace_back(row.pk, row.score);
  return out;
}

RecoveryResult RunRecovery(const std::string& dir, uint32_t wal_ops,
                           bool checkpoint, const CorpusShape& shape,
                           uint32_t queries, uint32_t top_k) {
  Check(workload::WipeDirectory(dir), "wipe");
  const auto make_options = [&] {
    return DurableOptions(dir, durability::SyncMode::kGroupCommit,
                          durability::WalFileFactory());
  };
  std::vector<std::vector<std::pair<int64_t, double>>> before;
  {
    auto engine = CheckResult(core::ShardedSvrEngine::Open(make_options()),
                              "open for load");
    Check(SetupCorpus(engine.get(), shape), "setup");
    Random rng(shape.seed + 1);
    for (uint32_t i = 0; i < wal_ops; ++i) {
      // A checkpoint at 3/4 of the churn leaves a real WAL suffix to
      // stitch onto the snapshot — recovery exercises both halves.
      if (checkpoint && i == (wal_ops / 4) * 3) {
        Check(engine->CheckpointNow(), "checkpoint");
      }
      const int64_t pk = static_cast<int64_t>(rng.Uniform(shape.docs));
      Check(engine->Update(
                "scores",
                {Value::Int(pk),
                 Value::Double(rng.UniformDouble(1.0, 100000.0))}),
            "churn update");
    }
    for (const auto& q : QuerySet(shape, queries)) {
      before.push_back(TopDocs(engine.get(), q, top_k));
    }
    engine->Stop();
  }

  RecoveryResult r;
  const double t0 = NowMs();
  auto engine = CheckResult(core::ShardedSvrEngine::Open(make_options()),
                            "recovery open");
  r.recovery_ms = NowMs() - t0;
  r.stats = engine->recovery_stats();
  const auto qs = QuerySet(shape, queries);
  for (uint32_t q = 0; q < qs.size(); ++q) {
    ++r.queries;
    if (TopDocs(engine.get(), qs[q], top_k) != before[q]) ++r.mismatches;
  }
  engine->Stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  CorpusShape shape;
  shape.docs = static_cast<uint32_t>(flags.GetInt("docs", 250));
  shape.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 300));
  shape.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 10));
  shape.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));

  const uint32_t threads =
      static_cast<uint32_t>(flags.GetInt("threads", 8));
  const uint32_t ops_per_thread =
      static_cast<uint32_t>(flags.GetInt("ops", 150));
  const uint64_t sync_delay_us =
      static_cast<uint64_t>(flags.GetInt("sync_delay_us", 400));
  const uint32_t queries =
      static_cast<uint32_t>(flags.GetInt("queries", 20));
  const uint32_t top_k = static_cast<uint32_t>(flags.GetInt("k", 10));
  const std::string dir =
      flags.GetString("dir", "bench_durability_dir");
  const std::string out_path =
      flags.GetString("out", "BENCH_durability.json");

  std::vector<uint32_t> wal_lengths;
  for (const std::string& s :
       SplitCsv(flags.GetString("wal_ops", "1500,4000"))) {
    wal_lengths.push_back(
        static_cast<uint32_t>(std::atoll(s.c_str())));
  }

  std::FILE* json = OpenBenchJson(out_path, "durability");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n  \"threads\": %u,\n"
               "  \"sync_delay_us\": %llu,\n  \"series\": [",
               shape.docs, threads,
               static_cast<unsigned long long>(sync_delay_us));
  bool first_series = true;

  std::printf("# durability: %u docs, fsync padded to %llu us\n\n",
              shape.docs,
              static_cast<unsigned long long>(sync_delay_us));
  TablePrinter commit_table(
      {"mode", "threads", "ops", "wall ms", "ops/s"});
  double group_ops_per_sec = 0, sync_ops_per_sec = 0;
  for (const auto mode : {durability::SyncMode::kGroupCommit,
                          durability::SyncMode::kSyncEachStatement}) {
    const bool group = mode == durability::SyncMode::kGroupCommit;
    const char* name = group ? "group" : "sync_each";
    const CommitResult r = RunCommit(dir, mode, shape, threads,
                                     ops_per_thread, sync_delay_us);
    (group ? group_ops_per_sec : sync_ops_per_sec) = r.ops_per_sec;
    commit_table.Row({name, std::to_string(threads),
                      std::to_string(r.ops), Ms(r.wall_ms),
                      Num(r.ops_per_sec)});
    std::fprintf(json,
                 "%s\n    {\"kind\": \"commit\", \"mode\": \"%s\", "
                 "\"threads\": %u, \"ops\": %llu,\n"
                 "     \"wall_ms\": %.2f, \"ops_per_sec\": %.1f}",
                 first_series ? "" : ",", name, threads,
                 static_cast<unsigned long long>(r.ops), r.wall_ms,
                 r.ops_per_sec);
    first_series = false;
  }
  std::printf("\n# group commit %.1fx over per-statement fsync\n\n",
              group_ops_per_sec / sync_ops_per_sec);

  TablePrinter recovery_table({"wal ops", "checkpoint", "recover ms",
                               "replayed", "queries", "mismatches"});
  for (const uint32_t wal_ops : wal_lengths) {
    for (const bool checkpoint : {false, true}) {
      const RecoveryResult r =
          RunRecovery(dir, wal_ops, checkpoint, shape, queries, top_k);
      recovery_table.Row(
          {std::to_string(wal_ops), checkpoint ? "yes" : "no",
           Ms(r.recovery_ms),
           std::to_string(r.stats.wal_records_replayed),
           std::to_string(r.queries), std::to_string(r.mismatches)});
      std::fprintf(
          json,
          ",\n    {\"kind\": \"recovery\", \"wal_ops\": %u, "
          "\"checkpoint\": %s,\n"
          "     \"recovery_ms\": %.2f, \"used_checkpoint\": %s, "
          "\"wal_records_replayed\": %llu,\n"
          "     \"recovered_seq\": %llu, \"replay_errors\": %llu, "
          "\"queries\": %llu, \"mismatches\": %llu}",
          wal_ops, checkpoint ? "true" : "false", r.recovery_ms,
          r.stats.used_checkpoint ? "true" : "false",
          static_cast<unsigned long long>(r.stats.wal_records_replayed),
          static_cast<unsigned long long>(r.stats.recovered_seq),
          static_cast<unsigned long long>(r.stats.replay_errors),
          static_cast<unsigned long long>(r.queries),
          static_cast<unsigned long long>(r.mismatches));
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  Check(workload::WipeDirectory(dir), "cleanup");
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf("# expectation: group commit >= 3x sync-each ops/s; "
              "checkpointed recovery replays fewer WAL records; "
              "mismatches always 0\n");
  return 0;
}
