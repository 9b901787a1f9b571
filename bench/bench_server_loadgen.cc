// Serving-path load generator (docs/serving.md): a real SvrServer on an
// ephemeral port, hammered over real sockets. Three series, one JSON
// artifact (BENCH_server.json, gated by tools/check_bench_json.py in
// ci.sh):
//
//   write    — each client owns one connection and commits score
//              updates closed-loop, on a WAL whose fsync is padded to a
//              disk-like latency (LatencyWalFile, as bench_durability).
//              The server's worker pool funnels every connection's DML
//              into the engine's per-shard group commit, so N clients
//              must beat one client by a wide factor: N connections
//              share each padded fsync where one connection pays it per
//              statement (gated >= 2x).
//   search   — open-loop searches at a fixed offered rate for each
//              client count. Latency is measured from the *scheduled*
//              arrival, not the send (the coordinated-omission
//              correction), so a stalled server shows up as tail
//              latency rather than as a silently reduced rate.
//              Reports sustained QPS, p50/p99/p999.
//   overload — a closed-loop capacity probe fixes the admission p99
//              ceiling, then 2x the probe's client count hammers a
//              server whose admission control is armed with it. The
//              controller must shed (rejected > 0, every shed a typed
//              kOverloaded status) and the p99 of *admitted* requests
//              must stay within 5x the ceiling — bounded where the
//              unshed 2x load would run away with queueing delay.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "durability/wal_file.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/concurrent_driver.h"
#include "workload/crash_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

using relational::Value;
using server::SvrClient;
using server::SvrServer;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

std::unique_ptr<SvrClient> MustConnect(uint16_t port) {
  return CheckResult(SvrClient::Connect("127.0.0.1", port), "connect");
}

uint64_t Pct(std::vector<uint64_t>& us, double p) {
  if (us.empty()) return 0;
  const size_t idx = std::min(
      us.size() - 1, static_cast<size_t>(p / 100.0 * us.size()));
  std::nth_element(us.begin(), us.begin() + idx, us.end());
  return us[idx];
}

// --- write series ------------------------------------------------------

struct WriteResult {
  uint64_t ops = 0;
  double wall_ms = 0;
  double ops_per_sec = 0;
};

WriteResult RunWrite(uint16_t port, uint32_t clients,
                     uint32_t ops_per_client, uint32_t docs,
                     uint64_t seed) {
  std::vector<std::unique_ptr<SvrClient>> conns;
  for (uint32_t c = 0; c < clients; ++c) conns.push_back(MustConnect(port));
  const double t0 = NowMs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(seed * 7919 + c);
      for (uint32_t i = 0; i < ops_per_client; ++i) {
        const int64_t pk = static_cast<int64_t>(rng.Uniform(docs));
        Check(conns[c]->Update(
                  "scores",
                  {Value::Int(pk),
                   Value::Double(rng.UniformDouble(1.0, 100000.0))}),
              "durable update over the wire");
      }
    });
  }
  for (auto& t : threads) t.join();
  WriteResult r;
  r.wall_ms = NowMs() - t0;
  r.ops = static_cast<uint64_t>(clients) * ops_per_client;
  r.ops_per_sec = r.ops / (r.wall_ms / 1000.0);
  return r;
}

// --- search series (open loop) -----------------------------------------

struct SearchResult {
  uint32_t clients = 0;
  double offered_qps = 0;
  double sustained_qps = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t p50_us = 0, p99_us = 0, p999_us = 0;
};

std::string QueryAt(Random* rng, uint32_t vocab) {
  return "t" + std::to_string(rng->Uniform(vocab)) + " t" +
         std::to_string(rng->Uniform(vocab));
}

/// Open loop: each client walks a fixed arrival schedule; a request that
/// finds the previous one still in flight is charged its queueing time
/// because latency runs from the scheduled arrival.
SearchResult RunOpenLoopSearch(uint16_t port, uint32_t clients,
                               double offered_qps, uint32_t requests,
                               uint32_t vocab, uint32_t k, uint64_t seed) {
  std::vector<std::unique_ptr<SvrClient>> conns;
  for (uint32_t c = 0; c < clients; ++c) conns.push_back(MustConnect(port));
  const double interval_ms = clients / (offered_qps / 1000.0);
  const uint32_t per_client = requests / clients;
  std::vector<std::vector<uint64_t>> lat(clients);
  std::vector<uint64_t> shed(clients, 0);
  const double t0 = NowMs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(seed * 104729 + c);
      lat[c].reserve(per_client);
      for (uint32_t i = 0; i < per_client; ++i) {
        const double scheduled = t0 + (i + 1) * interval_ms;
        const double now = NowMs();
        if (now < scheduled) {
          std::this_thread::sleep_for(std::chrono::duration<double,
                                      std::milli>(scheduled - now));
        }
        auto reply = conns[c]->Search(QueryAt(&rng, vocab), k, true);
        if (!reply.ok()) {
          if (reply.status().IsOverloaded()) {
            ++shed[c];
            continue;
          }
          Check(reply.status(), "search over the wire");
        }
        lat[c].push_back(static_cast<uint64_t>(
            std::max(0.0, (NowMs() - scheduled) * 1000.0)));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = NowMs() - t0;

  SearchResult r;
  r.clients = clients;
  r.offered_qps = offered_qps;
  std::vector<uint64_t> all;
  for (uint32_t c = 0; c < clients; ++c) {
    all.insert(all.end(), lat[c].begin(), lat[c].end());
    r.rejected += shed[c];
  }
  r.completed = all.size();
  r.sustained_qps = r.completed / (wall_ms / 1000.0);
  r.p50_us = Pct(all, 50.0);
  r.p99_us = Pct(all, 99.0);
  r.p999_us = Pct(all, 99.9);
  return r;
}

// --- overload series (closed loop) -------------------------------------

struct ClosedResult {
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double sustained_qps = 0;
  uint64_t p50_us = 0, p99_us = 0;
};

ClosedResult RunClosedLoop(uint16_t port, uint32_t clients,
                           uint32_t ops_per_client, uint32_t vocab,
                           uint32_t k, uint64_t seed) {
  std::vector<std::unique_ptr<SvrClient>> conns;
  for (uint32_t c = 0; c < clients; ++c) conns.push_back(MustConnect(port));
  std::vector<std::vector<uint64_t>> lat(clients);
  std::vector<uint64_t> shed(clients, 0);
  const double t0 = NowMs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(seed * 65537 + c);
      for (uint32_t i = 0; i < ops_per_client; ++i) {
        const double sent = NowMs();
        auto reply = conns[c]->Search(QueryAt(&rng, vocab), k, true);
        if (!reply.ok()) {
          if (reply.status().IsOverloaded()) {
            ++shed[c];
            continue;
          }
          Check(reply.status(), "search over the wire");
        }
        lat[c].push_back(
            static_cast<uint64_t>((NowMs() - sent) * 1000.0));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = NowMs() - t0;

  ClosedResult r;
  std::vector<uint64_t> all;
  for (uint32_t c = 0; c < clients; ++c) {
    all.insert(all.end(), lat[c].begin(), lat[c].end());
    r.rejected += shed[c];
  }
  r.completed = all.size();
  r.sustained_qps = r.completed / (wall_ms / 1000.0);
  r.p50_us = Pct(all, 50.0);
  r.p99_us = Pct(all, 99.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  const uint32_t docs = static_cast<uint32_t>(flags.GetInt("docs", 2000));
  const uint32_t vocab =
      static_cast<uint32_t>(flags.GetInt("vocab", 1500));
  const uint32_t shards =
      static_cast<uint32_t>(flags.GetInt("shards", 2));
  const uint32_t workers =
      static_cast<uint32_t>(flags.GetInt("workers", 4));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 10));
  const uint32_t write_ops =
      static_cast<uint32_t>(flags.GetInt("write_ops", 200));
  const uint64_t sync_delay_us =
      static_cast<uint64_t>(flags.GetInt("sync_delay_us", 400));
  const uint32_t search_requests =
      static_cast<uint32_t>(flags.GetInt("search_requests", 2000));
  const double offered_qps = flags.GetDouble("offered_qps", 800.0);
  const uint32_t probe_ops =
      static_cast<uint32_t>(flags.GetInt("probe_ops", 300));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  const std::string dir = flags.GetString("dir", "bench_server_dir");
  const std::string out_path =
      flags.GetString("out", "BENCH_server.json");

  std::vector<uint32_t> client_counts;
  for (const std::string& s : SplitCsv(flags.GetString("clients", "2,8")))
    client_counts.push_back(static_cast<uint32_t>(std::atoll(s.c_str())));
  const uint32_t max_clients =
      *std::max_element(client_counts.begin(), client_counts.end());

  // --- engine: durable, padded fsync, telemetry on --------------------
  Check(workload::WipeDirectory(dir), "wipe");
  core::ShardedSvrEngineOptions eng_opt;
  eng_opt.num_shards = shards;
  eng_opt.num_query_threads = 2;
  eng_opt.shard.telemetry.enabled = true;
  eng_opt.durability.enabled = true;
  eng_opt.durability.dir = dir;
  eng_opt.durability.sync_mode = durability::SyncMode::kGroupCommit;
  eng_opt.durability.file_factory = LatencyFactory(sync_delay_us);
  workload::ConcurrentChurnConfig corpus;
  corpus.initial_docs = docs;
  corpus.vocab = vocab;
  corpus.terms_per_doc =
      static_cast<uint32_t>(flags.GetInt("terms", 20));
  corpus.seed = seed;
  std::printf("# loading %u docs across %u shards (durable, fsync "
              "padded to %llu us)...\n",
              docs, shards, static_cast<unsigned long long>(sync_delay_us));
  auto engine = CheckResult(
      workload::SetupShardedChurnEngine(eng_opt, corpus), "setup");
  Check(engine->Start(), "engine start");

  std::FILE* json = OpenBenchJson(out_path, "server");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"docs\": %u,\n"
               "  \"shards\": %u,\n  \"workers\": %u,\n"
               "  \"sync_delay_us\": %llu,\n  \"series\": [",
               docs, shards, workers,
               static_cast<unsigned long long>(sync_delay_us));
  bool first = true;

  // --- phase 1: server without admission (capacity phases) ------------
  server::ServerOptions srv_opt;
  srv_opt.num_workers = workers;
  srv_opt.admission.enabled = false;
  auto srv = CheckResult(SvrServer::Start(engine.get(), srv_opt),
                         "server start");

  std::printf("\n# write: closed-loop DML over the wire, group commit "
              "across connections\n\n");
  TablePrinter write_table({"clients", "ops", "wall ms", "ops/s"});
  double write_1 = 0, write_n = 0;
  for (const uint32_t clients : {1u, max_clients}) {
    const WriteResult r =
        RunWrite(srv->port(), clients, write_ops, docs, seed);
    (clients == 1 ? write_1 : write_n) = r.ops_per_sec;
    write_table.Row({std::to_string(clients), std::to_string(r.ops),
                     Ms(r.wall_ms), Num(r.ops_per_sec)});
    std::fprintf(json,
                 "%s\n    {\"kind\": \"write\", \"clients\": %u, "
                 "\"ops\": %llu, \"wall_ms\": %.2f, "
                 "\"ops_per_sec\": %.1f}",
                 first ? "" : ",", clients,
                 static_cast<unsigned long long>(r.ops), r.wall_ms,
                 r.ops_per_sec);
    first = false;
  }
  std::printf("\n# %u connections %.1fx over one connection "
              "(shared fsyncs)\n",
              max_clients, write_n / write_1);

  std::printf("\n# search: open loop at %.0f offered QPS\n\n",
              offered_qps);
  TablePrinter search_table({"clients", "offered", "sustained", "p50 us",
                             "p99 us", "p999 us"});
  for (const uint32_t clients : client_counts) {
    const SearchResult r = RunOpenLoopSearch(
        srv->port(), clients, offered_qps, search_requests, vocab, k,
        seed);
    search_table.Row({std::to_string(clients), Num(r.offered_qps),
                      Num(r.sustained_qps), std::to_string(r.p50_us),
                      std::to_string(r.p99_us),
                      std::to_string(r.p999_us)});
    std::fprintf(json,
                 ",\n    {\"kind\": \"search\", \"clients\": %u, "
                 "\"offered_qps\": %.1f, \"sustained_qps\": %.1f,\n"
                 "     \"completed\": %llu, \"p50_us\": %llu, "
                 "\"p99_us\": %llu, \"p999_us\": %llu}",
                 r.clients, r.offered_qps, r.sustained_qps,
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.p50_us),
                 static_cast<unsigned long long>(r.p99_us),
                 static_cast<unsigned long long>(r.p999_us));
  }

  // Capacity probe: closed loop at the base client count fixes what
  // "healthy" latency looks like; its p50 seeds the admission ceiling.
  const ClosedResult probe = RunClosedLoop(
      srv->port(), max_clients, probe_ops, vocab, k, seed + 1);
  srv->Stop();
  const uint64_t ceiling_us =
      std::max<uint64_t>(200, static_cast<uint64_t>(flags.GetInt(
                                  "max_p99_us", probe.p50_us * 2)));
  std::printf("\n# capacity probe: %u clients, p50 %llu us, p99 %llu us "
              "-> admission ceiling %llu us\n",
              max_clients,
              static_cast<unsigned long long>(probe.p50_us),
              static_cast<unsigned long long>(probe.p99_us),
              static_cast<unsigned long long>(ceiling_us));

  // --- phase 2: admission armed, 2x the probe's client count ----------
  server::ServerOptions over_opt;
  over_opt.num_workers = workers;
  over_opt.admission.enabled = true;
  over_opt.admission.max_p99_us = ceiling_us;
  over_opt.admission.min_window_count = 16;
  over_opt.admission.refresh_interval_ms = 10;
  // The windowed trigger reacts at refresh granularity; without a queue
  // bound, the burst admitted into each freshly-cleared window queues
  // 2x-overload deep and the admitted p99 tracks that depth instead of
  // the ceiling.
  over_opt.max_pending_requests = workers;
  auto over_srv = CheckResult(SvrServer::Start(engine.get(), over_opt),
                              "overload server start");
  const uint32_t over_clients = max_clients * 2;
  const ClosedResult over = RunClosedLoop(
      over_srv->port(), over_clients, probe_ops, vocab, k, seed + 2);
  over_srv->Stop();

  std::printf("\n# overload: %u clients closed loop, ceiling %llu us\n\n",
              over_clients, static_cast<unsigned long long>(ceiling_us));
  TablePrinter over_table({"clients", "sustained", "admitted", "rejected",
                           "adm p50 us", "adm p99 us"});
  over_table.Row({std::to_string(over_clients), Num(over.sustained_qps),
                  std::to_string(over.completed),
                  std::to_string(over.rejected),
                  std::to_string(over.p50_us),
                  std::to_string(over.p99_us)});
  std::fprintf(json,
               ",\n    {\"kind\": \"overload\", \"clients\": %u, "
               "\"p99_ceiling_us\": %llu,\n     \"sustained_qps\": %.1f, "
               "\"admitted\": %llu, \"rejected\": %llu,\n"
               "     \"admitted_p50_us\": %llu, \"admitted_p99_us\": %llu, "
               "\"probe_p50_us\": %llu, \"probe_p99_us\": %llu}",
               over_clients, static_cast<unsigned long long>(ceiling_us),
               over.sustained_qps,
               static_cast<unsigned long long>(over.completed),
               static_cast<unsigned long long>(over.rejected),
               static_cast<unsigned long long>(over.p50_us),
               static_cast<unsigned long long>(over.p99_us),
               static_cast<unsigned long long>(probe.p50_us),
               static_cast<unsigned long long>(probe.p99_us));

  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  engine->Stop();
  Check(workload::WipeDirectory(dir), "cleanup");
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf("# expectation: %u-client write throughput >= 2x one "
              "client; admission sheds under 2x overload while admitted "
              "p99 stays within 5x the ceiling\n",
              max_clients);
  return 0;
}
