// End-to-end benchmark of the SVR engine over the wire.
//
// A real SvrServer listens on loopback in front of a ShardedSvrEngine
// and is driven from this process by at most four client connections.
// Every workload uses svr_server's engine configuration (2 shards, 2
// query threads, 4 server workers, telemetry and admission control on,
// Chunk method, v2 codec, background merge with the auto-merge policy).
// search_evicting shrinks the list buffer pool; update_heavy adds a
// durable group-commit WAL with real fsync calls.
//
// Workloads (the seed drives the queries and the writes; the corpus is
// fixed):
//   search_cached    read-only; the list pool holds every long list.
//   search_evicting  the same, with a list pool far below the long lists.
//   update_heavy     the paper's update-intensive case: durable score
//                    updates (plus inserts, deletes and content updates)
//                    racing searches.
//
// Phases of one run (shares of --seconds):
//   read workloads:  A open-loop searches (4 conns)               0.20
//                    B closed-loop searches (4 conns)             0.45
//                    C open-loop writes (2 conns)                 0.10
//                    D pipelined writes (4 conns, 16 in flight)   0.25
//   update_heavy:    A open-loop writes (2) + searches (2)        0.25
//                    B closed-loop searches (2 conns, 4 in flight)
//                      + open-loop writes (2)                     0.45
//                    D pipelined writes (4 conns, 16 in flight)   0.30
// An untraced run sets up three engine instances one after another.
// The first runs A and its third of B; the others are served, warmed
// and run their third of B on the same queries (on update_heavy after
// the same phase A, so that every B starts from the same writes). The
// write phases C and D feed the traced run's per-layer figures and run
// only there, after the first instance's B.
// A closed-loop phase runs a fixed number of operations sized to take
// its share at the expected throughput, so every run does the same work.
// An in-process pass over every query of the stream precedes phase A.
// The read workloads write only after every read phase and its
// correctness check, so the read numbers see an idle write path.
//
// The bounded end-to-end figures come from phase B, where four searches
// are always in flight and the server's CPUs stay busy: on a shared VM,
// latency at low load follows how fast the hypervisor wakes an idle
// vCPU, and changed by up to 2x between runs of the same inputs. They
// are medians over the three instances. The open-loop phases print
// their latencies as diagnostics and feed the correctness gate and the
// traced run.
//
// Open-loop latency runs from the *scheduled* send (coordinated-omission
// corrected). The generator reports how late it ran on its own account
// (send time minus the later of schedule and the moment the connection
// was free again); a run in which more than 1% of the open-loop sends
// were delayed past their connection's send interval is invalid.
//
// Correctness: read workloads check every Nth wire answer against the
// brute-force oracle after the read phases (the data is static then).
// Every instance is checked.
// update_heavy re-runs every Nth query in-process at one pinned
// cross-shard view while the load runs: each shard's TopKAt must equal
// its oracle and the engine's gather must equal an independent sort of
// the oracle lists. Every workload ends with quiesced wire answers
// checked against the oracle and against the benchmark's shadow scores.
// A self-test feeds the gate one deliberately wrong expected list first.
//
// --trace 1 runs one instance through every phase and additionally, for
// one request in N, records a span around the wire call and replays the
// request in-process down the layer ladder (PinReadViewAll, ShardedSvrEngine::
// SearchAt with each shard's SvrEngine::SearchAt timed by the engine's
// own fan-out, then TextIndex::TopKAt per shard, TranslateToGlobal and
// MergeTopK), each rung a span under the same request id. Spans are kept
// in memory and written at exit. Phase A is split into an untraced and a
// traced half to report the overhead.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed (errors, sheds and missed sends) and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "core/oracle.h"
#include "core/sharded_engine.h"
#include "durability/wal_file.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/query_trace.h"
#include "workload/crash_driver.h"  // WipeDirectory
#include "workload/query_workload.h"
#include "workload/score_generator.h"
#include "workload/update_workload.h"

namespace {

using namespace svr;
using Clock = std::chrono::steady_clock;
using relational::Value;

constexpr uint32_t kTopK = 20;
constexpr uint32_t kConnections = 4;
constexpr uint32_t kWriteSlices = 16;
constexpr uint32_t kLoaders = 8;
constexpr double kMaxScore = 100000.0;
constexpr double kScoreZipf = 0.75;
// An open-loop send is behind when the generator's own delay before it
// exceeds its connection's send interval: the next send was due before
// this one left. A run with more than this share of its open-loop sends
// behind is invalid. (A bound relative to the schedule rather than in
// absolute time: a thread that merely sleeps on an idle 4-vCPU VM wakes
// with a p99 delay of 3-5 ms, which says nothing about whether the
// generator kept its rate.)
constexpr double kGeneratorBehindLimit = 0.01;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

long MinorFaults() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// CPU time of every thread of the process (user and system), in seconds.
// Time the hypervisor gives to other guests is not in it.
double ProcessCpuS() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- configuration -------------------------------------------------------

enum class Workload { kSearchCached, kSearchEvicting, kUpdateHeavy };

struct Scale {
  uint32_t docs;
  uint32_t terms_per_doc;
  uint32_t vocab;
  double read_search_qps;   // read workloads, phase A: 4 conns
  double read_write_ops;    // read workloads, phase C: 2 conns
  double heavy_search_qps;  // update_heavy, phase A: 2 conns
  double heavy_write_ops;   // update_heavy, phases A and B: 2 conns
  // Expected closed-loop throughputs. A closed-loop phase runs a fixed
  // number of operations, sized from these to take its share of
  // --seconds, so every run does the same work and ends in the same state.
  double closed_search_qps;
  double closed_write_ops;
  uint32_t queries;         // distinct queries, warmed and then cycled
  uint32_t validate_every;
  uint32_t trace_every;
  double warmup_s;
};

// Paper-scale corpus: bench_common.h's laptop defaults (30k docs, 150
// terms/doc, 30k vocabulary, term Zipf 1.0). Every open-loop rate sits
// at a fifth to a quarter of the lowest closed-loop capacity measured on
// a 4-vCPU VM (searches 450-900/s, in-memory writes 1500-4800/s, durable
// writes 1200-4000/s), so its latency stays close to the service time
// when the host slows down instead of climbing the queueing curve.
constexpr Scale kPaperScale = {30000, 150, 30000, 120.0, 300.0, 100.0, 240.0,
                               650.0, 3500.0, 2048, 16, 16, 0.5};
// Smoke-test scale: every phase and metric, in a couple of seconds.
constexpr Scale kTinyScale = {1500, 30, 2000, 400.0, 300.0, 200.0, 150.0,
                              3000.0, 3000.0, 256, 8, 4, 0.2};

// Engine instances per untraced run. Each is set up, served, warmed and
// measured by its own part of phase B; setup_s, search_p50_us and
// search_max_qps are medians over them. (Two instances of the same
// inputs in one process differed in search throughput by as much as two
// runs did, so one instance per run measured the instance.)
constexpr int kSetups = 3;
// Phase B's share of --seconds, over all instances.
constexpr double kSearchCapacityShare = 0.45;
// search_evicting's list pool in pages over all shards (1 MiB).
constexpr uint32_t kEvictingListPages = 256;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kSearchCached;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = kPaperScale;
  std::string scale_name = "paper";
  std::string work_dir = ".bench_build/run";
  std::string source_id = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("bad argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0) Die("arguments come in --key value pairs");
  auto get = [&](const char* k, const std::string& def) {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  };
  a.workload_name = get("workload", "");
  if (a.workload_name == "search_cached") {
    a.workload = Workload::kSearchCached;
  } else if (a.workload_name == "search_evicting") {
    a.workload = Workload::kSearchEvicting;
  } else if (a.workload_name == "update_heavy") {
    a.workload = Workload::kUpdateHeavy;
  } else {
    Die("unknown --workload '" + a.workload_name + "'");
  }
  a.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  a.seconds = std::atof(get("seconds", "10").c_str());
  if (!(a.seconds > 0.0)) Die("--seconds must be positive");
  a.trace = get("trace", "0") == "1";
  a.scale_name = get("scale", "paper");
  if (a.scale_name == "tiny") {
    a.scale = kTinyScale;
  } else if (a.scale_name != "paper") {
    Die("unknown --scale '" + a.scale_name + "'");
  }
  a.work_dir = get("work-dir", a.work_dir);
  a.source_id = get("source-id", a.source_id);
  return a;
}

// --- durability: a counting WAL file ------------------------------------

// Counts what the engine asks of its durable files. Wraps the real POSIX
// file and always performs the real Sync.
struct WalCounters {
  std::atomic<uint64_t> segments_opened{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::mutex mu;
  std::vector<double> sync_us;  // guarded by mu

  struct Snapshot {
    uint64_t segments_opened, bytes, syncs;
    size_t sync_samples;
  };
  Snapshot Take() {
    std::lock_guard<std::mutex> lock(mu);
    return {segments_opened.load(), bytes.load(),
            syncs.load(), sync_us.size()};
  }
  std::vector<double> SyncsSince(const Snapshot& s) {
    std::lock_guard<std::mutex> lock(mu);
    return std::vector<double>(sync_us.begin() + s.sync_samples,
                               sync_us.end());
  }
};

class CountingWalFile : public durability::WalFile {
 public:
  CountingWalFile(std::unique_ptr<durability::WalFile> base,
                  WalCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  Status Append(const Slice& data) override {
    counters_->bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Sync() override {
    const auto t0 = Clock::now();
    Status st = base_->Sync();
    const double us = Us(t0, Clock::now());
    std::lock_guard<std::mutex> lock(counters_->mu);
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    counters_->sync_us.push_back(us);
    return st;
  }
  Status Close() override { return base_->Close(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<durability::WalFile> base_;
  WalCounters* counters_;
};

durability::WalFileFactory CountingFactory(WalCounters* counters) {
  return [counters](const std::string& path,
                    std::unique_ptr<durability::WalFile>* out) {
    std::unique_ptr<durability::WalFile> base;
    SVR_RETURN_NOT_OK(durability::OpenPosixWalFile(path, &base));
    const size_t slash = path.find_last_of('/');
    const std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (name.rfind("wal-", 0) == 0) counters->segments_opened.fetch_add(1);
    *out = std::make_unique<CountingWalFile>(std::move(base), counters);
    return Status::OK();
  };
}

// --- engine set-up --------------------------------------------------------

core::ShardedSvrEngineOptions EngineOptions(const Args& args,
                                            const std::string& wal_dir,
                                            WalCounters* counters) {
  core::ShardedSvrEngineOptions o;
  o.num_shards = 2;
  o.num_query_threads = 2;
  o.shard.telemetry.enabled = true;
  o.shard.method = index::Method::kChunk;
  o.shard.posting_format = PostingFormat::kV2;
  o.shard.background_merge = true;
  o.shard.merge_policy.enabled = true;
  if (args.workload == Workload::kSearchEvicting) {
    o.shard.list_pool_pages = kEvictingListPages;
  }
  // Durability is update_heavy's: svr_server runs without a WAL unless
  // given a directory, and the read workloads keep that default.
  o.durability.enabled = args.workload == Workload::kUpdateHeavy;
  o.durability.dir = wal_dir;
  o.durability.sync_mode = durability::SyncMode::kGroupCommit;
  // No background checkpoints: at this corpus size one checkpoint
  // stalls writers for ~200 ms and admission control sheds the requests
  // queued behind it, so no rate would run without sheds.
  o.durability.checkpoint_interval_statements = 0;
  o.durability.file_factory = CountingFactory(counters);
  return o;
}

// The corpus as inputs: document texts and initial scores, drawn exactly
// as workload::SetupShardedChurnEngine draws them. The corpus is the
// benchmark's fixed data set, drawn from kCorpusSeed; --seed drives the
// queries and the writes. Corpora drawn from different seeds differed by
// up to 25% in closed-loop CPU per search, so with a per-seed corpus the
// spread over seeds measured the draw of the data, not the code.
constexpr uint64_t kCorpusSeed = 1;

struct Corpus {
  std::vector<std::string> texts;
  std::vector<double> scores;
};

std::string MakeDocText(const ZipfDistribution& terms, uint32_t n,
                        Random* rng) {
  std::string text;
  for (uint32_t i = 0; i < n; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += "t" + std::to_string(terms.Sample(rng));
  }
  return text;
}

Corpus MakeCorpus(const Args& args) {
  Corpus c;
  Random rng(kCorpusSeed);
  ZipfDistribution terms(args.scale.vocab, 1.0);
  c.texts.reserve(args.scale.docs);
  for (uint32_t d = 0; d < args.scale.docs; ++d) {
    c.texts.push_back(MakeDocText(terms, args.scale.terms_per_doc, &rng));
  }
  c.scores = workload::GenerateScores(args.scale.docs, kMaxScore, kScoreZipf,
                                      kCorpusSeed);
  return c;
}

struct Engine {
  std::unique_ptr<core::ShardedSvrEngine> engine;
  double setup_s = 0.0;
};

// Engine open, corpus load through public DML, and index build. The
// load runs on kLoaders threads so durable inserts share group commits;
// initial scores are distinct, so the per-shard insert order does not
// affect any answer.
Engine SetUp(const Args& args, const Corpus& corpus,
             const std::string& wal_dir, WalCounters* counters) {
  using relational::Schema;
  using relational::ValueType;
  Check(workload::WipeDirectory(wal_dir), "wipe WAL directory");
  Engine e;
  const auto t0 = Clock::now();
  e.engine = CheckResult(core::ShardedSvrEngine::Open(
                             EngineOptions(args, wal_dir, counters)),
                         "engine open");
  core::ShardedSvrEngine* engine = e.engine.get();
  Check(engine->CreateTable(
            "docs", Schema({{"id", ValueType::kInt64},
                            {"text", ValueType::kString}},
                           0)),
        "create docs");
  Check(engine->CreateTable(
            "scores", Schema({{"id", ValueType::kInt64},
                              {"val", ValueType::kDouble}},
                             0)),
        "create scores");
  std::vector<std::thread> loaders;
  for (uint32_t t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      for (size_t d = t; d < corpus.texts.size(); d += kLoaders) {
        const auto id = static_cast<int64_t>(d);
        Check(engine->Insert("docs", {Value::Int(id),
                                      Value::String(corpus.texts[d])}),
              "load docs");
        Check(engine->Insert("scores", {Value::Int(id),
                                        Value::Double(corpus.scores[d])}),
              "load scores");
      }
    });
  }
  for (auto& t : loaders) t.join();
  Check(engine->CreateTextIndex(
            "docs", "text",
            {{"S1", "scores", "id", "val", relational::AggregateKind::kValue}},
            relational::AggFunction::WeightedSum({1.0})),
        "create text index");
  Check(engine->Start(), "engine start");
  e.setup_s = Us(t0, Clock::now()) / 1e6;
  return e;
}

// The §5.1 query stream: 2 keywords, conjunctive, all three selectivity
// classes in rotation, spelled as the `t<id>` keyword strings the wire
// takes. Term frequencies come from shard 0's half of the corpus.
std::vector<std::string> MakeQueries(core::ShardedSvrEngine* engine,
                                     const Args& args, size_t n) {
  workload::ExperimentConfig cfg;
  cfg.corpus.vocab_size = args.scale.vocab;
  cfg.query_terms = 2;
  cfg.top_k = kTopK;
  cfg.conjunctive = true;
  cfg.seed = args.seed;
  core::SvrEngine* s0 = engine->shard(0);
  workload::QueryWorkload stream(cfg, *s0->corpus());
  const workload::QueryClass classes[] = {workload::QueryClass::kUnselective,
                                          workload::QueryClass::kMedium,
                                          workload::QueryClass::kSelective};
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const index::Query q = stream.Next(classes[i % 3]);
    std::string kw;
    for (TermId t : q.terms) {
      if (!kw.empty()) kw.push_back(' ');
      kw += s0->vocabulary()->term(t);
    }
    out.push_back(std::move(kw));
  }
  return out;
}

// --- write stream ---------------------------------------------------------

struct WriteOp {
  enum Kind { kScore, kInsert, kDelete, kContent } kind = kScore;
  int64_t gid = 0;
  double score = 0.0;
  std::string text;
};

// One slice of the documents (ids congruent to `slice` mod kWriteSlices,
// plus the ones it inserts) with its shadow scores. A slice is driven by
// one connection at a time, so its state needs no lock. Score updates
// follow workload::UpdateWorkload (§5.1); 10/2/5% of writes are inserts,
// deletes and content updates.
class WriteSlice {
 public:
  WriteSlice(uint32_t slice, const Args& args,
             const std::vector<double>& initial_scores)
      : terms_per_doc_(args.scale.terms_per_doc),
        terms_(args.scale.vocab, 1.0),
        rng_(args.seed * 0x9E3779B97F4A7C15ull + 0x51CE + slice),
        updates_(UpdateConfig(args, slice), initial_scores),
        next_insert_(FirstInsertId(initial_scores.size()) + slice) {
    for (size_t d = slice; d < initial_scores.size(); d += kWriteSlices) {
      Add(static_cast<int64_t>(d), initial_scores[d]);
    }
  }

  WriteOp Next() {
    WriteOp op;
    const double roll = rng_.NextDouble() * 100.0;
    if (roll < 10.0) {
      op.kind = WriteOp::kInsert;
      op.gid = next_insert_;
      next_insert_ += kWriteSlices;
      op.text = MakeDocText(terms_, terms_per_doc_, &rng_);
      op.score = kMaxScore /
                 std::pow(1.0 + rng_.UniformDouble(0.0, 1000.0), kScoreZipf);
      return op;
    }
    if (roll < 17.0) {
      op.kind = roll < 12.0 ? WriteOp::kDelete : WriteOp::kContent;
      op.gid = ids_[RandomLive()];
      if (op.kind == WriteOp::kContent) {
        op.text = MakeDocText(terms_, terms_per_doc_, &rng_);
      }
      return op;
    }
    op.kind = WriteOp::kScore;
    size_t pos = SIZE_MAX;
    double delta = 0.0;
    for (int tries = 0; tries < 64 && pos == SIZE_MAX; ++tries) {
      const workload::ScoreUpdate u = updates_.Next();
      auto it = pos_.find(static_cast<int64_t>(u.doc));
      if (it != pos_.end() && alive_[it->second] &&
          !std::isnan(score_[it->second])) {
        pos = it->second;
        delta = u.delta;
      }
    }
    if (pos == SIZE_MAX) {
      pos = RandomLive();
      delta = rng_.UniformDouble(-100.0, 100.0);
    }
    op.gid = ids_[pos];
    op.score = std::max(0.0, score_[pos] + delta);
    return op;
  }

  // Applies a finished op to the shadow state. `first_ok` reports
  // whether an insert's docs row landed when the op as a whole failed.
  void Commit(const WriteOp& op, bool ok, bool first_ok) {
    switch (op.kind) {
      case WriteOp::kInsert:
        if (ok) {
          Add(op.gid, op.score);
        } else if (first_ok) {
          Add(op.gid, std::nan(""));  // row without a known score
        }
        break;
      case WriteOp::kDelete:
        if (ok) alive_[pos_.at(op.gid)] = false;
        break;
      case WriteOp::kScore:
        if (ok) score_[pos_.at(op.gid)] = op.score;
        break;
      case WriteOp::kContent:
        break;
    }
  }

  // Shadow score of a live document this slice owns; false otherwise.
  bool Shadow(int64_t gid, double* score) const {
    auto it = pos_.find(gid);
    if (it == pos_.end() || !alive_[it->second]) return false;
    *score = score_[it->second];
    return true;
  }

 private:
  static workload::ExperimentConfig UpdateConfig(const Args& args,
                                                 uint32_t slice) {
    workload::ExperimentConfig c;
    c.mean_update_step = 100.0;
    c.update_zipf = 0.75;
    c.focus_set_pct = 1.0;
    c.focus_update_pct = 20.0;
    c.seed = args.seed * 31 + slice;
    return c;
  }

  // Inserted ids start at the first multiple of kWriteSlices past the
  // corpus, so an id's slice is always id mod kWriteSlices.
  static int64_t FirstInsertId(size_t docs) {
    return static_cast<int64_t>((docs + kWriteSlices - 1) / kWriteSlices *
                                kWriteSlices);
  }

  void Add(int64_t gid, double score) {
    pos_[gid] = ids_.size();
    ids_.push_back(gid);
    score_.push_back(score);
    alive_.push_back(true);
  }

  size_t RandomLive() {
    for (;;) {
      const size_t i = rng_.Uniform(ids_.size());
      if (alive_[i] && !std::isnan(score_[i])) return i;
    }
  }

  const uint32_t terms_per_doc_;
  ZipfDistribution terms_;
  Random rng_;
  workload::UpdateWorkload updates_;
  int64_t next_insert_;
  std::vector<int64_t> ids_;
  std::vector<double> score_;
  std::vector<bool> alive_;
  std::unordered_map<int64_t, size_t> pos_;
};

// --- correctness gate -----------------------------------------------------

std::vector<std::string> SplitWords(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

// Per-shard query with shard-local term ids; false when some keyword is
// unknown to the shard (no document there can match a conjunction).
bool ShardQuery(core::SvrEngine* shard, const std::vector<std::string>& words,
                index::Query* q) {
  q->conjunctive = true;
  q->terms.clear();
  for (const std::string& w : words) {
    const TermId t = shard->vocabulary()->Lookup(w);
    if (t == text::Vocabulary::kUnknownTerm) return false;
    if (std::find(q->terms.begin(), q->terms.end(), t) == q->terms.end()) {
      q->terms.push_back(t);
    }
  }
  return !q->terms.empty();
}

// Each shard's brute-force top-k at `view` (shard-local ids) and, when
// `index_lists` is non-null, each shard's TextIndex::TopKAt answer.
Status ShardAnswers(core::ShardedSvrEngine* engine,
                    const core::ShardedReadView& view,
                    const std::string& keywords,
                    std::vector<std::vector<index::SearchResult>>* oracle,
                    std::vector<std::vector<index::SearchResult>>* index_lists) {
  const uint32_t n = engine->num_shards();
  const std::vector<std::string> words = SplitWords(keywords);
  oracle->assign(n, {});
  if (index_lists != nullptr) index_lists->assign(n, {});
  for (uint32_t s = 0; s < n; ++s) {
    core::SvrEngine* shard = engine->shard(s);
    index::Query q;
    if (!view.shards[s].indexed() || !ShardQuery(shard, words, &q)) continue;
    const index::IndexSnapshot& snap = view.shards[s].state->index;
    SVR_RETURN_NOT_OK(core::BruteForceOracle::TopKAt(
        snap.corpus,
        relational::ScoreTable::View(shard->score_table(), snap.score), q,
        kTopK, /*with_term_scores=*/false, &(*oracle)[s]));
    if (index_lists != nullptr) {
      SVR_RETURN_NOT_OK(shard->text_index()->TopKAt(snap, q, kTopK,
                                                    &(*index_lists)[s]));
    }
  }
  return Status::OK();
}

// The reference merge: a plain sort on (score desc, global id asc),
// independent of the engine's gather.
std::vector<index::SearchResult> SortMerge(
    const std::vector<std::vector<index::SearchResult>>& global_lists) {
  std::vector<index::SearchResult> out;
  for (const auto& list : global_lists) {
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end(),
            [](const index::SearchResult& a, const index::SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (out.size() > kTopK) out.resize(kTopK);
  return out;
}

// Brute-force global answer at `view`. Translates on its own, so use it
// only while no fresh keys are being inserted.
Status OracleAnswer(core::ShardedSvrEngine* engine,
                    const core::ShardedReadView& view,
                    const std::string& keywords,
                    std::vector<index::SearchResult>* want) {
  std::vector<std::vector<index::SearchResult>> oracle;
  SVR_RETURN_NOT_OK(ShardAnswers(engine, view, keywords, &oracle, nullptr));
  *want = SortMerge(engine->TranslateToGlobal(oracle));
  return Status::OK();
}

// The gate's verdict: the same documents with bit-identical scores in
// the same order. Every check and the self-test go through it.
bool Matches(const std::vector<index::SearchResult>& got,
             const std::vector<index::SearchResult>& want) {
  return got == want;
}

std::vector<index::SearchResult> AsResults(
    const std::vector<core::ScoredRow>& rows) {
  std::vector<index::SearchResult> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    out.push_back({static_cast<DocId>(r.pk), r.score});
  }
  return out;
}

// In-process check of one query at one pinned view while writers run:
// each shard's TopKAt must equal its BruteForceOracle::TopKAt, and the
// engine's gather merge of the index lists must equal the independent
// sort of the oracle lists. Both sides are translated to global ids in
// one TranslateToGlobal call, so a concurrent fresh-key publish cannot
// land between two translations and skew one side.
Status ValidateAtView(core::ShardedSvrEngine* engine,
                      const std::string& keywords, bool* ok) {
  const core::ShardedReadView view = engine->PinReadViewAll();
  std::vector<std::vector<index::SearchResult>> oracle, got;
  SVR_RETURN_NOT_OK(ShardAnswers(engine, view, keywords, &oracle, &got));
  *ok = true;
  for (uint32_t s = 0; s < got.size(); ++s) *ok = *ok && Matches(got[s], oracle[s]);
  const uint32_t n = engine->num_shards();
  std::vector<std::vector<index::SearchResult>> both = got;
  both.insert(both.end(), oracle.begin(), oracle.end());
  std::vector<uint32_t> shard_of(both.size());
  for (uint32_t i = 0; i < both.size(); ++i) shard_of[i] = i % n;
  both = engine->TranslateToGlobal(both, shard_of);
  const std::vector<std::vector<index::SearchResult>> got_global(
      both.begin(), both.begin() + n);
  const std::vector<std::vector<index::SearchResult>> oracle_global(
      both.begin() + n, both.end());
  *ok = *ok && Matches(core::ShardedSvrEngine::MergeTopK(got_global, kTopK),
                       SortMerge(oracle_global));
  return Status::OK();
}

// --- tracing --------------------------------------------------------------

struct Span {
  uint64_t request;
  const char* name;
  const char* parent;
  double start_us;  // since the run's epoch
  double dur_us;
};

struct LayerSamples {
  std::vector<double> ping_us;
  std::vector<double> search_at_us, pin_all_us;
  std::vector<double> shard_search_us, shard_skew, topk_us, pin_us;
  std::vector<double> gather_us, translate_us;
  std::vector<double> write_call_us;
  // Per request: wire RTT minus the in-process call it was replayed as.
  std::vector<double> search_self_us, write_self_us;
  std::vector<double> postings, blocks, seeks, galloped;
  double results = 0, candidates = 0;
  std::vector<Span> spans;

  void Merge(const LayerSamples& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&ping_us, o.ping_us);
    cat(&search_at_us, o.search_at_us);
    cat(&pin_all_us, o.pin_all_us);
    cat(&shard_search_us, o.shard_search_us);
    cat(&shard_skew, o.shard_skew);
    cat(&topk_us, o.topk_us);
    cat(&pin_us, o.pin_us);
    cat(&gather_us, o.gather_us);
    cat(&translate_us, o.translate_us);
    cat(&write_call_us, o.write_call_us);
    cat(&search_self_us, o.search_self_us);
    cat(&write_self_us, o.write_self_us);
    cat(&postings, o.postings);
    cat(&blocks, o.blocks);
    cat(&seeks, o.seeks);
    cat(&galloped, o.galloped);
    results += o.results;
    candidates += o.candidates;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

std::atomic<uint64_t> g_next_request{1};
Clock::time_point g_epoch;

// Times `fn` as a span named `name` under `parent`; returns microseconds.
template <typename Fn>
double Timed(LayerSamples* ls, uint64_t req, const char* name,
             const char* parent, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  const double us = Us(t0, t1);
  ls->spans.push_back({req, name, parent, Us(g_epoch, t0), us});
  return us;
}

// Replays one wire search in-process down the layer ladder. The replay
// runs on the main thread after the wire call; its spans share the
// request id of the wire span, and a span's parent is only ever a span
// that encloses it in time.
void ReplaySearch(core::ShardedSvrEngine* engine, const std::string& kw,
                  uint64_t req, LayerSamples* ls) {
  core::ShardedReadView view;
  ls->pin_all_us.push_back(Timed(ls, req, "core.pin_all", "",
                                 [&] { view = engine->PinReadViewAll(); }));
  // The engine's own scatter-gather. Its trace times each shard's
  // SvrEngine::SearchAt inside the parallel fan-out; the trace holds
  // durations only, so each shard span starts with its parent.
  telemetry::QueryTrace trace;
  ls->search_at_us.push_back(Timed(ls, req, "core.search_at", "", [&] {
    Check(engine->SearchAt(view, kw, kTopK, true, &trace).status(),
          "SearchAt");
  }));
  const double search_at_start = ls->spans.back().start_us;
  double sum = 0, mx = 0;
  for (const telemetry::ShardSpan& sp : trace.shards) {
    const double us = static_cast<double>(sp.latency_us);
    ls->spans.push_back(
        {req, "core.shard_search_at", "core.search_at", search_at_start, us});
    ls->shard_search_us.push_back(us);
    sum += us;
    mx = std::max(mx, us);
  }
  if (sum > 0) ls->shard_skew.push_back(mx / (sum / trace.shards.size()));

  // The index rung and the gather, replayed one shard after another
  // inside one enclosing span: TopKAt on each shard's pinned snapshot
  // (with its QueryStats), then TranslateToGlobal and MergeTopK.
  const uint32_t n = engine->num_shards();
  const std::vector<std::string> words = SplitWords(kw);
  Timed(ls, req, "replay.gather", "", [&] {
    std::vector<std::vector<index::SearchResult>> hits(n);
    for (uint32_t s = 0; s < n; ++s) {
      core::SvrEngine* shard = engine->shard(s);
      index::Query q;
      if (!view.shards[s].indexed() || !ShardQuery(shard, words, &q)) continue;
      index::QueryStats qs;
      ls->topk_us.push_back(
          Timed(ls, req, "index.topk_at", "replay.gather", [&] {
            Check(shard->text_index()->TopKAt(view.shards[s].state->index, q,
                                              kTopK, &hits[s], &qs),
                  "TopKAt");
          }));
      ls->postings.push_back(static_cast<double>(qs.postings_scanned));
      ls->blocks.push_back(static_cast<double>(qs.blocks_decoded));
      ls->seeks.push_back(static_cast<double>(qs.cursor_seeks));
      ls->galloped.push_back(static_cast<double>(qs.groups_galloped));
      ls->results += static_cast<double>(hits[s].size());
      ls->candidates += static_cast<double>(qs.candidates_considered);
    }
    std::vector<std::vector<index::SearchResult>> global;
    ls->translate_us.push_back(
        Timed(ls, req, "core.translate_to_global", "replay.gather",
              [&] { global = engine->TranslateToGlobal(hits); }));
    ls->gather_us.push_back(
        Timed(ls, req, "core.merge_topk", "replay.gather", [&] {
          const auto merged = core::ShardedSvrEngine::MergeTopK(global, kTopK);
          if (merged.size() > kTopK) Die("MergeTopK returned more than k");
        }));
  });
  for (uint32_t s = 0; s < n; ++s) {
    ls->pin_us.push_back(
        Timed(ls, req, "concurrency.pin_read_view", "",
              [&] { core::SvrEngine::ReadView v = engine->shard(s)->PinReadView(); }));
  }
}

// --- phases ---------------------------------------------------------------

enum class Loop { kOpen, kClosed };
enum class OpType { kSearch, kWrite };

struct ConnPlan {
  Loop loop;
  OpType op;
  double rate = 0.0;             // ops/s of this connection (open loop)
  std::vector<uint32_t> slices;  // write slices this connection drives
  // Closed loop: requests kept in flight on the connection. A pipelined
  // write connection runs one lane per slice, each lane sequential.
  uint32_t depth = 1;
};

struct ConnResult {
  OpType op = OpType::kSearch;
  Loop loop = Loop::kOpen;
  std::vector<double> lat_us;   // from scheduled send (open) or send
  std::vector<double> done_s;   // completion time since the phase start
  std::vector<double> late_us;  // generator's own send delay (open)
  uint64_t behind = 0;          // open-loop sends delayed past an interval
  uint64_t attempted = 0, ok = 0, failed = 0, shed = 0, missed = 0;
  double active_s = 0.0;  // phase start to this connection's last reply
  std::vector<std::pair<size_t, std::vector<index::SearchResult>>> samples;
  LayerSamples layers;
};

struct PhaseResult {
  std::string name;
  double seconds = 0.0;
  double cpu_s = 0.0;  // CPU time of the whole process over the phase
  long minor_faults = 0;
  std::vector<ConnResult> conns;

  std::vector<double> Latencies(OpType op) const {
    std::vector<double> out;
    for (const auto& c : conns) {
      if (c.op == op) out.insert(out.end(), c.lat_us.begin(), c.lat_us.end());
    }
    return out;
  }
  // Percentile `pct` of the latencies completing in each of `windows`
  // equal slices of the phase, one value per slice.
  std::vector<double> WindowPercentiles(OpType op, double pct,
                                        int windows) const {
    std::vector<std::vector<double>> w(windows);
    for (const auto& c : conns) {
      if (c.op != op) continue;
      for (size_t i = 0; i < c.lat_us.size(); ++i) {
        const int k = std::min(windows - 1,
                               static_cast<int>(c.done_s[i] / seconds * windows));
        w[k].push_back(c.lat_us[i]);
      }
    }
    std::vector<double> out;
    for (const auto& v : w) out.push_back(Percentile(v, pct));
    return out;
  }
  // Completions per second in each of `windows` equal slices.
  std::vector<double> WindowRates(OpType op, int windows) const {
    std::vector<double> n(windows, 0.0);
    for (const auto& c : conns) {
      if (c.op != op) continue;
      for (double t : c.done_s) {
        n[std::min(windows - 1, static_cast<int>(t / seconds * windows))] += 1;
      }
    }
    for (double& x : n) x /= seconds / windows;
    return n;
  }
  uint64_t Completed(OpType op) const {
    uint64_t n = 0;
    for (const auto& c : conns) n += c.op == op ? c.ok : 0;
    return n;
  }
};

// Shared state of one run.
struct Bench {
  Args args;
  core::ShardedSvrEngine* engine = nullptr;
  uint16_t port = 0;
  std::vector<std::string> queries;
  std::vector<std::unique_ptr<WriteSlice>> slices;
  size_t query_cursor = 0;  // advanced per phase so phases see new queries

  // Work the main thread does off the clients' schedules: the
  // in-process gate (update_heavy) and the traced replays.
  std::mutex task_mu;
  std::deque<std::function<void()>> tasks;  // guarded by task_mu
  uint64_t tasks_dropped = 0;               // guarded by task_mu
  uint64_t validated = 0;
  uint64_t mismatches = 0;
  LayerSamples replays;
  uint64_t reclaim_pending_max = 0;  // sampled by the main thread

  void Offer(std::function<void()> fn) {
    std::lock_guard<std::mutex> lock(task_mu);
    if (tasks.size() < 256) {
      tasks.push_back(std::move(fn));
    } else {
      ++tasks_dropped;
    }
  }
  bool RunOneTask() {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(task_mu);
      if (tasks.empty()) return false;
      fn = std::move(tasks.front());
      tasks.pop_front();
    }
    fn();
    return true;
  }
};

void ValidateTask(Bench* b, const std::string& kw) {
  bool ok = false;
  Check(ValidateAtView(b->engine, kw, &ok), "in-process gate");
  ++b->validated;
  if (!ok) {
    ++b->mismatches;
    std::fprintf(stderr, "perfbench: gate mismatch at a pinned view: %s\n",
                 kw.c_str());
  }
}

struct Outcome {
  bool ok = false;
  bool shed = false;
  bool first_ok = false;
};

Outcome ClassifyStatus(const Status& st) {
  Outcome o;
  o.ok = st.ok();
  o.shed = st.IsOverloaded();
  if (!st.ok() && !o.shed) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n",
                 st.ToString().c_str());
  }
  return o;
}

// The wire requests of one write: an insert is two statements, the docs
// row and then its score.
server::Request WriteRequest(const WriteOp& op, int stage) {
  server::Request req;
  switch (op.kind) {
    case WriteOp::kInsert:
      req.type = server::MessageType::kInsert;
      req.table = stage == 0 ? "docs" : "scores";
      req.row = stage == 0 ? relational::Row{Value::Int(op.gid),
                                             Value::String(op.text)}
                           : relational::Row{Value::Int(op.gid),
                                             Value::Double(op.score)};
      break;
    case WriteOp::kDelete:
      req.type = server::MessageType::kDelete;
      req.table = "docs";
      req.pk = op.gid;
      break;
    case WriteOp::kContent:
      req.type = server::MessageType::kUpdate;
      req.table = "docs";
      req.row = {Value::Int(op.gid), Value::String(op.text)};
      break;
    case WriteOp::kScore:
      req.type = server::MessageType::kUpdate;
      req.table = "scores";
      req.row = {Value::Int(op.gid), Value::Double(op.score)};
      break;
  }
  return req;
}

// One write over a blocking connection.
Outcome ApplyWrite(server::SvrClient* c, const WriteOp& op) {
  auto call = [&](int stage) {
    auto r = c->Call(WriteRequest(op, stage));
    return ClassifyStatus(r.ok() ? r.value().ToStatus() : r.status());
  };
  Outcome first = call(0);
  if (op.kind != WriteOp::kInsert || !first.ok) return first;
  Outcome o = call(1);
  o.first_ok = true;
  return o;
}

// One closed-loop connection that keeps plan.depth requests in flight
// (the protocol correlates pipelined replies by request id). Searches
// take the next query of the stream; writes run one lane per slice, so
// no two requests in flight touch the same document and every slice's
// shadow state sees its writes in order. Each new operation claims one
// of the phase's `limit` operations from `claimed`.
void PipelinedConn(Bench* b, server::SvrClient* client, const ConnPlan& plan,
                   size_t ci, size_t nconns, size_t cursor, bool keep_samples,
                   Clock::time_point t0, Clock::time_point end,
                   std::atomic<uint64_t>* claimed, uint64_t limit,
                   ConnResult* r) {
  struct Lane {
    bool busy = false;
    uint64_t id = 0;
    Clock::time_point send;
    size_t qi = 0;
    WriteOp op;
    int stage = 0;
    WriteSlice* slice = nullptr;
  };
  const bool search = plan.op == OpType::kSearch;
  const size_t nq = b->queries.size();
  const bool gate_in_process = b->args.workload == Workload::kUpdateHeavy;
  std::vector<Lane> lanes(search ? plan.depth : plan.slices.size());
  uint64_t next_id = 1, issued = 0;
  std::string frame, payload;
  auto send = [&](Lane& l, server::Request req) {
    req.request_id = l.id = next_id++;
    payload.clear();
    server::EncodeRequest(req, &payload);
    server::AppendMessage(&frame, payload);
  };
  // Starts the lane's next operation; false when the phase has no more.
  auto start = [&](size_t li) {
    Lane& l = lanes[li];
    if (Clock::now() >= end || claimed->fetch_add(1) >= limit) return false;
    ++r->attempted;
    l.busy = true;
    l.send = Clock::now();
    if (search) {
      l.qi = (cursor + ci + nconns * issued++) % nq;
      server::Request req;
      req.type = server::MessageType::kSearch;
      req.keywords = b->queries[l.qi];
      req.k = kTopK;
      req.conjunctive = true;
      send(l, std::move(req));
    } else {
      l.slice = b->slices[plan.slices[li]].get();
      l.op = l.slice->Next();
      l.stage = 0;
      send(l, WriteRequest(l.op, 0));
    }
    return true;
  };
  size_t busy = 0;
  for (size_t li = 0; li < lanes.size(); ++li) busy += start(li) ? 1 : 0;
  while (busy > 0) {
    if (!frame.empty()) {
      Check(client->SendRaw(frame), "send");
      frame.clear();
    }
    server::Response resp = CheckResult(client->ReadResponse(), "reply");
    size_t li = 0;
    while (li < lanes.size() &&
           !(lanes[li].busy && lanes[li].id == resp.request_id)) {
      ++li;
    }
    if (li == lanes.size()) Die("reply to no request in flight");
    Lane& l = lanes[li];
    const Outcome o = ClassifyStatus(resp.ToStatus());
    if (!search && o.ok && l.op.kind == WriteOp::kInsert && l.stage == 0) {
      l.stage = 1;
      send(l, WriteRequest(l.op, 1));
      continue;
    }
    const auto done = Clock::now();
    if (search && o.ok) {
      r->lat_us.push_back(Us(l.send, done));
      r->done_s.push_back(Us(t0, done) / 1e6);
      if ((r->ok + 1) % b->args.scale.validate_every == 0) {
        const std::string& kw = b->queries[l.qi];
        if (gate_in_process) {
          b->Offer([b, kw] { ValidateTask(b, kw); });
        } else if (keep_samples) {
          r->samples.emplace_back(l.qi, AsResults(resp.rows));
        }
      }
    } else if (!search) {
      l.slice->Commit(l.op, o.ok, l.stage == 1);
      if (o.ok) {
        r->lat_us.push_back(Us(l.send, done));
        r->done_s.push_back(Us(t0, done) / 1e6);
      }
    }
    if (o.ok) {
      ++r->ok;
    } else if (o.shed) {
      ++r->shed;
    } else {
      ++r->failed;
    }
    l.busy = false;
    if (!start(li)) --busy;
  }
}

struct PhaseSpec {
  std::string name;
  double seconds = 0.0;
  std::vector<ConnPlan> plans;
  bool trace = false;
  bool keep_samples = false;  // read workloads: wire answers for the gate
  // When set, the closed-loop connections share this many operations and
  // the phase ends when they are done (open-loop ones stop with them);
  // `seconds` is then only the expected duration. Otherwise the phase
  // runs for `seconds`.
  uint64_t closed_ops = 0;
};

PhaseResult RunPhase(Bench* b, const PhaseSpec& spec) {
  PhaseResult out;
  out.name = spec.name;
  out.conns.resize(spec.plans.size());
  std::vector<std::unique_ptr<server::SvrClient>> clients;
  for (size_t i = 0; i < spec.plans.size(); ++i) {
    clients.push_back(CheckResult(
        server::SvrClient::Connect("127.0.0.1", b->port), "connect"));
  }
  const size_t nq = b->queries.size();
  const size_t cursor = b->query_cursor;
  const uint32_t validate_every = b->args.scale.validate_every;
  const uint32_t trace_every = b->args.scale.trace_every;
  const bool gate_in_process = b->args.workload == Workload::kUpdateHeavy;
  const bool by_count = spec.closed_ops > 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  // A phase of counted operations gets four times its expected duration
  // before it is cut short.
  const auto end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.seconds * (by_count ? 4 : 1)));
  // An open-loop connection this far behind its schedule stops sending;
  // the sends it skips count as missed.
  const auto give_up = end + std::chrono::seconds(1);
  std::atomic<uint32_t> running{static_cast<uint32_t>(spec.plans.size())};
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint32_t> closed_running{0};
  for (const ConnPlan& p : spec.plans) {
    if (p.loop == Loop::kClosed) closed_running.fetch_add(1);
  }

  auto body = [&](size_t ci) {
    const ConnPlan& plan = spec.plans[ci];
    ConnResult& r = out.conns[ci];
    r.op = plan.op;
    r.loop = plan.loop;
    server::SvrClient* client = clients[ci].get();
    const double interval_us = plan.loop == Loop::kOpen ? 1e6 / plan.rate : 0;
    // Connections of one phase are staggered within one interval.
    const double offset_us =
        interval_us * static_cast<double>(ci) / spec.plans.size();
    Clock::time_point prev_done = t0;
    std::this_thread::sleep_until(t0);
    if (plan.loop == Loop::kClosed && plan.depth > 1) {
      PipelinedConn(b, client, plan, ci, spec.plans.size(), cursor,
                    spec.keep_samples, t0, end, &claimed,
                    by_count ? spec.closed_ops : UINT64_MAX, &r);
      r.active_s = Us(t0, Clock::now()) / 1e6;
      closed_running.fetch_sub(1);
      running.fetch_sub(1);
      return;
    }
    for (uint64_t i = 0;; ++i) {
      Clock::time_point sched = Clock::now();
      if (plan.loop == Loop::kOpen) {
        sched = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(
                             offset_us + interval_us * static_cast<double>(i)));
        if (sched >= end || (by_count && closed_running.load() == 0)) break;
        if (Clock::now() > give_up) {
          const double left = Us(sched, end) / interval_us;
          r.missed += static_cast<uint64_t>(std::ceil(left));
          r.attempted += static_cast<uint64_t>(std::ceil(left));
          break;
        }
        std::this_thread::sleep_until(sched);
      } else if (sched >= end ||
                 (by_count && claimed.fetch_add(1) >= spec.closed_ops)) {
        break;
      }
      const auto send = Clock::now();
      if (plan.loop == Loop::kOpen) {
        r.late_us.push_back(Us(std::max(sched, prev_done), send));
        if (r.late_us.back() > interval_us) ++r.behind;
      }
      ++r.attempted;
      const bool traced = spec.trace && (i % trace_every) == trace_every - 1;
      const uint64_t req = traced ? g_next_request.fetch_add(1) : 0;
      Outcome o;
      if (plan.op == OpType::kSearch) {
        const size_t qi = (cursor + ci + spec.plans.size() * i) % nq;
        const std::string& kw = b->queries[qi];
        auto reply = client->Search(kw, kTopK, true);
        o = ClassifyStatus(reply.status());
        const auto done = Clock::now();
        if (o.ok) {
          r.lat_us.push_back(Us(sched, done));
          r.done_s.push_back(Us(t0, done) / 1e6);
          if ((r.ok + 1) % validate_every == 0) {
            if (gate_in_process) {
              b->Offer([b, kw] { ValidateTask(b, kw); });
            } else if (spec.keep_samples) {
              r.samples.emplace_back(qi, AsResults(reply.value().rows));
            }
          }
          if (traced) {
            const double wire = Us(send, done);
            const double start = Us(g_epoch, send);
            b->Offer([b, kw, req, wire, start] {
              LayerSamples* ls = &b->replays;
              ls->spans.push_back({req, "wire.search", "", start, wire});
              ReplaySearch(b->engine, kw, req, ls);
              ls->search_self_us.push_back(wire - ls->search_at_us.back());
            });
          }
        }
      } else {
        WriteSlice* slice =
            b->slices[plan.slices[i % plan.slices.size()]].get();
        const WriteOp op = slice->Next();
        o = ApplyWrite(client, op);
        const auto done = Clock::now();
        slice->Commit(op, o.ok, o.first_ok);
        if (o.ok) {
          r.lat_us.push_back(Us(sched, done));
          r.done_s.push_back(Us(t0, done) / 1e6);
          if (traced && op.kind == WriteOp::kScore) {
            // Re-apply the same score in-process: an idempotent write on
            // a document only this connection touches.
            const double wire = Us(send, done);
            r.layers.spans.push_back(
                {req, "wire.write", "", Us(g_epoch, send), wire});
            r.layers.write_call_us.push_back(
                Timed(&r.layers, req, "core.update", "", [&] {
                  Check(b->engine->Update("scores", {Value::Int(op.gid),
                                                     Value::Double(op.score)}),
                        "in-process update");
                }));
            r.layers.write_self_us.push_back(wire -
                                             r.layers.write_call_us.back());
          }
        }
      }
      if (o.ok) {
        ++r.ok;
      } else if (o.shed) {
        ++r.shed;
      } else {
        ++r.failed;
      }
      if (traced) {
        const auto p0 = Clock::now();
        Check(client->Ping(), "ping");
        r.layers.ping_us.push_back(Us(p0, Clock::now()));
      }
      // The connection is free again only now: the traced-only work above
      // (an in-process update, a ping) delays the next send on the
      // tracer's account, not the generator's.
      prev_done = Clock::now();
    }
    r.active_s = Us(t0, Clock::now()) / 1e6;
    if (plan.loop == Loop::kClosed) closed_running.fetch_sub(1);
    running.fetch_sub(1);
  };

  const double cpu0 = ProcessCpuS();
  const long faults0 = MinorFaults();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < spec.plans.size(); ++i) threads.emplace_back(body, i);
  // The main thread serves the queued tasks while the load runs, then
  // drains what is left.
  auto next_sample = Clock::now();
  while (running.load() > 0) {
    // The reclamation backlog is a per-layer figure: untraced runs do not
    // poll the engine while they measure.
    if (b->args.trace && Clock::now() >= next_sample) {
      uint64_t pending = 0;
      for (const auto& s : b->engine->GetStats().shards) {
        pending += s.reclaim_pending;
      }
      b->reclaim_pending_max = std::max(b->reclaim_pending_max, pending);
      next_sample += std::chrono::milliseconds(50);
    }
    if (!b->RunOneTask()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& t : threads) t.join();
  out.cpu_s = ProcessCpuS() - cpu0;
  out.minor_faults = MinorFaults() - faults0;
  while (b->RunOneTask()) {
  }
  // The phase lasts until its last closed-loop reply, or its last reply
  // when it has no closed-loop connection.
  const bool any_closed = std::any_of(
      out.conns.begin(), out.conns.end(),
      [](const ConnResult& c) { return c.loop == Loop::kClosed; });
  for (const auto& c : out.conns) {
    if (!any_closed || c.loop == Loop::kClosed) {
      out.seconds = std::max(out.seconds, c.active_s);
    }
  }
  b->query_cursor = (cursor + 7919) % nq;
  return out;
}

std::vector<ConnPlan> Conns(uint32_t n, Loop loop, OpType op, double total,
                            uint32_t depth = 1) {
  std::vector<ConnPlan> out;
  for (uint32_t c = 0; c < n; ++c) {
    ConnPlan p{loop, op, total / n, {}, depth};
    if (op == OpType::kWrite) {
      for (uint32_t s = c; s < kWriteSlices; s += n) p.slices.push_back(s);
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<ConnPlan> Concat(std::vector<ConnPlan> a,
                             const std::vector<ConnPlan>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Runs every query of the stream once in-process on kConnections
// threads, so the phases start with every list they will read already
// fetched (search_cached's pool then holds all of them).
void WarmLists(core::ShardedSvrEngine* engine,
               const std::vector<std::string>& queries) {
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += kConnections) {
        Check(engine->Search(queries[i], kTopK).status(), "warm-up search");
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Long- plus short-list bytes over all shards. Read between phases, once
// the merge jobs the writes queued have finished (bounded wait), so the
// figure depends on the operations issued, not on how fast they ran.
double IndexMb(core::ShardedSvrEngine* engine) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    if (engine->GetStats().total.merge_queue_depth == 0 ||
        Clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  double bytes = 0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    const index::TextIndex* ti = engine->shard(s)->text_index();
    bytes += static_cast<double>(ti->LongListBytes() + ti->ShortListBytes());
  }
  return bytes / (1024.0 * 1024.0);
}

// --- read-side gate after the load ----------------------------------------

struct GateResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

// Wire answers of the read phases against the oracle (static data).
GateResult CheckSamples(Bench* b, const std::vector<PhaseResult>& phases) {
  GateResult g;
  const core::ShardedReadView view = b->engine->PinReadViewAll();
  std::unordered_map<size_t, std::vector<index::SearchResult>> cache;
  for (const auto& p : phases) {
    for (const auto& c : p.conns) {
      for (const auto& [qi, got] : c.samples) {
        auto it = cache.find(qi);
        if (it == cache.end()) {
          std::vector<index::SearchResult> want;
          Check(OracleAnswer(b->engine, view, b->queries[qi], &want),
                "oracle");
          it = cache.emplace(qi, std::move(want)).first;
        }
        ++g.checked;
        if (!Matches(got, it->second)) {
          ++g.mismatches;
          std::fprintf(stderr, "perfbench: wire answer != oracle: %s\n",
                       b->queries[qi].c_str());
        }
      }
    }
  }
  return g;
}

// Quiesced wire answers against the oracle and the shadow scores. The
// first query also proves the gate fires: a deliberately wrong expected
// list must be reported as a mismatch.
GateResult CheckQuiesced(Bench* b, size_t n, bool* self_test_ok) {
  GateResult g;
  auto client =
      CheckResult(server::SvrClient::Connect("127.0.0.1", b->port), "connect");
  *self_test_ok = false;
  for (size_t i = 0; i < n; ++i) {
    const std::string& kw = b->queries[(b->query_cursor + i) % b->queries.size()];
    auto reply = CheckResult(client->Search(kw, kTopK, true), "search");
    const core::ShardedReadView view = b->engine->PinReadViewAll();
    std::vector<index::SearchResult> want;
    Check(OracleAnswer(b->engine, view, kw, &want), "oracle");
    const auto got = AsResults(reply.rows);
    bool ok = Matches(got, want);
    for (const auto& row : reply.rows) {
      double shadow = 0;
      const WriteSlice* owner = b->slices[row.pk % kWriteSlices].get();
      if (owner->Shadow(row.pk, &shadow) && !std::isnan(shadow) &&
          shadow != row.score) {
        ok = false;
      }
    }
    if (!*self_test_ok && !want.empty()) {
      std::vector<index::SearchResult> wrong = want;
      wrong.front().score += 1.0;
      *self_test_ok = !Matches(got, wrong) && ok;
    }
    ++g.checked;
    if (!ok) {
      ++g.mismatches;
      std::fprintf(stderr, "perfbench: quiesced answer != oracle: %s\n",
                   kw.c_str());
    }
  }
  return g;
}

// --- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ReadCpuMhz() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void PrintContext(const Args& a) {
  std::printf(
      "# context {\"cores\": %u, \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\", \"cpu_mhz\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, "
      "\"trace\": %d, \"scale\": \"%s\", \"engine\": {\"shards\": 2, "
      "\"query_threads\": 2, \"server_workers\": 4, \"telemetry\": true, "
      "\"admission\": \"default thresholds\", \"method\": \"Chunk\", "
      "\"codec\": \"v2\", \"background_merge\": true, \"auto_merge\": true, "
      "\"wal\": \"%s\", \"background_checkpoints\": false, "
      "\"list_pool_pages_total\": %u}, \"corpus\": {\"docs\": %u, "
      "\"terms_per_doc\": %u, \"vocab\": %u, \"term_zipf\": 1.0}}\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      a.source_id.c_str(), ReadCpuMhz().c_str(), a.workload_name.c_str(),
      a.seed, a.seconds, a.trace ? 1 : 0, a.scale_name.c_str(),
      a.workload == Workload::kUpdateHeavy
          ? "group commit, real fsync, in the checkout"
          : "off",
      a.workload == Workload::kSearchEvicting
          ? kEvictingListPages
          : core::SvrEngineOptions().list_pool_pages,
      a.scale.docs, a.scale.terms_per_doc, a.scale.vocab);
}

void PrintPhase(const PhaseResult& p) {
  for (OpType op : {OpType::kSearch, OpType::kWrite}) {
    uint64_t att = 0, ok = 0, failed = 0, shed = 0, missed = 0;
    bool any = false, open = false;
    for (const auto& c : p.conns) {
      if (c.op != op) continue;
      any = true;
      open = open || c.loop == Loop::kOpen;
      att += c.attempted;
      ok += c.ok;
      failed += c.failed;
      shed += c.shed;
      missed += c.missed;
    }
    if (!any) continue;
    const auto lat = p.Latencies(op);
    std::printf(
        "# phase %-22s %-6s %s attempted=%" PRIu64 " ok=%" PRIu64
        " failed=%" PRIu64 " shed=%" PRIu64 " missed=%" PRIu64
        " rate=%.1f/s p50=%.1fus p99=%.1fus samples=%zu cpu=%.2fs"
        " minor_faults=%ld\n",
        p.name.c_str(), op == OpType::kSearch ? "search" : "write",
        open ? "open  " : "closed", att, ok, failed, shed, missed,
        static_cast<double>(ok) / p.seconds, Percentile(lat, 50),
        Percentile(lat, 99), lat.size(), p.cpu_s, p.minor_faults);
    std::printf("# phase %-22s %-6s windows rate", p.name.c_str(),
                op == OpType::kSearch ? "search" : "write");
    for (double x : p.WindowRates(op, 5)) std::printf(" %.0f", x);
    std::printf(" p50");
    for (double x : p.WindowPercentiles(op, 50, 5)) std::printf(" %.0f", x);
    std::printf(" p99");
    for (double x : p.WindowPercentiles(op, 99, 5)) std::printf(" %.0f", x);
    std::printf("\n");
  }
  for (size_t i = 0; i < p.conns.size(); ++i) {
    const auto& c = p.conns[i];
    if (c.loop != Loop::kOpen) continue;
    std::printf("# phase %-22s conn %zu generator late p99=%.1fus behind=%" PRIu64
                "/%zu\n",
                p.name.c_str(), i, Percentile(c.late_us, 99), c.behind,
                c.late_us.size());
  }
}

void WriteSpans(const std::string& path, const LayerSamples& ls) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const Span& s : ls.spans) {
    std::fprintf(f,
                 "{\"request\": %" PRIu64 ", \"name\": \"%s\", "
                 "\"parent\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 s.request, s.name, s.parent, s.start_us, s.dur_us);
  }
  std::fclose(f);
}

struct PoolTotals {
  uint64_t list_fetches = 0, list_hits = 0, list_evictions = 0;
  uint64_t table_fetches = 0, table_hits = 0;
};

PoolTotals ReadPools(core::ShardedSvrEngine* e) {
  PoolTotals t;
  for (uint32_t s = 0; s < e->num_shards(); ++s) {
    const auto l = e->shard(s)->list_pool()->StatsSnapshot();
    const auto tb = e->shard(s)->table_pool()->StatsSnapshot();
    t.list_fetches += l.fetches;
    t.list_hits += l.hits;
    t.list_evictions += l.evictions;
    t.table_fetches += tb.fetches;
    t.table_hits += tb.hits;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A Bench for `engine`, served on `port`: the query stream and fresh
// write slices with the corpus's shadow scores.
void InitBench(Bench* b, const Args& args, core::ShardedSvrEngine* engine,
               uint16_t port, std::vector<std::string> queries,
               const Corpus& corpus) {
  b->args = args;
  b->engine = engine;
  b->port = port;
  b->queries = std::move(queries);
  for (uint32_t s = 0; s < kWriteSlices; ++s) {
    b->slices.push_back(std::make_unique<WriteSlice>(s, args, corpus.scores));
  }
}

// Warm-up, not measured: every list the queries read, in-process, then
// the wire path.
void Warm(Bench* b) {
  const auto warm0 = Clock::now();
  WarmLists(b->engine, b->queries);
  std::printf("# warm-up: %zu queries in-process in %.2fs\n",
              b->queries.size(), Us(warm0, Clock::now()) / 1e6);
  RunPhase(b, {"warmup", b->args.scale.warmup_s,
               Conns(kConnections, Loop::kClosed, OpType::kSearch, 0), false,
               false});
}

uint64_t OpCount(double rate, double secs) {
  return static_cast<uint64_t>(std::max(1.0, std::round(rate * secs)));
}

// Phase B on one engine instance: four searches always in flight, a
// fixed number of them. On update_heavy two pipelined connections (two
// searches each) run next to the two writers, whose rate stays fixed.
PhaseSpec SearchCapacityPhase(const Args& args, const std::string& name) {
  const Scale& sc = args.scale;
  const double secs = args.seconds * kSearchCapacityShare / kSetups;
  const bool heavy = args.workload == Workload::kUpdateHeavy;
  return {name, secs,
          heavy ? Concat(Conns(2, Loop::kOpen, OpType::kWrite,
                               sc.heavy_write_ops),
                         Conns(2, Loop::kClosed, OpType::kSearch, 0, 2))
                : Conns(kConnections, Loop::kClosed, OpType::kSearch, 0),
          false, !heavy, OpCount(sc.closed_search_qps, secs)};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  g_epoch = Clock::now();
  PrintContext(args);
  std::fflush(stdout);

  const std::string wal_dir = args.work_dir + "/wal";
  Check(workload::WipeDirectory(args.work_dir), "work directory");
  std::filesystem::create_directories(args.work_dir);
  WalCounters wal;
  const Corpus corpus = MakeCorpus(args);
  Engine run = SetUp(args, corpus, wal_dir, &wal);
  std::vector<double> setup_s = {run.setup_s};
  core::ShardedSvrEngine* engine = run.engine.get();

  server::ServerOptions sopt;  // svr_server's defaults: 4 workers,
                               // admission control on
  auto srv = CheckResult(server::SvrServer::Start(engine, sopt), "server");

  Bench b;
  InitBench(&b, args, engine, srv->port(),
            MakeQueries(engine, args, args.scale.queries), corpus);
  const Scale& sc = args.scale;
  const double S = args.seconds;
  const bool heavy = args.workload == Workload::kUpdateHeavy;
  Warm(&b);

  std::vector<PhaseResult> phases;
  const PoolTotals pools0 = ReadPools(engine);
  const auto stats0 = engine->GetStats();
  PoolTotals pools_a;
  uint64_t queries_a = 0;
  size_t traced_a = 0;  // index of phase A's traced half

  auto open_a = [&]() {
    return heavy ? Concat(Conns(2, Loop::kOpen, OpType::kWrite,
                                sc.heavy_write_ops),
                          Conns(2, Loop::kOpen, OpType::kSearch,
                                sc.heavy_search_qps))
                 : Conns(kConnections, Loop::kOpen, OpType::kSearch,
                         sc.read_search_qps);
  };
  const double a_frac = heavy ? 0.25 : 0.2;
  const size_t a_cursor = b.query_cursor;  // and on update_heavy every A
  WalCounters::Snapshot wal_w0{};
  Clock::time_point write_t0;
  if (heavy) {
    wal_w0 = wal.Take();
    write_t0 = Clock::now();
  }
  if (args.trace) {
    // Untraced then traced halves of phase A: the overhead, and storage
    // deltas free of the replays.
    phases.push_back(RunPhase(&b, {"A.untraced", S * a_frac / 2, open_a(),
                                   false, !heavy}));
    const PoolTotals p1 = ReadPools(engine);
    pools_a = {p1.list_fetches - pools0.list_fetches,
               p1.list_hits - pools0.list_hits,
               p1.list_evictions - pools0.list_evictions,
               p1.table_fetches - pools0.table_fetches,
               p1.table_hits - pools0.table_hits};
    queries_a = phases.back().Completed(OpType::kSearch);
    phases.push_back(
        RunPhase(&b, {"A.traced", S * a_frac / 2, open_a(), true, !heavy}));
    traced_a = phases.size() - 1;
  } else {
    phases.push_back(
        RunPhase(&b, {"A.open", S * a_frac, open_a(), false, !heavy}));
  }
  const size_t a_index = phases.size() - 1;
  // After the open-loop phase: the read workloads' corpus is still the
  // loaded one, and update_heavy's writes so far ran on a fixed schedule.
  const double index_mb = IndexMb(engine);

  const size_t b_cursor = b.query_cursor;  // every instance's B starts here
  phases.push_back(RunPhase(&b, SearchCapacityPhase(args, "B.closed_search")));
  std::vector<size_t> b_indices = {phases.size() - 1};

  GateResult read_gate;
  // The data is still static: check the read phases' wire answers.
  if (!heavy) read_gate = CheckSamples(&b, phases);
  // The write phases feed the traced run's per-layer figures (WAL
  // batches, reclamation backlog, sampled in-process writes) and print
  // their rates and latencies; untraced runs skip them.
  if (args.trace) {
    if (!heavy) {
      wal_w0 = wal.Take();
      write_t0 = Clock::now();
      phases.push_back(RunPhase(
          &b, {"C.open_write", S * 0.1,
               Conns(2, Loop::kOpen, OpType::kWrite, sc.read_write_ops), true,
               false}));
    }
    // Write capacity: four pipelined connections, one lane per write
    // slice (sixteen writes in flight), so the workers and the group
    // commit never wait for a client.
    const double d_frac = heavy ? 0.3 : 0.25;
    phases.push_back(RunPhase(
        &b, {"D.closed_write", S * d_frac,
             Conns(kConnections, Loop::kClosed, OpType::kWrite, 0,
                   kWriteSlices / kConnections),
             false, false, OpCount(sc.closed_write_ops, S * d_frac)}));
  }
  const double write_secs = Us(write_t0, Clock::now()) / 1e6;
  const WalCounters::Snapshot wal_w1 = wal.Take();
  const std::vector<double> syncs = wal.SyncsSince(wal_w0);
  const auto stats1 = engine->GetStats();

  bool self_test_ok = false;
  GateResult quiesced = CheckQuiesced(&b, heavy ? 64 : 32, &self_test_ok);
  const server::ServerStats sstats = srv->GetStats();
  srv->Stop();
  engine->Stop();
  run.engine.reset();
  uint64_t validated = b.validated, mismatches = b.mismatches;
  uint64_t tasks_dropped = b.tasks_dropped;

  // The other instances of an untraced run: set up, served, warmed, and
  // measured by their part of phase B only, each checked like the first.
  if (!args.trace) {
    for (int i = 1; i < kSetups; ++i) {
      WalCounters scratch;
      Engine extra = SetUp(args, corpus, wal_dir + "-setup", &scratch);
      setup_s.push_back(extra.setup_s);
      auto srv_i = CheckResult(
          server::SvrServer::Start(extra.engine.get(), sopt), "server");
      Bench bi;
      InitBench(&bi, args, extra.engine.get(), srv_i->port(), b.queries,
                corpus);
      Warm(&bi);
      if (heavy) {
        // The same writes as the first instance's before its B.
        bi.query_cursor = a_cursor;
        phases.push_back(RunPhase(&bi, {"A.open." + std::to_string(i),
                                        S * a_frac, open_a(), false, false}));
      }
      bi.query_cursor = b_cursor;
      phases.push_back(RunPhase(
          &bi, SearchCapacityPhase(args,
                                   "B.closed_search." + std::to_string(i))));
      b_indices.push_back(phases.size() - 1);
      if (!heavy) {
        const GateResult g = CheckSamples(&bi, {phases.back()});
        read_gate.checked += g.checked;
        read_gate.mismatches += g.mismatches;
      }
      bool fired = false;
      const GateResult q = CheckQuiesced(&bi, 16, &fired);
      self_test_ok = self_test_ok && fired;
      quiesced.checked += q.checked;
      quiesced.mismatches += q.mismatches;
      validated += bi.validated;
      mismatches += bi.mismatches;
      tasks_dropped += bi.tasks_dropped;
      srv_i->Stop();
      extra.engine->Stop();
    }
    Check(workload::WipeDirectory(wal_dir + "-setup"), "wipe");
  }
  Check(workload::WipeDirectory(wal_dir), "wipe");
  for (const auto& p : phases) PrintPhase(p);

  // --- verdict ---------------------------------------------------------
  uint64_t attempted = 0, failed = 0;
  std::vector<double> late_us;  // every open-loop send of the run
  uint64_t behind = 0;
  for (const auto& p : phases) {
    for (const auto& c : p.conns) {
      attempted += c.attempted;
      failed += c.failed + c.shed + c.missed;
      late_us.insert(late_us.end(), c.late_us.begin(), c.late_us.end());
      behind += c.behind;
    }
  }
  const double gen_late_p99 = Percentile(late_us, 99);
  const double behind_share =
      Ratio(static_cast<double>(behind), static_cast<double>(late_us.size()));
  const bool generator_ok = behind_share <= kGeneratorBehindLimit;
  const uint64_t gate_checked =
      read_gate.checked + quiesced.checked + validated;
  const uint64_t gate_mismatches =
      read_gate.mismatches + quiesced.mismatches + mismatches;
  std::printf("# gate: checked=%" PRIu64 " mismatches=%" PRIu64
              " (wire samples %" PRIu64 ", in-process at a pinned view %" PRIu64
              ", quiesced %" PRIu64 ", task drops %" PRIu64
              "); self-test %s\n",
              gate_checked, gate_mismatches, read_gate.checked, validated,
              quiesced.checked, tasks_dropped,
              self_test_ok ? "fired" : "DID NOT FIRE");
  std::printf("# generator: p99 late %.1fus; %" PRIu64 " of %zu open-loop sends "
              "behind their schedule by more than an interval (limit %.0f%%)%s\n",
              gen_late_p99, behind, late_us.size(), kGeneratorBehindLimit * 100,
              generator_ok ? "" : " -> INVALID: the generator fell behind");
  std::printf("# server: requests=%" PRIu64 " rejected=%" PRIu64
              " protocol_errors=%" PRIu64 "\n",
              sstats.requests, sstats.rejected, sstats.protocol_errors);
  const bool min_checks = gate_checked >= (heavy ? 64u : 32u) + 8u;
  const bool correct = gate_mismatches == 0 && self_test_ok && generator_ok &&
                       min_checks;

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The search figures come from phase B, which keeps four searches in
    // flight and runs a fixed number of them on each instance. The write
    // phases' rates and latencies are printed on their phase lines only
    // (see README.md).
    std::vector<double> p50s, qps;
    size_t samples = 0;
    for (size_t i : b_indices) {
      const auto lat = phases[i].Latencies(OpType::kSearch);
      samples += lat.size();
      p50s.push_back(Percentile(lat, 50));
      qps.push_back(static_cast<double>(phases[i].Completed(OpType::kSearch)) /
                    phases[i].seconds);
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"search_p50_us", Median(p50s), "us"},
        {"search_max_qps", Median(qps), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"index_mb", index_mb, "MB"},
    };
    std::printf("# samples: search %zu over %zu instances; set-ups:",
                samples, b_indices.size());
    for (double s : setup_s) std::printf(" %.3fs", s);
    std::printf("\n");
  } else {
    LayerSamples ls;
    for (const auto& p : phases) {
      for (const auto& c : p.conns) ls.Merge(c.layers);
    }
    ls.Merge(b.replays);
    const double untraced_p50 =
        Percentile(phases[a_index - 1].Latencies(OpType::kSearch), 50);
    const double traced_p50 =
        Percentile(phases[traced_a].Latencies(OpType::kSearch), 50);
    // Wire writes plus the traced in-process re-applications.
    double write_ops = static_cast<double>(ls.write_call_us.size());
    for (const auto& p : phases) {
      write_ops += static_cast<double>(p.Completed(OpType::kWrite));
    }
    const auto& t0s = stats0.total;
    const auto& t1s = stats1.total;
    const double enq =
        static_cast<double>(t1s.merge_jobs_enqueued - t0s.merge_jobs_enqueued);
    metrics = {
        {"server.ping_rtt_p50_us", Percentile(ls.ping_us, 50), "us"},
        {"server.ping_rtt_p99_us", Percentile(ls.ping_us, 99), "us"},
        {"server.search_self_us", Median(ls.search_self_us), "us"},
        {"server.write_self_us", Median(ls.write_self_us), "us"},
        {"server.rejected", static_cast<double>(sstats.rejected), "count"},
        {"server.protocol_errors", static_cast<double>(sstats.protocol_errors),
         "count"},
        {"core.pin_all_us", Median(ls.pin_all_us), "us"},
        {"core.search_at_us", Median(ls.search_at_us), "us"},
        {"core.shard_search_at_us", Median(ls.shard_search_us), "us"},
        {"core.shard_skew", Median(ls.shard_skew), "ratio"},
        {"core.gather_us", Median(ls.gather_us), "us"},
        {"core.translate_us", Median(ls.translate_us), "us"},
        {"core.write_call_us", Median(ls.write_call_us), "us"},
        {"index.topk_us", Median(ls.topk_us), "us"},
        {"index.postings_scanned", Median(ls.postings), "count"},
        {"index.blocks_decoded", Median(ls.blocks), "count"},
        {"index.cursor_seeks", Median(ls.seeks), "count"},
        {"index.groups_galloped", Median(ls.galloped), "count"},
        {"index.results_per_candidate", Ratio(ls.results, ls.candidates),
         "ratio"},
        {"storage.list_fetches_per_query",
         Ratio(pools_a.list_fetches, queries_a), "count"},
        {"storage.list_hit_rate", Ratio(pools_a.list_hits, pools_a.list_fetches),
         "ratio"},
        {"storage.list_evictions_per_query",
         Ratio(pools_a.list_evictions, queries_a), "count"},
        {"storage.table_hit_rate",
         Ratio(pools_a.table_hits, pools_a.table_fetches), "ratio"},
        {"concurrency.pin_us", Median(ls.pin_us), "us"},
        {"concurrency.merge_jobs_completed",
         static_cast<double>(t1s.merge_jobs_completed - t0s.merge_jobs_completed),
         "count"},
        {"concurrency.merge_abort_ratio",
         Ratio(static_cast<double>(t1s.merge_jobs_aborted - t0s.merge_jobs_aborted),
               enq),
         "ratio"},
        {"concurrency.merge_jobs_dropped",
         static_cast<double>(t1s.merge_jobs_dropped - t0s.merge_jobs_dropped),
         "count"},
        {"concurrency.reclaim_pending_max",
         static_cast<double>(b.reclaim_pending_max), "count"},
        {"concurrency.objects_reclaimed_per_write",
         Ratio(static_cast<double>(t1s.objects_reclaimed - t0s.objects_reclaimed),
               write_ops),
         "ratio"},
        {"durability.syncs_per_s",
         Ratio(static_cast<double>(wal_w1.syncs - wal_w0.syncs), write_secs),
         "1/s"},
        // The log writer appends a whole group-commit batch at once, so
        // the batch size is writes over syncs, not appends over syncs.
        {"durability.writes_per_sync",
         Ratio(write_ops, static_cast<double>(wal_w1.syncs - wal_w0.syncs)),
         "ratio"},
        {"durability.sync_p50_us", Percentile(syncs, 50), "us"},
        {"durability.sync_p99_us", Percentile(syncs, 99), "us"},
        {"durability.wal_bytes_per_write",
         Ratio(static_cast<double>(wal_w1.bytes - wal_w0.bytes), write_ops),
         "B"},
        {"durability.segments_opened",
         static_cast<double>(wal_w1.segments_opened - wal_w0.segments_opened),
         "count"},
        {"loadgen.late_p99_us", gen_late_p99, "us"},
        {"trace.search_p50_untraced_us", untraced_p50, "us"},
        {"trace.search_p50_traced_us", traced_p50, "us"},
        {"trace.overhead_pct", Ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
         "%"},
        {"trace.spans", static_cast<double>(ls.spans.size()), "count"},
    };
    const std::string spans_path = args.work_dir + "/spans-" +
                                   args.workload_name + "-" +
                                   std::to_string(args.seed) + ".jsonl";
    WriteSpans(spans_path, ls);
    std::printf("# spans: %zu written to %s\n", ls.spans.size(),
                spans_path.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("# metric %-40s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
