// Micro-benchmarks (google-benchmark) for the storage engine's B+-tree —
// the structure behind the Score table, short lists and relational
// tables (§5.2 builds everything on BerkeleyDB BTREEs; this is our
// substitute's raw cost).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/key_codec.h"
#include "common/random.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace svr::storage {
namespace {

std::string Key(uint64_t v) {
  std::string k;
  PutKeyU64(&k, v);
  return k;
}

void BM_BPlusTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    InMemoryPageStore store(4096);
    BufferPool pool(&store, 1 << 16);
    auto tree = BPlusTree::Create(&pool).value();
    Random rng(7);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(tree->Put(Key(rng.Next()), "v"));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000)->Arg(100000);

void BM_BPlusTreePointLookup(benchmark::State& state) {
  InMemoryPageStore store(4096);
  BufferPool pool(&store, 1 << 16);
  auto tree = BPlusTree::Create(&pool).value();
  Random fill(7);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)tree->Put(Key(fill.Next()), "v");
  }
  Random probe(7);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(Key(probe.Next()), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreePointLookup)->Arg(100000);

// Point lookups on a sealed copy-on-write tree from several threads at
// once — the Score-table probe the Chunk method pays per candidate. Every
// page is resident, so this measures the buffer pool's pin/unpin path
// and how it scales: each lookup pins the root, so threads share it.
struct SnapshotTree {
  InMemoryPageStore store{4096};
  BufferPool pool{&store, 1 << 16};
  std::unique_ptr<BPlusTree> tree;
  TreeSnapshot snap;
  std::vector<std::string> keys;
};
std::unique_ptr<SnapshotTree> snapshot_tree;

void BuildSnapshotTree(int64_t n) {
  snapshot_tree = std::make_unique<SnapshotTree>();
  SnapshotTree& t = *snapshot_tree;
  t.tree = BPlusTree::CreateCow(&t.pool, nullptr).value();
  Random fill(7);
  for (int64_t i = 0; i < n; ++i) {
    t.keys.push_back(Key(fill.Next()));
    (void)t.tree->Put(t.keys.back(), "v");
  }
  t.snap = t.tree->Seal();
}

void BM_BPlusTreeSnapshotLookup(benchmark::State& state) {
  if (state.thread_index() == 0) BuildSnapshotTree(state.range(0));
  size_t i = static_cast<size_t>(state.thread_index()) * 7919;
  std::string v;
  // The loop's first iteration waits for every thread, so thread 0's
  // set-up above is visible inside the loop (and only there).
  for (auto _ : state) {
    const SnapshotTree& t = *snapshot_tree;
    benchmark::DoNotOptimize(
        t.tree->GetAt(t.snap, t.keys[i++ % t.keys.size()], &v));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) snapshot_tree.reset();
}
BENCHMARK(BM_BPlusTreeSnapshotLookup)
    ->Arg(100000)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// The same tree and probes through one Finger per thread, over a key
// stream that ascends in runs: 64 keys a few entries apart, then a jump
// to a random place — the order in which a Chunk query meets its
// candidates within a chunk. The finger re-pins only when a key leaves
// its pinned leaf, so the threads no longer share the root's pin count.
void BM_BPlusTreeFingerLookup(benchmark::State& state) {
  if (state.thread_index() == 0) {
    BuildSnapshotTree(state.range(0));
    std::sort(snapshot_tree->keys.begin(), snapshot_tree->keys.end());
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) + 1);
  size_t i = 0;
  int run = 0;
  // Created on the loop's first iteration, once thread 0's set-up is
  // visible; destroyed before thread 0 tears the tree down.
  std::unique_ptr<BPlusTree::Finger> finger;
  for (auto _ : state) {
    const SnapshotTree& t = *snapshot_tree;
    if (finger == nullptr) {
      finger = std::make_unique<BPlusTree::Finger>(t.tree.get(), t.snap);
    }
    if (run-- == 0 || i >= t.keys.size()) {
      i = rng.Uniform(t.keys.size());
      run = 63;
    }
    Slice v;
    benchmark::DoNotOptimize(finger->Get(t.keys[i], &v));
    i += 1 + rng.Uniform(8);
  }
  finger.reset();
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) snapshot_tree.reset();
}
BENCHMARK(BM_BPlusTreeFingerLookup)
    ->Arg(100000)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_BPlusTreeScan(benchmark::State& state) {
  InMemoryPageStore store(4096);
  BufferPool pool(&store, 1 << 16);
  auto tree = BPlusTree::Create(&pool).value();
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)tree->Put(Key(static_cast<uint64_t>(i)), "v");
  }
  for (auto _ : state) {
    uint64_t n = 0;
    for (auto it = tree->Begin(); it->Valid(); it->Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeScan)->Arg(100000);

}  // namespace
}  // namespace svr::storage

BENCHMARK_MAIN();
