#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/key_codec.h"
#include "common/random.h"
#include "storage/blob_store.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace svr::storage {
namespace {

TEST(PageStoreTest, AllocateReadWrite) {
  InMemoryPageStore store(512);
  auto id1 = store.Allocate();
  ASSERT_TRUE(id1.ok());
  auto id2 = store.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1.value(), id2.value());

  std::string buf(512, 'x');
  ASSERT_TRUE(store.Write(id1.value(), buf.data()).ok());
  std::string out(512, '\0');
  ASSERT_TRUE(store.Read(id1.value(), out.data()).ok());
  EXPECT_EQ(out, buf);
}

TEST(PageStoreTest, FreshPageIsZeroed) {
  InMemoryPageStore store(256);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::string out(256, 'x');
  ASSERT_TRUE(store.Read(id.value(), out.data()).ok());
  EXPECT_EQ(out, std::string(256, '\0'));
}

TEST(PageStoreTest, FreeAndRecycle) {
  InMemoryPageStore store(256);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.live_pages(), 1u);
  ASSERT_TRUE(store.Free(id.value()).ok());
  EXPECT_EQ(store.live_pages(), 0u);
  // Freed page is rejected until reallocated.
  std::string buf(256, '\0');
  EXPECT_FALSE(store.Read(id.value(), buf.data()).ok());
  auto id2 = store.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id2.value(), id.value());  // recycled
  // Recycled page must come back zeroed.
  ASSERT_TRUE(store.Read(id2.value(), buf.data()).ok());
  EXPECT_EQ(buf, std::string(256, '\0'));
}

TEST(PageStoreTest, AllocateRunIsContiguous) {
  InMemoryPageStore store(256);
  auto first = store.AllocateRun(5);
  ASSERT_TRUE(first.ok());
  std::string buf(256, 'a');
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.Write(first.value() + i, buf.data()).ok());
  }
  EXPECT_EQ(store.live_pages(), 5u);
}

TEST(PageStoreTest, InvalidAccessRejected) {
  InMemoryPageStore store(256);
  std::string buf(256, '\0');
  EXPECT_TRUE(store.Read(99, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(store.Write(99, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(store.Free(99).IsInvalidArgument());
  EXPECT_FALSE(store.AllocateRun(0).ok());
}

TEST(FilePageStoreTest, RoundTripThroughRealFile) {
  auto store_r = FilePageStore::Create("/tmp/svr_test_pages.bin", 512);
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r.value();
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::string buf(512, 'q');
  ASSERT_TRUE(store.Write(id.value(), buf.data()).ok());
  std::string out(512, '\0');
  ASSERT_TRUE(store.Read(id.value(), out.data()).ok());
  EXPECT_EQ(out, buf);
  auto run = store.AllocateRun(3);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(store.Read(run.value() + 2, out.data()).ok());
  EXPECT_EQ(out, std::string(512, '\0'));
}

// --- buffer pool -------------------------------------------------------

TEST(BufferPoolTest, HitAndMissAccounting) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 4);
  PageHandle h;
  ASSERT_TRUE(pool.NewPage(&h).ok());
  PageId id = h.id();
  h.mutable_data()[0] = 'z';
  h.Release();

  PageHandle h2;
  ASSERT_TRUE(pool.Fetch(id, &h2).ok());
  EXPECT_EQ(h2.data()[0], 'z');
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    PageHandle h;
    ASSERT_TRUE(pool.NewPage(&h).ok());
    h.mutable_data()[0] = static_cast<char>('a' + i);
    ids.push_back(h.id());
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  // All data must survive eviction.
  for (int i = 0; i < 6; ++i) {
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(ids[i], &h).ok());
    EXPECT_EQ(h.data()[0], static_cast<char>('a' + i));
  }
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 2);
  PageHandle pinned;
  ASSERT_TRUE(pool.NewPage(&pinned).ok());
  pinned.mutable_data()[0] = 'p';
  // Flood the pool: the pinned page must not be evicted.
  for (int i = 0; i < 10; ++i) {
    PageHandle h;
    ASSERT_TRUE(pool.NewPage(&h).ok());
  }
  EXPECT_EQ(pinned.data()[0], 'p');
}

TEST(BufferPoolTest, EvictAllImplementsColdCache) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 100);
  PageHandle h;
  ASSERT_TRUE(pool.NewPage(&h).ok());
  PageId id = h.id();
  h.Release();

  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.cached_pages(), 0u);
  pool.ResetStats();
  PageHandle h2;
  ASSERT_TRUE(pool.Fetch(id, &h2).ok());
  EXPECT_EQ(pool.stats().misses, 1u);  // genuinely re-read from "disk"
}

TEST(BufferPoolTest, FreePageDropsWithoutWriteback) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 4);
  PageHandle h;
  ASSERT_TRUE(pool.NewPage(&h).ok());
  PageId id = h.id();
  h.Release();
  ASSERT_TRUE(pool.FreePage(id).ok());
  EXPECT_EQ(store.live_pages(), 0u);
  PageHandle h2;
  EXPECT_FALSE(pool.Fetch(id, &h2).ok());
}

TEST(BufferPoolTest, MoveHandleTransfersPin) {
  InMemoryPageStore store(256);
  BufferPool pool(&store, 4);
  PageHandle a;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  PageId id = a.id();
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
}

// CLOCK's second chance: with one victim to pick between two unpinned
// pages, the one hit since it was loaded stays, wherever the hand starts.
// Both orders are run, so a policy that ignores the reference bit fails
// one of them.
TEST(BufferPoolTest, SecondChanceKeepsHitPageOverUnreferencedOne) {
  for (const bool hit_first : {true, false}) {
    InMemoryPageStore store(256);
    BufferPool pool(&store, 2);
    PageId ids[2];
    for (PageId& id : ids) {
      PageHandle h;
      ASSERT_TRUE(pool.NewPage(&h).ok());
      id = h.id();
    }
    const PageId hit = hit_first ? ids[0] : ids[1];
    const PageId cold = hit_first ? ids[1] : ids[0];
    {
      PageHandle h;
      ASSERT_TRUE(pool.Fetch(hit, &h).ok());
    }
    {
      PageHandle h;
      ASSERT_TRUE(pool.NewPage(&h).ok());  // full: evicts one page
    }
    EXPECT_EQ(pool.stats().evictions, 1u);
    pool.ResetStats();
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(hit, &h).ok());
    EXPECT_EQ(pool.stats().hits, 1u) << "hit_first=" << hit_first;
    ASSERT_TRUE(pool.Fetch(cold, &h).ok());
    EXPECT_EQ(pool.stats().misses, 1u) << "hit_first=" << hit_first;
  }
}

// --- B+-tree -----------------------------------------------------------

class BPlusTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<InMemoryPageStore>(page_size_);
    pool_ = std::make_unique<BufferPool>(store_.get(), 10000);
    auto t = BPlusTree::Create(pool_.get());
    ASSERT_TRUE(t.ok());
    tree_ = std::move(t).value();
  }

  std::string Key(int i) {
    std::string k;
    PutKeyU32(&k, static_cast<uint32_t>(i));
    return k;
  }

  uint32_t page_size_ = 512;  // small pages force deep trees
  std::unique_ptr<InMemoryPageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeTest, EmptyTreeBehaviour) {
  std::string v;
  EXPECT_TRUE(tree_->Get(Key(1), &v).IsNotFound());
  EXPECT_TRUE(tree_->Delete(Key(1)).IsNotFound());
  EXPECT_EQ(tree_->size(), 0u);
  auto it = tree_->Begin();
  EXPECT_FALSE(it->Valid());
}

TEST_F(BPlusTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_->Put(Key(5), "five").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(Key(5), &v).ok());
  EXPECT_EQ(v, "five");
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BPlusTreeTest, PutOverwrites) {
  ASSERT_TRUE(tree_->Put(Key(5), "old").ok());
  ASSERT_TRUE(tree_->Put(Key(5), "new").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(Key(5), &v).ok());
  EXPECT_EQ(v, "new");
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BPlusTreeTest, ManyInsertsAscending) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "v" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(tree_->size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    std::string v;
    ASSERT_TRUE(tree_->Get(Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
}

TEST_F(BPlusTreeTest, ManyInsertsDescending) {
  for (int i = 1999; i >= 0; --i) {
    ASSERT_TRUE(tree_->Put(Key(i), "v" + std::to_string(i)).ok()) << i;
  }
  for (int i = 0; i < 2000; ++i) {
    std::string v;
    ASSERT_TRUE(tree_->Get(Key(i), &v).ok()) << i;
  }
}

TEST_F(BPlusTreeTest, IterationIsSortedAndComplete) {
  Random rng(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    int k = static_cast<int>(rng.Uniform(100000));
    model[Key(k)] = "v" + std::to_string(k);
    ASSERT_TRUE(tree_->Put(Key(k), model[Key(k)]).ok());
  }
  auto it = tree_->Begin();
  auto mit = model.begin();
  while (mit != model.end()) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), mit->first);
    EXPECT_EQ(it->value().ToString(), mit->second);
    it->Next();
    ++mit;
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BPlusTreeTest, SeekFindsLowerBound) {
  for (int i = 0; i < 100; i += 10) {
    ASSERT_TRUE(tree_->Put(Key(i), std::to_string(i)).ok());
  }
  auto it = tree_->Seek(Key(35));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "40");
  it = tree_->Seek(Key(40));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "40");
  it = tree_->Seek(Key(91));
  EXPECT_FALSE(it->Valid());
  it = tree_->Seek(Key(0));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "0");
}

TEST_F(BPlusTreeTest, DeleteThenMissing) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "x").ok());
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(tree_->Delete(Key(i)).ok()) << i;
  }
  EXPECT_EQ(tree_->size(), 250u);
  std::string v;
  for (int i = 0; i < 500; ++i) {
    Status st = tree_->Get(Key(i), &v);
    if (i % 2 == 0) {
      EXPECT_TRUE(st.IsNotFound()) << i;
    } else {
      EXPECT_TRUE(st.ok()) << i;
    }
  }
}

TEST_F(BPlusTreeTest, DeleteEverythingFreesPages) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "payload-" + std::to_string(i)).ok());
  }
  uint64_t peak_pages = tree_->num_pages();
  EXPECT_GT(peak_pages, 10u);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Delete(Key(i)).ok()) << i;
  }
  EXPECT_EQ(tree_->size(), 0u);
  // Tree collapses to (at most a handful of) pages.
  EXPECT_LE(tree_->num_pages(), 3u);
  auto it = tree_->Begin();
  EXPECT_FALSE(it->Valid());
  // And is still usable.
  ASSERT_TRUE(tree_->Put(Key(7), "back").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(Key(7), &v).ok());
  EXPECT_EQ(v, "back");
}

TEST_F(BPlusTreeTest, VariableLengthKeysAndValues) {
  Random rng(5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 800; ++i) {
    std::string k(1 + rng.Uniform(40), 'a');
    for (auto& c : k) c = static_cast<char>('a' + rng.Uniform(26));
    std::string val(rng.Uniform(80), 'v');
    model[k] = val;
    ASSERT_TRUE(tree_->Put(k, val).ok());
  }
  for (const auto& [k, val] : model) {
    std::string v;
    ASSERT_TRUE(tree_->Get(k, &v).ok());
    EXPECT_EQ(v, val);
  }
  EXPECT_EQ(tree_->size(), model.size());
}

TEST_F(BPlusTreeTest, RejectsOversizedCell) {
  std::string huge(page_size_, 'x');
  EXPECT_TRUE(tree_->Put("k", huge).IsInvalidArgument());
}

// Differential test: random interleaved Put/Delete/Get/scan vs std::map.
TEST_F(BPlusTreeTest, RandomizedDifferentialAgainstStdMap) {
  Random rng(2005);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 20000; ++op) {
    int key_int = static_cast<int>(rng.Uniform(3000));
    std::string k = Key(key_int);
    uint64_t action = rng.Uniform(10);
    if (action < 5) {
      std::string val = "val" + std::to_string(rng.Uniform(1000));
      ASSERT_TRUE(tree_->Put(k, val).ok());
      model[k] = val;
    } else if (action < 8) {
      Status st = tree_->Delete(k);
      if (model.erase(k) > 0) {
        EXPECT_TRUE(st.ok()) << op;
      } else {
        EXPECT_TRUE(st.IsNotFound()) << op;
      }
    } else {
      std::string v;
      Status st = tree_->Get(k, &v);
      auto mit = model.find(k);
      if (mit == model.end()) {
        EXPECT_TRUE(st.IsNotFound()) << op;
      } else {
        ASSERT_TRUE(st.ok()) << op;
        EXPECT_EQ(v, mit->second) << op;
      }
    }
    EXPECT_EQ(tree_->size(), model.size());
  }
  // Final full-scan equivalence.
  auto it = tree_->Begin();
  for (const auto& [k, val] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), val);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BPlusTreeTest, EmptyingASplitLeafKeepsTheChainIntact) {
  // Regression: the leaf split used to rebuild the left page with
  // InitLeaf() and only restore `next`, wiping `prev`. Emptying such a
  // leaf later skipped the predecessor fix-up on unlink, leaving the
  // predecessor's next pointing at a freed page — range scans then
  // walked into unallocated storage. Ascending inserts split the tail
  // leaf (which has a predecessor) repeatedly, so deleting any middle
  // run reproduces it.
  const int n = 200;  // several leaves at 512-byte pages
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  // Delete a contiguous middle run long enough to empty whole leaves.
  for (int i = 60; i < 140; ++i) {
    ASSERT_TRUE(tree_->Delete(Key(i)).ok());
  }
  int count = 0;
  auto it = tree_->Begin();
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(count, n - 80);
  for (int i = 0; i < n; ++i) {
    std::string v;
    Status st = tree_->Get(Key(i), &v);
    if (i >= 60 && i < 140) {
      EXPECT_TRUE(st.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(st.ok()) << i << ": " << st.ToString();
    }
  }
}

TEST_F(BPlusTreeTest, WorksUnderTinyBufferPool) {
  // Pool far smaller than the tree: exercises eviction + writeback under
  // structural changes.
  BufferPool small_pool(store_.get(), 3);
  auto t = BPlusTree::Create(&small_pool);
  ASSERT_TRUE(t.ok());
  auto& tree = *t.value();
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int i = 0; i < 4000; ++i) {
    std::string k = Key(static_cast<int>(rng.Uniform(100000)));
    tree.Put(k, "v" + k);
    model[k] = "v" + k;
  }
  for (const auto& [k, val] : model) {
    std::string v;
    ASSERT_TRUE(tree.Get(k, &v).ok());
    EXPECT_EQ(v, val);
  }
  EXPECT_GT(small_pool.stats().evictions, 0u);
}

// --- B+-tree finger ----------------------------------------------------

// A copy-on-write tree on 256-byte pages, deep enough that a finger's
// fences matter at several levels. Retired pages are kept until the end,
// so every sealed snapshot stays readable while the writer moves on.
class BPlusTreeFingerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = BPlusTree::CreateCow(&pool_, [this](PageId id) {
              retired_.push_back(id);
            }).value();
  }
  void TearDown() override {
    for (PageId id : retired_) EXPECT_TRUE(pool_.FreePage(id).ok());
  }

  static std::string Key(uint32_t k) {
    std::string s;
    PutKeyU32(&s, k);
    return s;
  }

  // Probes `key` through `finger` and checks it against a fresh GetAt
  // and the reference `model`.
  void ExpectSame(BPlusTree::Finger* finger, const TreeSnapshot& snap,
                  const std::map<std::string, std::string>& model,
                  const std::string& key) {
    Slice v;
    Status st = finger->Get(key, &v);
    std::string one_shot;
    Status ref = tree_->GetAt(snap, key, &one_shot);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      EXPECT_TRUE(ref.IsNotFound()) << ref.ToString();
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(ref.ok()) << ref.ToString();
      EXPECT_EQ(v.ToString(), it->second);
      EXPECT_EQ(one_shot, it->second);
    }
  }

  InMemoryPageStore store_{256};
  BufferPool pool_{&store_, 100000};
  std::vector<PageId> retired_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeFingerTest, MatchesGetAtOverKeyStreams) {
  // Even keys in [100, 6100) are present; odd keys, keys below 100 and
  // keys from 6100 up are absent.
  std::map<std::string, std::string> model;
  for (uint32_t k = 100; k < 6100; k += 2) {
    const std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(tree_->Put(Key(k), v).ok());
    model[Key(k)] = v;
  }
  const TreeSnapshot snap = tree_->Seal();
  {
    BPlusTree::Finger fresh(tree_.get(), snap);
    Slice v;
    ASSERT_TRUE(fresh.Get(Key(3000), &v).ok());
    ASSERT_GE(fresh.pinned(), 3) << "the tree should be at least 3 deep";
  }

  std::vector<std::vector<uint32_t>> streams(4);
  for (uint32_t k = 0; k < 6200; ++k) streams[0].push_back(k);  // ascending
  for (uint32_t k = 6200; k-- > 0;) streams[1].push_back(k);     // descending
  Random rng(31);
  for (int i = 0; i < 6000; ++i) {                               // random
    streams[2].push_back(static_cast<uint32_t>(rng.Uniform(6300)));
  }
  for (uint32_t k : {3000u, 3000u, 3001u, 3000u, 100u, 100u, 6098u, 6098u,
                     99u, 0u, 0u, 6100u, 7000u, 7000u, 3000u}) {  // repeated
    streams[3].push_back(k);
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    BPlusTree::Finger finger(tree_.get(), snap);
    for (size_t i = 0; i < streams[s].size(); ++i) {
      ExpectSame(&finger, snap, model, Key(streams[s][i]));
      ASSERT_GE(finger.pinned(), 1);
      if (i % 97 == 0) {
        // Only pinned frames survive a cold flush: the finger holds
        // exactly the pages of its last probe's path.
        ASSERT_TRUE(pool_.EvictAll().ok());
        EXPECT_EQ(pool_.cached_pages(), static_cast<uint64_t>(finger.pinned()));
      }
    }
    // The empty key sorts below every entry.
    ExpectSame(&finger, snap, model, "");
    // A key longer than the 4-byte ones, above the last entry.
    ExpectSame(&finger, snap, model, Key(0xFFFFFFFFu) + "x");
  }
}

TEST_F(BPlusTreeFingerTest, EmptyAndInvalidSnapshotsReadEmpty) {
  BPlusTree::Finger none(nullptr, TreeSnapshot());
  Slice v;
  EXPECT_TRUE(none.Get(Key(1), &v).IsNotFound());
  EXPECT_EQ(none.pinned(), 0);
  BPlusTree::Finger empty(tree_.get(), tree_->Seal());
  EXPECT_TRUE(empty.Get(Key(1), &v).IsNotFound());
  EXPECT_EQ(empty.pinned(), 1);  // the empty root leaf
}

TEST_F(BPlusTreeFingerTest, ProbesSealedSnapshotWhileWriterMutates) {
  std::map<std::string, std::string> model;
  Random rng(8);
  for (int i = 0; i < 3000; ++i) {
    const std::string k = Key(static_cast<uint32_t>(rng.Uniform(8000)));
    ASSERT_TRUE(tree_->Put(k, "old" + k).ok());
    model[k] = "old" + k;
  }
  const TreeSnapshot old_snap = tree_->Seal();
  const std::map<std::string, std::string> old_model = model;
  // Held across every mutation and seal below.
  BPlusTree::Finger old_finger(tree_.get(), old_snap);

  for (int round = 0; round < 60; ++round) {
    // The writer overwrites, deletes and inserts, shadowing the paths
    // the old finger may hold pinned, then seals a newer version.
    for (int i = 0; i < 50; ++i) {
      const std::string k = Key(static_cast<uint32_t>(rng.Uniform(8000)));
      if (rng.OneIn(3)) {
        Status st = tree_->Delete(k);
        ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        model.erase(k);
      } else {
        const std::string v = "r" + std::to_string(round) + k;
        ASSERT_TRUE(tree_->Put(k, v).ok());
        model[k] = v;
      }
    }
    const TreeSnapshot new_snap = tree_->Seal();
    BPlusTree::Finger new_finger(tree_.get(), new_snap);
    // A run of ascending keys on both versions.
    auto k = static_cast<uint32_t>(rng.Uniform(8000));
    for (int j = 0; j < 40; ++j) {
      ExpectSame(&old_finger, old_snap, old_model, Key(k));
      ExpectSame(&new_finger, new_snap, model, Key(k));
      k += 1 + static_cast<uint32_t>(rng.Uniform(30));
    }
  }
}

// --- blob store ---------------------------------------------------------

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<InMemoryPageStore>(256);
    pool_ = std::make_unique<BufferPool>(store_.get(), 64);
    blobs_ = std::make_unique<BlobStore>(pool_.get());
  }

  std::unique_ptr<InMemoryPageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> blobs_;
};

TEST_F(BlobStoreTest, WriteReadRoundTrip) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data += static_cast<char>(i % 251);
  auto ref = blobs_->Write(data);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().size_bytes, data.size());
  EXPECT_EQ(ref.value().num_pages, 4u);  // 1000 bytes over 256-byte pages

  auto reader = blobs_->NewReader(ref.value());
  std::string out(data.size(), '\0');
  ASSERT_TRUE(reader.ReadBytes(out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(reader.AtEnd());
}

TEST_F(BlobStoreTest, ReadPastEndRejected) {
  auto ref = blobs_->Write(std::string("abc"));
  ASSERT_TRUE(ref.ok());
  auto reader = blobs_->NewReader(ref.value());
  char buf[4];
  EXPECT_TRUE(reader.ReadBytes(buf, 4).IsOutOfRange());
  ASSERT_TRUE(reader.ReadBytes(buf, 3).ok());
  EXPECT_TRUE(reader.ReadBytes(buf, 1).IsOutOfRange());
}

TEST_F(BlobStoreTest, VarintsAcrossPageBoundary) {
  std::string data;
  // Fill so a multi-byte varint straddles the 256-byte page boundary.
  for (int i = 0; i < 255; ++i) data.push_back('x');
  PutVarint64(&data, 300);  // 2 bytes: byte 255 and 256
  PutVarint64(&data, 1234567);
  auto ref = blobs_->Write(data);
  ASSERT_TRUE(ref.ok());
  auto reader = blobs_->NewReader(ref.value());
  ASSERT_TRUE(reader.Skip(255).ok());
  uint64_t v;
  ASSERT_TRUE(reader.ReadVarint64(&v).ok());
  EXPECT_EQ(v, 300u);
  ASSERT_TRUE(reader.ReadVarint64(&v).ok());
  EXPECT_EQ(v, 1234567u);
}

TEST_F(BlobStoreTest, SkipAvoidsFetchingSkippedPages) {
  std::string data(256 * 10, 'd');
  auto ref = blobs_->Write(data);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(pool_->EvictAll().ok());
  pool_->ResetStats();

  auto reader = blobs_->NewReader(ref.value());
  ASSERT_TRUE(reader.Skip(256 * 9).ok());
  char c;
  ASSERT_TRUE(reader.ReadBytes(&c, 1).ok());
  EXPECT_EQ(c, 'd');
  EXPECT_EQ(pool_->stats().misses, 1u);  // only the final page was read
}

TEST_F(BlobStoreTest, FloatRoundTrip) {
  std::string data;
  float f = 0.125f;
  data.append(reinterpret_cast<const char*>(&f), 4);
  auto ref = blobs_->Write(data);
  ASSERT_TRUE(ref.ok());
  auto reader = blobs_->NewReader(ref.value());
  float out;
  ASSERT_TRUE(reader.ReadFloat(&out).ok());
  EXPECT_EQ(out, 0.125f);
}

TEST_F(BlobStoreTest, FreeReturnsPages) {
  auto ref = blobs_->Write(std::string(2000, 'z'));
  ASSERT_TRUE(ref.ok());
  uint64_t live_before = store_->live_pages();
  ASSERT_TRUE(blobs_->Free(ref.value()).ok());
  EXPECT_LT(store_->live_pages(), live_before);
  EXPECT_EQ(blobs_->total_pages(), 0u);
}

TEST_F(BlobStoreTest, EmptyBlobIsValid) {
  auto ref = blobs_->Write(Slice());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(ref.value().valid());
  EXPECT_EQ(ref.value().size_bytes, 0u);
  auto reader = blobs_->NewReader(ref.value());
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace svr::storage
