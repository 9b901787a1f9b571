#ifndef SVR_STORAGE_BUFFER_POOL_H_
#define SVR_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace svr::storage {

/// Cache statistics, the reproduction's scale-free cost model: a query's
/// `misses` delta is the number of disk pages it would have touched on
/// the paper's hardware.
struct BufferPoolStats {
  uint64_t fetches = 0;      // Fetch() calls
  uint64_t hits = 0;         // served from cache
  uint64_t misses = 0;       // required a PageStore read
  uint64_t evictions = 0;
  uint64_t writebacks = 0;   // dirty pages written on evict/flush

  uint64_t io_reads() const { return misses; }
};

class BufferPool;

/// RAII pin on a cached page. While a PageHandle is live the frame cannot
/// be evicted. Move-only. Holds the frame pointer directly, so releasing
/// a pin (the hottest page-touch operation: every posting-block refill
/// crosses it) is one atomic decrement: no lock, no hash lookup.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return frame_ != nullptr; }
  PageId id() const;

  const char* data() const { return data_; }
  /// Grants write access and marks the frame dirty.
  char* mutable_data();

  /// Drops the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  struct Frame;
  PageHandle(Frame* frame, char* data) : frame_(frame), data_(data) {}

  Frame* frame_ = nullptr;
  char* data_ = nullptr;
};

/// \brief CLOCK page cache over a PageStore — the analogue of the
/// BerkeleyDB mpool cache (§5.2 of the paper used a 100 MB cache).
///
/// Built so that a hit on a resident page takes no exclusive lock, writes
/// no shared list and bumps no pool-wide counter: every query thread
/// pins Score-table and list pages at once (a query's fingers keep their
/// Score-table path pinned, but each leaf change and each list block
/// still pins a page).
///
///  - The frame table is split into kPartitions partitions by hashed
///    PageId, each with its own SharedMutex, map and counters, padded to
///    a cache line.
///  - A hit takes one partition's reader lock, increments the frame's
///    atomic pin count and sets its reference bit. An unpin is a single
///    atomic decrement and takes no lock.
///  - New frames start with the reference bit clear, so a page is kept
///    over others only once it has been hit again after loading: pages a
///    list scan reads once go first, ahead of the lists queries share.
///  - Replacement is CLOCK (second chance) over a ring of all frames,
///    guarded by evict_mu_, and runs only when a miss or NewPage finds
///    the pool at capacity. A victim is erased under its partition's
///    exclusive lock and only if its pin count is zero; pins are taken
///    only under the partition lock, so that check cannot race a new pin.
///  - A miss reads the page from the store outside every pool lock, then
///    re-checks on insert: if another thread inserted the page first, it
///    pins that frame and counts a hit.
///
/// Lock order: evict_mu_, then a partition mutex, then the store's mutex.
///
/// Capacity is expressed in pages. When every frame is pinned the pool
/// grows past capacity rather than failing; steady-state working sets in
/// this codebase pin O(tree depth) pages.
///
/// Thread-safe: pins/unpins may come from any thread (queries, the
/// background merge worker, epoch reclamation). Page *contents* are not
/// synchronized here — writers of a given page must be serialized by the
/// caller (docs/concurrency.md: table-side pages are only written under
/// the engine's exclusive lock; blob pages are immutable once published).
class BufferPool {
 public:
  BufferPool(PageStore* store, uint64_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the store on miss.
  Status Fetch(PageId id, PageHandle* handle) EXCLUDES(evict_mu_);

  /// Allocates a zeroed page, pins it, and marks it dirty.
  Status NewPage(PageHandle* handle) EXCLUDES(evict_mu_);

  /// Allocates `n` contiguous pages without caching them (bulk blob
  /// writes go straight to the store).
  Result<PageId> AllocateRun(uint32_t n);

  /// Drops page `id` from the cache (no writeback) and frees it in the
  /// store. The page must not be pinned.
  Status FreePage(PageId id) EXCLUDES(evict_mu_);

  /// Writes all dirty frames back to the store.
  Status FlushAll();

  /// Flush + drop every unpinned frame. This is the paper's "cold cache"
  /// protocol for query measurements (§5.2).
  Status EvictAll() EXCLUDES(evict_mu_);

  /// By-value sum of the per-partition counters. Each counter is exact;
  /// a snapshot taken while other threads fetch may mix counts from
  /// slightly different instants.
  BufferPoolStats stats() const;
  BufferPoolStats StatsSnapshot() const { return stats(); }
  void ResetStats();

  uint64_t capacity_pages() const { return capacity_; }
  uint64_t cached_pages() const {
    return num_frames_.load(std::memory_order_relaxed);
  }
  uint32_t page_size() const { return store_->page_size(); }
  PageStore* store() const { return store_; }

 private:
  friend class PageHandle;

  using Frame = PageHandle::Frame;

  static constexpr int kPartitionBits = 6;
  static constexpr size_t kPartitions = size_t{1} << kPartitionBits;

  struct alignas(64) Partition {
    SharedMutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames GUARDED_BY(mu);
    /// Frames erased from this partition so far. A miss that finds it
    /// moved between its lookup and its insert re-reads the page: its
    /// store read may predate the writeback of a frame dropped since.
    uint64_t drops GUARDED_BY(mu) = 0;
    // Relaxed statistics; fetches = hits + misses.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> writebacks{0};
  };

  static void Unpin(Frame* frame);
  Partition& PartitionFor(PageId id) {
    // Fibonacci hashing: consecutive page ids land in different
    // partitions.
    return partitions_[(uint64_t{id} * 0x9E3779B97F4A7C15ull) >>
                       (64 - kPartitionBits)];
  }
  // Pins resident `frame` of `part` into `handle` and counts a hit.
  static void Hit(Partition& part, Frame* frame, PageHandle* handle)
      REQUIRES_SHARED(part.mu);
  // Publishes a new pinned frame in `part` (exclusive lock held) and
  // queues it for the ring.
  void Insert(Partition& part, std::unique_ptr<Frame> frame)
      REQUIRES(part.mu);
  // Writes `frame` of `part` back to the store if it is dirty.
  Status WriteBack(Partition& part, Frame* frame) REQUIRES_SHARED(part.mu);
  // Erases an unpinned `frame` from `part` and from the ring.
  void Drop(Partition& part, Frame* frame) REQUIRES(evict_mu_, part.mu);
  // Moves frames queued by Insert onto the ring, and compacts the ring
  // once Drop's holes are half of it.
  void DrainPending() REQUIRES(evict_mu_);
  // Squeezes the holes Drop left out of the ring, keeping its order.
  void CompactRing() REQUIRES(evict_mu_);
  // Runs the CLOCK hand until below capacity. Best effort: stops after
  // two sweeps that found every frame pinned.
  Status MakeRoom() EXCLUDES(evict_mu_);

  PageStore* store_;
  uint64_t capacity_;
  Partition partitions_[kPartitions];
  std::atomic<uint64_t> num_frames_{0};

  /// Guards the CLOCK ring and hand.
  Mutex evict_mu_;
  /// Every frame not still on pending_, in insertion order; null where a
  /// frame was dropped (ring_holes_ of them).
  std::vector<Frame*> ring_ GUARDED_BY(evict_mu_);
  size_t ring_holes_ GUARDED_BY(evict_mu_) = 0;
  size_t hand_ GUARDED_BY(evict_mu_) = 0;
  /// Lock-free stack of frames inserted since the last DrainPending, so
  /// an insert below capacity takes one partition lock and no evict_mu_.
  std::atomic<Frame*> pending_{nullptr};
};

/// Full frame definition (here so PageHandle's inline accessors and the
/// pool share it; callers only see the opaque forward declaration).
struct PageHandle::Frame {
  PageId id = kInvalidPageId;
  std::unique_ptr<char[]> data;
  std::atomic<int32_t> pin_count{0};
  /// CLOCK reference bit: set by a hit, cleared by the passing hand. A
  /// frame starts unreferenced, so a page read once (one pass of a list
  /// scan) goes before pages that were read again.
  std::atomic<bool> referenced{false};
  std::atomic<bool> dirty{false};
  Frame* pending_next = nullptr;  // link in BufferPool::pending_
  size_t ring_pos = 0;            // index in BufferPool::ring_
};

inline PageId PageHandle::id() const {
  return frame_ != nullptr ? frame_->id : kInvalidPageId;
}

inline void PageHandle::Release() {
  if (frame_ != nullptr) {
    BufferPool::Unpin(frame_);
    frame_ = nullptr;
    data_ = nullptr;
  }
}

inline char* PageHandle::mutable_data() {
  assert(valid());
  frame_->dirty.store(true, std::memory_order_relaxed);
  return data_;
}

}  // namespace svr::storage

#endif  // SVR_STORAGE_BUFFER_POOL_H_
