#include "storage/buffer_pool.h"

#include <cassert>

namespace svr::storage {

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = other.frame_;
    data_ = other.data_;
    other.frame_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::Release() {
  if (frame_ != nullptr) {
    BufferPool::Unpin(frame_);
    frame_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(PageStore* store, uint64_t capacity_pages)
    : store_(store), capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

BufferPool::~BufferPool() {
  // Best-effort flush; errors are unreportable from a destructor.
  (void)FlushAll();
}

void BufferPool::Unpin(Frame* frame) {
  // Release: this pin's writes to the page happen before an evictor's
  // writeback, which reads the count with acquire.
  [[maybe_unused]] const int32_t was =
      frame->pin_count.fetch_sub(1, std::memory_order_release);
  assert(was > 0);
}

void BufferPool::Hit(Partition& part, Frame* frame, PageHandle* handle) {
  frame->pin_count.fetch_add(1, std::memory_order_relaxed);
  if (!frame->referenced.load(std::memory_order_relaxed)) {
    frame->referenced.store(true, std::memory_order_relaxed);
  }
  part.hits.fetch_add(1, std::memory_order_relaxed);
  *handle = PageHandle(frame, frame->data.get());
}

void BufferPool::Insert(Partition& part, std::unique_ptr<Frame> frame) {
  Frame* raw = frame.get();
  [[maybe_unused]] const bool inserted =
      part.frames.emplace(raw->id, std::move(frame)).second;
  assert(inserted);
  num_frames_.fetch_add(1, std::memory_order_relaxed);
  raw->pending_next = pending_.load(std::memory_order_relaxed);
  while (!pending_.compare_exchange_weak(raw->pending_next, raw,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
  }
}

void BufferPool::DrainPending() {
  Frame* f = pending_.exchange(nullptr, std::memory_order_acquire);
  while (f != nullptr) {
    f->ring_pos = ring_.size();
    ring_.push_back(f);
    f = f->pending_next;
  }
  if (ring_holes_ * 2 > ring_.size()) CompactRing();
}

Status BufferPool::WriteBack(Partition& part, Frame* frame) {
  if (frame->dirty.load(std::memory_order_relaxed)) {
    SVR_RETURN_NOT_OK(store_->Write(frame->id, frame->data.get()));
    frame->dirty.store(false, std::memory_order_relaxed);
    part.writebacks.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void BufferPool::Drop(Partition& part, Frame* frame) {
  // Leaves a hole rather than moving another frame into the slot, which
  // would hand that frame a second look in the same sweep.
  ring_[frame->ring_pos] = nullptr;
  ++ring_holes_;
  ++part.drops;
  num_frames_.fetch_sub(1, std::memory_order_relaxed);
  part.frames.erase(frame->id);
}

void BufferPool::CompactRing() {
  size_t kept = 0;
  size_t hand = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    if (i == hand_) hand = kept;
    if (ring_[i] == nullptr) continue;
    ring_[i]->ring_pos = kept;
    ring_[kept++] = ring_[i];
  }
  ring_.resize(kept);
  ring_holes_ = 0;
  hand_ = hand;
}

Status BufferPool::MakeRoom() {
  MutexLock lock(evict_mu_);
  DrainPending();
  // Each frame is passed at most twice: once to clear its reference bit,
  // once to evict it. Pinned frames are skipped, so a fully pinned pool
  // ends the sweep and grows past capacity instead.
  for (size_t budget = 2 * ring_.size();
       budget > 0 &&
       num_frames_.load(std::memory_order_relaxed) >= capacity_;
       --budget, ++hand_) {
    if (hand_ >= ring_.size()) hand_ = 0;
    Frame* f = ring_[hand_];
    if (f == nullptr) continue;
    if (f->referenced.load(std::memory_order_relaxed)) {
      f->referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    if (f->pin_count.load(std::memory_order_relaxed) > 0) continue;
    Partition& part = PartitionFor(f->id);
    WriterMutexLock part_lock(part.mu);
    // Pins are taken only under the partition lock, so a zero count
    // read while holding it exclusively stays zero.
    if (f->pin_count.load(std::memory_order_acquire) > 0) continue;
    SVR_RETURN_NOT_OK(WriteBack(part, f));
    part.evictions.fetch_add(1, std::memory_order_relaxed);
    Drop(part, f);
  }
  return Status::OK();
}

Status BufferPool::Fetch(PageId id, PageHandle* handle) {
  Partition& part = PartitionFor(id);
  uint64_t drops;
  {
    ReaderMutexLock lock(part.mu);
    auto it = part.frames.find(id);
    if (it != part.frames.end()) {
      Hit(part, it->second.get(), handle);
      return Status::OK();
    }
    drops = part.drops;
  }

  if (num_frames_.load(std::memory_order_relaxed) >= capacity_) {
    SVR_RETURN_NOT_OK(MakeRoom());
  }
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  // Not zeroed: the store read overwrites every byte.
  frame->data.reset(new char[store_->page_size()]);
  Status read = store_->Read(id, frame->data.get());

  WriterMutexLock lock(part.mu);
  auto it = part.frames.find(id);
  if (it != part.frames.end()) {
    Hit(part, it->second.get(), handle);  // another miss inserted it first
    return Status::OK();
  }
  part.misses.fetch_add(1, std::memory_order_relaxed);
  if (read.ok() && part.drops != drops) {
    read = store_->Read(id, frame->data.get());
  }
  SVR_RETURN_NOT_OK(read);
  frame->pin_count.store(1, std::memory_order_relaxed);
  *handle = PageHandle(frame.get(), frame->data.get());
  Insert(part, std::move(frame));
  return Status::OK();
}

Status BufferPool::NewPage(PageHandle* handle) {
  SVR_ASSIGN_OR_RETURN(PageId id, store_->Allocate());
  if (num_frames_.load(std::memory_order_relaxed) >= capacity_) {
    SVR_RETURN_NOT_OK(MakeRoom());
  }
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  frame->data = std::make_unique<char[]>(store_->page_size());  // zeroed
  frame->pin_count.store(1, std::memory_order_relaxed);
  frame->dirty.store(true, std::memory_order_relaxed);
  *handle = PageHandle(frame.get(), frame->data.get());
  Partition& part = PartitionFor(id);
  WriterMutexLock lock(part.mu);
  Insert(part, std::move(frame));
  return Status::OK();
}

Result<PageId> BufferPool::AllocateRun(uint32_t n) {
  return store_->AllocateRun(n);
}

Status BufferPool::FreePage(PageId id) {
  MutexLock lock(evict_mu_);
  DrainPending();
  Partition& part = PartitionFor(id);
  {
    WriterMutexLock part_lock(part.mu);
    auto it = part.frames.find(id);
    if (it != part.frames.end()) {
      Frame* f = it->second.get();
      if (f->pin_count.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("freeing a pinned page");
      }
      Drop(part, f);
    }
  }
  return store_->Free(id);
}

Status BufferPool::FlushAll() {
  for (Partition& part : partitions_) {
    ReaderMutexLock lock(part.mu);
    for (auto& [id, frame] : part.frames) {
      SVR_RETURN_NOT_OK(WriteBack(part, frame.get()));
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  MutexLock lock(evict_mu_);
  DrainPending();
  for (Partition& part : partitions_) {
    WriterMutexLock part_lock(part.mu);
    for (auto it = part.frames.begin(); it != part.frames.end();) {
      Frame* f = (it++)->second.get();
      SVR_RETURN_NOT_OK(WriteBack(part, f));
      if (f->pin_count.load(std::memory_order_acquire) == 0) Drop(part, f);
    }
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  for (const Partition& part : partitions_) {
    s.hits += part.hits.load(std::memory_order_relaxed);
    s.misses += part.misses.load(std::memory_order_relaxed);
    s.evictions += part.evictions.load(std::memory_order_relaxed);
    s.writebacks += part.writebacks.load(std::memory_order_relaxed);
  }
  s.fetches = s.hits + s.misses;
  return s;
}

void BufferPool::ResetStats() {
  for (Partition& part : partitions_) {
    part.hits.store(0, std::memory_order_relaxed);
    part.misses.store(0, std::memory_order_relaxed);
    part.evictions.store(0, std::memory_order_relaxed);
    part.writebacks.store(0, std::memory_order_relaxed);
  }
}

}  // namespace svr::storage
