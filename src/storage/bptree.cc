#include "storage/bptree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "common/coding.h"

namespace svr::storage {

namespace {

// Node page layout. All integers little-endian.
//
//   [0]      uint8  type: 1 = leaf, 0 = internal
//   [1]      uint8  reserved
//   [2..3]   uint16 nslots
//   [4..5]   uint16 cell_start (offset of the lowest cell byte)
//   [6..7]   uint16 frag (bytes lost to deleted cells)
//   [8..11]  uint32 next leaf (leaf) / rightmost child (internal)
//   [12..15] uint32 prev leaf (leaf only)
//   [16..]   slot array: nslots x uint16 cell offsets, sorted by key
//
// Cells grow down from the end of the page.
//   leaf cell:     varint klen | key | varint vlen | value
//   internal cell: varint klen | key | fixed32 child page id
//
// The leaf prev/next header fields are vestigial: iterators advance
// through their root-to-leaf descent path (sibling links would make
// copy-on-write shadowing cascade into neighbours), so no code reads or
// maintains a leaf chain anymore. Internal nodes still use the "next"
// slot as their rightmost child pointer.
constexpr int kHeaderSize = 16;

uint16_t Load16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void Store16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }
uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void Store32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

// Lightweight accessor over one pinned node page.
class NodeView {
 public:
  NodeView(char* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  bool leaf() const { return data_[0] == 1; }
  void InitLeaf() { Init(/*leaf=*/true); }
  void InitInternal() { Init(/*leaf=*/false); }

  int nslots() const { return Load16(data_ + 2); }
  uint16_t cell_start() const { return Load16(data_ + 4); }
  uint16_t frag() const { return Load16(data_ + 6); }

  PageId next() const { return Load32(data_ + 8); }
  void set_next(PageId id) { Store32(data_ + 8, id); }
  PageId prev() const { return Load32(data_ + 12); }
  void set_prev(PageId id) { Store32(data_ + 12, id); }
  // Internal nodes reuse the "next" field for the rightmost child.
  PageId rightmost() const { return next(); }
  void set_rightmost(PageId id) { set_next(id); }

  uint16_t SlotOffset(int i) const {
    return Load16(data_ + kHeaderSize + 2 * i);
  }

  Slice Key(int i) const {
    Slice cell = CellAt(i);
    uint32_t klen;
    GetVarint32(&cell, &klen);
    return Slice(cell.data(), klen);
  }

  Slice Value(int i) const {
    Slice cell = CellAt(i);
    uint32_t klen;
    GetVarint32(&cell, &klen);
    cell.remove_prefix(klen);
    uint32_t vlen;
    GetVarint32(&cell, &vlen);
    return Slice(cell.data(), vlen);
  }

  PageId Child(int i) const {
    Slice cell = CellAt(i);
    uint32_t klen;
    GetVarint32(&cell, &klen);
    cell.remove_prefix(klen);
    return Load32(cell.data());
  }

  void SetChild(int i, PageId child) {
    Slice cell = CellAt(i);
    uint32_t klen;
    const char* base = cell.data();
    GetVarint32(&cell, &klen);
    char* p = data_ + (cell.data() - data_) + klen;
    (void)base;
    Store32(p, child);
  }

  /// Child pointer by *child index* in [0, nslots()]: entry children
  /// first, the rightmost pointer last.
  PageId ChildAt(int i) const {
    return i < nslots() ? Child(i) : rightmost();
  }

  // First slot whose key is >= `key`; sets *exact if equal.
  int LowerBound(const Slice& key, bool* exact) const {
    int lo = 0, hi = nslots();
    *exact = false;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      int c = Key(mid).compare(key);
      if (c < 0) {
        lo = mid + 1;
      } else {
        if (c == 0) *exact = true;
        hi = mid;
      }
    }
    return lo;
  }

  // First slot whose key is > `key` (internal-node routing).
  int UpperBound(const Slice& key) const {
    int lo = 0, hi = nslots();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (Key(mid).compare(key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  int FreeSpace() const {
    return static_cast<int>(cell_start()) - kHeaderSize - 2 * nslots();
  }

  // True if a cell of `cell_size` bytes fits without compaction.
  bool Fits(size_t cell_size) const {
    return FreeSpace() >= static_cast<int>(cell_size) + 2;
  }

  // True if it fits after reclaiming fragmentation.
  bool FitsAfterCompaction(size_t cell_size) const {
    return FreeSpace() + frag() >= static_cast<int>(cell_size) + 2;
  }

  // Inserts a prebuilt cell at slot `i`. Caller must ensure Fits().
  void InsertCell(int i, const Slice& cell) {
    assert(Fits(cell.size()));
    int n = nslots();
    uint16_t new_start = cell_start() - static_cast<uint16_t>(cell.size());
    std::memcpy(data_ + new_start, cell.data(), cell.size());
    // Shift the slot array to open slot i.
    char* slots = data_ + kHeaderSize;
    std::memmove(slots + 2 * (i + 1), slots + 2 * i, 2 * (n - i));
    Store16(slots + 2 * i, new_start);
    Store16(data_ + 2, static_cast<uint16_t>(n + 1));
    Store16(data_ + 4, new_start);
  }

  void RemoveCell(int i) {
    int n = nslots();
    assert(i < n);
    Store16(data_ + 6, frag() + static_cast<uint16_t>(CellSize(i)));
    char* slots = data_ + kHeaderSize;
    std::memmove(slots + 2 * i, slots + 2 * (i + 1), 2 * (n - i - 1));
    Store16(data_ + 2, static_cast<uint16_t>(n - 1));
  }

  // Rewrites all cells tightly packed (drops fragmentation).
  void Compact(std::string* scratch) {
    scratch->assign(data_, page_size_);
    NodeView src(scratch->data(), page_size_);
    const bool was_leaf = leaf();
    const PageId nx = next();
    const PageId pv = prev();
    if (was_leaf) {
      InitLeaf();
    } else {
      InitInternal();
    }
    set_next(nx);
    set_prev(pv);
    for (int i = 0; i < src.nslots(); ++i) {
      Slice cell = src.CellAt(i);
      InsertCell(i, Slice(cell.data(), src.CellSize(i)));
    }
  }

  size_t CellSize(int i) const {
    Slice cell = CellAt(i);
    const char* base = cell.data();
    uint32_t klen;
    GetVarint32(&cell, &klen);
    cell.remove_prefix(klen);
    if (leaf()) {
      uint32_t vlen;
      GetVarint32(&cell, &vlen);
      return static_cast<size_t>(cell.data() + vlen - base);
    }
    return static_cast<size_t>(cell.data() + 4 - base);
  }

  Slice CellAt(int i) const {
    uint16_t off = SlotOffset(i);
    return Slice(data_ + off, page_size_ - off);
  }

  char* data() { return data_; }
  uint32_t page_size() const { return page_size_; }

 private:
  void Init(bool leaf) {
    std::memset(data_, 0, kHeaderSize);
    data_[0] = leaf ? 1 : 0;
    Store16(data_ + 2, 0);
    Store16(data_ + 4, static_cast<uint16_t>(page_size_));
    Store16(data_ + 6, 0);
    Store32(data_ + 8, kInvalidPageId);
    Store32(data_ + 12, kInvalidPageId);
  }

  char* data_;
  uint32_t page_size_;
};

std::string MakeLeafCell(const Slice& key, const Slice& value) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutVarint32(&cell, static_cast<uint32_t>(value.size()));
  cell.append(value.data(), value.size());
  return cell;
}

std::string MakeInternalCell(const Slice& key, PageId child) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  char buf[4];
  Store32(buf, child);
  cell.append(buf, 4);
  return cell;
}

size_t MaxCellSize(uint32_t page_size) {
  // Guarantee at least 4 cells per page so splits always make progress.
  return (page_size - kHeaderSize) / 4 - 2;
}

}  // namespace

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(BufferPool* pool) {
  PageHandle h;
  SVR_RETURN_NOT_OK(pool->NewPage(&h));
  NodeView node(h.mutable_data(), pool->page_size());
  node.InitLeaf();
  PageId root = h.id();
  return std::unique_ptr<BPlusTree>(new BPlusTree(pool, root, 0, 1));
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::CreateCow(BufferPool* pool,
                                                        PageRetirer retire) {
  SVR_ASSIGN_OR_RETURN(auto tree, Create(pool));
  tree->cow_ = true;
  tree->retire_ = std::move(retire);
  tree->private_pages_.insert(tree->root_);
  return tree;
}

std::unique_ptr<BPlusTree> BPlusTree::Open(BufferPool* pool, PageId root,
                                           uint64_t size) {
  return std::unique_ptr<BPlusTree>(new BPlusTree(pool, root, size, 0));
}

TreeSnapshot BPlusTree::Seal() {
  if (cow_) private_pages_.clear();
  return TreeSnapshot{root_, size_};
}

Result<PageId> BPlusTree::NewNodePage(bool leaf, PageHandle* handle) {
  SVR_RETURN_NOT_OK(pool_->NewPage(handle));
  NodeView node(handle->mutable_data(), pool_->page_size());
  if (leaf) {
    node.InitLeaf();
  } else {
    node.InitInternal();
  }
  ++num_pages_;
  if (cow_) private_pages_.insert(handle->id());
  return handle->id();
}

Status BPlusTree::RetireSharedPage(PageId id) {
  if (retire_) {
    retire_(id);
    return Status::OK();
  }
  return pool_->FreePage(id);
}

Status BPlusTree::FreeNodePage(PageId id) {
  --num_pages_;
  if (cow_ && private_pages_.count(id) == 0) {
    // The page belongs to a sealed version: a snapshot reader may still
    // be descending through it, so the actual free is deferred.
    return RetireSharedPage(id);
  }
  private_pages_.erase(id);
  return pool_->FreePage(id);
}

Status BPlusTree::FindLeafForWrite(const Slice& key, PageHandle* leaf,
                                   std::vector<PathEntry>* path) {
  // Shadowed descent (COW): every page on the path ends up private,
  // relinked in its (already private) parent before we step into it, so
  // the caller and InsertIntoParent/RemoveFromParent may mutate any of
  // them in place. Sealed versions keep the originals. In place, every
  // page is private and the descent is a plain one.
  PageId current = root_;
  PageHandle parent;  // pinned private parent of `current`
  int parent_slot = -1;
  while (true) {
    PageHandle h;
    SVR_RETURN_NOT_OK(pool_->Fetch(current, &h));
    if (!IsPrivate(current)) {
      PageHandle copy;
      SVR_RETURN_NOT_OK(pool_->NewPage(&copy));
      std::memcpy(copy.mutable_data(), h.data(), pool_->page_size());
      h.Release();  // a null retirer frees immediately; drop the pin first
      private_pages_.insert(copy.id());
      if (!parent.valid()) {
        root_ = copy.id();
      } else {
        NodeView pv(parent.mutable_data(), pool_->page_size());
        if (parent_slot == -1) {
          pv.set_rightmost(copy.id());
        } else {
          pv.SetChild(parent_slot, copy.id());
        }
      }
      SVR_RETURN_NOT_OK(RetireSharedPage(current));
      current = copy.id();
      h = std::move(copy);
    }
    // Routing only reads; the caller marks what it mutates dirty.
    NodeView node(const_cast<char*>(h.data()), pool_->page_size());
    if (node.leaf()) {
      *leaf = std::move(h);
      return Status::OK();
    }
    int slot = node.UpperBound(key);
    if (slot < node.nslots()) {
      path->push_back({current, slot});
      parent_slot = slot;
      current = node.Child(slot);
    } else {
      path->push_back({current, -1});
      parent_slot = -1;
      current = node.rightmost();
    }
    parent = std::move(h);
  }
}

Status BPlusTree::Finger::Push(PageId id, const Slice& lo, const Slice& hi,
                               bool has_hi) {
  Level* level = new (&slots_[depth_].level) Level{PageHandle(), lo, hi,
                                                   has_hi};
  Status st = tree_->pool_->Fetch(id, &level->page);
  if (!st.ok()) {
    level->~Level();
    return st;
  }
  ++depth_;
  return Status::OK();
}

Status BPlusTree::Finger::Get(const Slice& key, Slice* value) {
  if (root_ == kInvalidPageId) return Status::NotFound("key not in tree");
  // Levels nest, so the deepest one that covers `key` is where the
  // descent resumes; everything below it is released.
  while (depth_ > 0 && (key.compare(top().lo) < 0 ||
                        (top().has_hi && key.compare(top().hi) >= 0))) {
    Pop();
  }
  if (depth_ == 0) {
    SVR_RETURN_NOT_OK(Push(root_, Slice(), Slice(), /*has_hi=*/false));
  }
  const uint32_t page_size = tree_->pool_->page_size();
  while (true) {
    const Level& parent = top();
    NodeView node(const_cast<char*>(parent.page.data()), page_size);
    if (node.leaf()) {
      bool exact;
      const int slot = node.LowerBound(key, &exact);
      if (!exact) return Status::NotFound("key not in tree");
      *value = node.Value(slot);
      return Status::OK();
    }
    if (depth_ == kMaxDepth) {
      return Status::Corruption("B+-tree deeper than a finger's path");
    }
    // Child `slot` routes [Key(slot - 1), Key(slot)); the outermost
    // children inherit the parent's own fence on their open side.
    const int slot = node.UpperBound(key);
    const bool inner_hi = slot < node.nslots();
    SVR_RETURN_NOT_OK(Push(node.ChildAt(slot),
                           slot > 0 ? node.Key(slot - 1) : parent.lo,
                           inner_hi ? node.Key(slot) : parent.hi,
                           inner_hi || parent.has_hi));
  }
}

Status BPlusTree::Get(const Slice& key, std::string* value) const {
  return GetAt(TreeSnapshot{root_, size_}, key, value);
}

Status BPlusTree::GetAt(const TreeSnapshot& snap, const Slice& key,
                        std::string* value) const {
  Finger finger(this, snap);
  Slice v;
  SVR_RETURN_NOT_OK(finger.Get(key, &v));
  value->assign(v.data(), v.size());
  return Status::OK();
}

Status BPlusTree::Put(const Slice& key, const Slice& value) {
  const std::string cell = MakeLeafCell(key, value);
  if (cell.size() > MaxCellSize(pool_->page_size())) {
    return Status::InvalidArgument("key+value too large for page");
  }

  std::vector<PathEntry> path;
  PageHandle leaf;
  SVR_RETURN_NOT_OK(FindLeafForWrite(key, &leaf, &path));
  NodeView node(leaf.mutable_data(), pool_->page_size());

  bool exact;
  int slot = node.LowerBound(key, &exact);
  if (exact) {
    node.RemoveCell(slot);
    --size_;
  }

  if (node.Fits(cell.size())) {
    node.InsertCell(slot, cell);
    ++size_;
    return Status::OK();
  }
  if (node.FitsAfterCompaction(cell.size())) {
    std::string scratch;
    node.Compact(&scratch);
    node.InsertCell(slot, cell);
    ++size_;
    return Status::OK();
  }

  // Split: gather all cells (with the new one in place), rebuild two pages
  // balanced by bytes.
  std::vector<std::string> cells;
  cells.reserve(node.nslots() + 1);
  for (int i = 0; i < node.nslots(); ++i) {
    if (i == slot) cells.push_back(cell);
    Slice c = node.CellAt(i);
    cells.emplace_back(c.data(), node.CellSize(i));
  }
  if (slot == node.nslots()) cells.push_back(cell);

  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 2;
  size_t half = total / 2;

  size_t acc = 0;
  size_t split_at = 0;  // first cell that goes right
  for (size_t i = 0; i < cells.size(); ++i) {
    if (acc + cells[i].size() + 2 > half && i > 0) {
      split_at = i;
      break;
    }
    acc += cells[i].size() + 2;
    split_at = i + 1;
  }
  if (split_at == cells.size()) split_at = cells.size() - 1;
  if (split_at == 0) split_at = 1;

  PageHandle right_handle;
  SVR_ASSIGN_OR_RETURN(PageId right_id,
                       NewNodePage(/*leaf=*/true, &right_handle));
  NodeView right(right_handle.mutable_data(), pool_->page_size());

  const PageId left_id = leaf.id();

  // Rebuild left with the lower half. No leaf chain to patch: iterators
  // advance through their descent path, never through sibling links.
  {
    NodeView fresh(node.data(), pool_->page_size());
    fresh.InitLeaf();
    for (size_t i = 0; i < split_at; ++i) {
      fresh.InsertCell(static_cast<int>(i), cells[i]);
    }
  }
  for (size_t i = split_at; i < cells.size(); ++i) {
    right.InsertCell(static_cast<int>(i - split_at), cells[i]);
  }

  std::string sep = right.Key(0).ToString();
  ++size_;

  leaf.Release();
  right_handle.Release();
  return InsertIntoParent(&path, left_id, sep, right_id);
}

Status BPlusTree::InsertIntoParent(std::vector<PathEntry>* path, PageId left,
                                   const std::string& sep, PageId right) {
  if (path->empty()) {
    // `left` was the root: grow a new root.
    PageHandle h;
    SVR_ASSIGN_OR_RETURN(PageId new_root, NewNodePage(/*leaf=*/false, &h));
    NodeView node(h.mutable_data(), pool_->page_size());
    node.InsertCell(0, MakeInternalCell(sep, left));
    node.set_rightmost(right);
    root_ = new_root;
    return Status::OK();
  }

  PathEntry pe = path->back();
  path->pop_back();

  // In COW mode the whole path was already shadowed by FindLeafForWrite,
  // so this page is private and safe to mutate in place.
  PageHandle h;
  SVR_RETURN_NOT_OK(pool_->Fetch(pe.page, &h));
  NodeView node(h.mutable_data(), pool_->page_size());

  // Reconstruct insert position: the child we descended into was `left`
  // (it kept the low half). New entry (sep, left) goes at pe.slot; the
  // existing pointer at pe.slot (or rightmost) must now point at `right`.
  int insert_at;
  if (pe.slot == -1) {
    assert(node.rightmost() == left);
    node.set_rightmost(right);
    insert_at = node.nslots();
  } else {
    assert(node.Child(pe.slot) == left);
    node.SetChild(pe.slot, right);
    insert_at = pe.slot;
  }

  std::string cell = MakeInternalCell(sep, left);
  if (node.Fits(cell.size())) {
    node.InsertCell(insert_at, cell);
    return Status::OK();
  }
  if (node.FitsAfterCompaction(cell.size())) {
    std::string scratch;
    node.Compact(&scratch);
    node.InsertCell(insert_at, cell);
    return Status::OK();
  }

  // Split the internal node: gather entries, push the middle key up.
  struct Entry {
    std::string key;
    PageId child;
  };
  std::vector<Entry> entries;
  entries.reserve(node.nslots() + 1);
  for (int i = 0; i < node.nslots(); ++i) {
    if (i == insert_at) entries.push_back({sep, left});
    entries.push_back({node.Key(i).ToString(), node.Child(i)});
  }
  if (insert_at == node.nslots()) entries.push_back({sep, left});
  const PageId old_rightmost = node.rightmost();

  const size_t n = entries.size();
  size_t mid = n / 2;
  if (mid == 0) mid = 1;
  if (mid >= n - 1 && n >= 2) mid = n - 2;
  // Left: entries [0, mid); its rightmost = entries[mid].child.
  // Pushed-up separator = entries[mid].key.
  // Right: entries (mid, n); rightmost = old_rightmost.

  PageHandle right_handle;
  SVR_ASSIGN_OR_RETURN(PageId right_id,
                       NewNodePage(/*leaf=*/false, &right_handle));
  NodeView rnode(right_handle.mutable_data(), pool_->page_size());

  node.InitInternal();
  for (size_t i = 0; i < mid; ++i) {
    node.InsertCell(static_cast<int>(i),
                    MakeInternalCell(entries[i].key, entries[i].child));
  }
  node.set_rightmost(entries[mid].child);

  for (size_t i = mid + 1; i < n; ++i) {
    rnode.InsertCell(static_cast<int>(i - mid - 1),
                     MakeInternalCell(entries[i].key, entries[i].child));
  }
  rnode.set_rightmost(old_rightmost);

  std::string pushed = entries[mid].key;
  PageId this_id = pe.page;
  h.Release();
  right_handle.Release();
  return InsertIntoParent(path, this_id, pushed, right_id);
}

Status BPlusTree::Delete(const Slice& key) {
  if (cow_) {
    // Probe read-only first: a miss must not shadow (and retire) the
    // whole descent path for nothing — NotFound deletes are common on
    // the score-update path. The probe's pins go before the shadowing
    // descent, which may free the pages it read.
    Finger probe(this, LiveSnapshot());
    Slice ignored;
    SVR_RETURN_NOT_OK(probe.Get(key, &ignored));
  }
  std::vector<PathEntry> path;
  PageHandle leaf;
  SVR_RETURN_NOT_OK(FindLeafForWrite(key, &leaf, &path));
  NodeView node(leaf.mutable_data(), pool_->page_size());
  bool exact;
  int slot = node.LowerBound(key, &exact);
  if (!exact) return Status::NotFound("key not in tree");
  node.RemoveCell(slot);
  --size_;

  if (node.nslots() > 0 || path.empty()) {
    return Status::OK();  // non-empty, or empty root leaf (allowed)
  }

  // Remove the empty leaf from its parent (no leaf chain to unlink).
  const PageId leaf_id = leaf.id();
  leaf.Release();
  SVR_RETURN_NOT_OK(RemoveFromParent(&path, leaf_id));
  return FreeNodePage(leaf_id);
}

Status BPlusTree::RemoveFromParent(std::vector<PathEntry>* path,
                                   PageId child) {
  (void)child;  // referenced only by assertions
  assert(!path->empty());
  PathEntry pe = path->back();
  path->pop_back();

  PageHandle h;
  SVR_RETURN_NOT_OK(pool_->Fetch(pe.page, &h));
  NodeView node(h.mutable_data(), pool_->page_size());

  if (pe.slot == -1) {
    assert(node.rightmost() == child);
    if (node.nslots() == 0) {
      // Node is now completely empty. If it's the root, the tree is empty:
      // turn the page into an empty leaf root. Otherwise remove it from
      // its own parent.
      if (path->empty() && pe.page == root_) {
        node.InitLeaf();
        return Status::OK();
      }
      PageId this_id = pe.page;
      h.Release();
      SVR_RETURN_NOT_OK(RemoveFromParent(path, this_id));
      return FreeNodePage(this_id);
    }
    // Promote the last entry's child to rightmost.
    int last = node.nslots() - 1;
    node.set_rightmost(node.Child(last));
    node.RemoveCell(last);
  } else {
    assert(node.Child(pe.slot) == child);
    node.RemoveCell(pe.slot);
  }

  // Collapse a node left with zero entries: it routes everything to its
  // rightmost child, so splice that child into the grandparent.
  if (node.nslots() == 0) {
    PageId only_child = node.rightmost();
    if (path->empty()) {
      assert(pe.page == root_);
      root_ = only_child;
      h.Release();
      return FreeNodePage(pe.page);
    }
    PathEntry gp = path->back();
    PageHandle gh;
    SVR_RETURN_NOT_OK(pool_->Fetch(gp.page, &gh));
    NodeView gnode(gh.mutable_data(), pool_->page_size());
    if (gp.slot == -1) {
      gnode.set_rightmost(only_child);
    } else {
      gnode.SetChild(gp.slot, only_child);
    }
    h.Release();
    return FreeNodePage(pe.page);
  }
  return Status::OK();
}

// --- iterator ----------------------------------------------------------

void BPlusTree::Iterator::SeekInternal(PageId root, const Slice& target) {
  path_.clear();
  leaf_.Release();
  valid_ = false;
  if (root == kInvalidPageId) return;

  PageId current = root;
  while (true) {
    PageHandle h;
    Status st = tree_->pool_->Fetch(current, &h);
    if (!st.ok()) {
      status_ = st;
      return;
    }
    NodeView node(const_cast<char*>(h.data()), tree_->pool_->page_size());
    if (node.leaf()) {
      nslots_ = node.nslots();
      bool exact;
      slot_ = node.LowerBound(target, &exact);
      leaf_ = std::move(h);
      if (slot_ < nslots_) {
        valid_ = true;
      } else {
        // The target is past this leaf's last key (or the leaf is
        // empty): continue at the next leaf via the descent path.
        AdvanceLeaf();
      }
      return;
    }
    const int slot = node.UpperBound(target);
    path_.push_back({current, slot, node.nslots() + 1});
    current = node.ChildAt(slot);
  }
}

void BPlusTree::Iterator::DescendToLeaf(PageId page) {
  PageId current = page;
  while (true) {
    PageHandle h;
    Status st = tree_->pool_->Fetch(current, &h);
    if (!st.ok()) {
      status_ = st;
      valid_ = false;
      return;
    }
    NodeView node(const_cast<char*>(h.data()), tree_->pool_->page_size());
    if (node.leaf()) {
      nslots_ = node.nslots();
      slot_ = 0;
      leaf_ = std::move(h);
      if (slot_ < nslots_) {
        valid_ = true;
      } else {
        AdvanceLeaf();  // empty leaf: keep ascending
      }
      return;
    }
    path_.push_back({current, 0, node.nslots() + 1});
    current = node.ChildAt(0);
  }
}

void BPlusTree::Iterator::AdvanceLeaf() {
  leaf_.Release();
  valid_ = false;
  while (!path_.empty()) {
    Level& level = path_.back();
    if (level.child + 1 < level.nchildren) {
      ++level.child;
      PageHandle h;
      Status st = tree_->pool_->Fetch(level.page, &h);
      if (!st.ok()) {
        status_ = st;
        return;
      }
      NodeView node(const_cast<char*>(h.data()),
                    tree_->pool_->page_size());
      const PageId child = node.ChildAt(level.child);
      h.Release();
      DescendToLeaf(child);
      return;
    }
    path_.pop_back();
  }
  // Whole tree exhausted.
}

void BPlusTree::Iterator::Next() {
  assert(valid_);
  ++slot_;
  if (slot_ >= nslots_) AdvanceLeaf();
}

Slice BPlusTree::Iterator::key() const {
  assert(valid_);
  NodeView node(const_cast<char*>(leaf_.data()), tree_->pool_->page_size());
  return node.Key(slot_);
}

Slice BPlusTree::Iterator::value() const {
  assert(valid_);
  NodeView node(const_cast<char*>(leaf_.data()), tree_->pool_->page_size());
  return node.Value(slot_);
}

std::unique_ptr<BPlusTree::Iterator> BPlusTree::SeekAt(
    const TreeSnapshot& snap, const Slice& target) const {
  auto it = std::unique_ptr<Iterator>(new Iterator(this));
  it->SeekInternal(snap.valid() ? snap.root : kInvalidPageId, target);
  return it;
}

std::unique_ptr<BPlusTree::Iterator> BPlusTree::BeginAt(
    const TreeSnapshot& snap) const {
  return SeekAt(snap, Slice());
}

std::unique_ptr<BPlusTree::Iterator> BPlusTree::Seek(
    const Slice& target) const {
  return SeekAt(TreeSnapshot{root_, size_}, target);
}

std::unique_ptr<BPlusTree::Iterator> BPlusTree::Begin() const {
  // Seek with an empty key lands on the first entry.
  return Seek(Slice());
}

}  // namespace svr::storage
