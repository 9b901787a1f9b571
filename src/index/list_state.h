#ifndef SVR_INDEX_LIST_STATE_H_
#define SVR_INDEX_LIST_STATE_H_

#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/bptree.h"

namespace svr::index {

/// \brief The paper's ListScore / ListChunk side table (Figures 4 and 5):
/// one entry per document whose score has ever been updated, holding the
/// document's current *list* position (its short- or long-list score for
/// Score-Threshold, or chunk id for Chunk) and whether its postings have
/// been moved into the short lists.
///
/// Stored as a B+-tree keyed by DocId; values are 9 bytes. Score-keyed
/// methods store the score directly; chunk-keyed methods store the cid
/// (losslessly representable in a double). Created with a PageRetirer
/// the tree is copy-on-write: sealed versions serve lock-free snapshot
/// queries (docs/concurrency.md).
class ListStateTable {
 public:
  struct Entry {
    double list_value = 0.0;  // list score, or chunk id as a double
    bool in_short_list = false;
  };

  static Result<std::unique_ptr<ListStateTable>> Create(
      storage::BufferPool* pool, storage::PageRetirer retire = nullptr);

  /// Inserts or replaces the entry of `doc`.
  Status Put(DocId doc, const Entry& entry);

  /// NotFound if the doc's score was never updated.
  Status Get(DocId doc, Entry* entry) const;

  /// \brief Point-probe cursor over one version — the lock-free
  /// snapshot read path — for a query's stream of list-state lookups
  /// (see storage::BPlusTree::Finger). A null
  /// table reads empty, for methods that keep no list state. Lives
  /// inside the read view that pins the version; never shared between
  /// threads (docs/concurrency.md).
  class Finger {
   public:
    Finger(const ListStateTable* table, const storage::TreeSnapshot& snap)
        : finger_(table != nullptr ? table->tree_.get() : nullptr,
                  table != nullptr ? snap : storage::TreeSnapshot()) {}

    /// NotFound if the doc's score was never updated.
    Status Get(DocId doc, Entry* entry);

   private:
    storage::BPlusTree::Finger finger_;
  };

  /// Drops the entry (offline merges, and the fully-merged sweep that
  /// retires stale in_short entries — docs/merge_policy.md).
  Status Remove(DocId doc);

  /// Removes every entry (offline merge resets list state).
  Status Clear();

  /// Freezes the current version; see storage::BPlusTree::Seal.
  storage::TreeSnapshot Seal() { return tree_->Seal(); }
  /// Current (unsealed) version — exclusive access only.
  storage::TreeSnapshot LiveSnapshot() const {
    return tree_->LiveSnapshot();
  }

  uint64_t size() const { return tree_->size(); }
  uint64_t SizeBytes() const { return tree_->SizeBytes(); }

 private:
  explicit ListStateTable(std::unique_ptr<storage::BPlusTree> tree)
      : tree_(std::move(tree)) {}

  std::unique_ptr<storage::BPlusTree> tree_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_LIST_STATE_H_
