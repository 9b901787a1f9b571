#ifndef SVR_RELATIONAL_SCORE_TABLE_H_
#define SVR_RELATIONAL_SCORE_TABLE_H_

#include <functional>
#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/bptree.h"

namespace svr::relational {

/// \brief The paper's `Score(Id, score)` table — the single authoritative
/// map from document id to its *current* SVR score (§4.2.1), plus the
/// deleted flag from Appendix A.2.
///
/// Physically a B+-tree keyed by doc id, so score lookups by id are one
/// indexed probe, exactly as the paper requires. All index methods share
/// one instance. Created with a PageRetirer the tree is copy-on-write:
/// Seal() publishes a version snapshot that queries probe with no lock
/// (docs/concurrency.md).
class ScoreTable {
 public:
  /// `retire` non-null makes the tree copy-on-write (MVCC read path).
  static Result<std::unique_ptr<ScoreTable>> Create(
      storage::BufferPool* pool, storage::PageRetirer retire = nullptr);

  /// Inserts or updates the score of `doc`.
  Status Set(DocId doc, double score);

  /// Current score; NotFound if the doc was never scored.
  Status Get(DocId doc, double* score) const;

  /// Current score and deleted flag in one probe.
  Status GetWithDeleted(DocId doc, double* score, bool* deleted) const;

  /// Appendix A.2: mark `doc` deleted without dropping its entry, so
  /// queries can filter it out of result heaps.
  Status MarkDeleted(DocId doc);

  /// Physically removes the entry (used when doc ids can be recycled).
  Status Remove(DocId doc);

  /// In-order scan over (doc, score, deleted).
  Status Scan(
      const std::function<bool(DocId, double, bool)>& fn) const;

  /// Freezes the current version; see storage::BPlusTree::Seal.
  storage::TreeSnapshot Seal() { return tree_->Seal(); }

  /// \brief Read adapter over one sealed version — the Score table a
  /// pinned ReadView probes. Copyable; the ScoreTable must outlive it.
  class View {
   public:
    View() = default;
    View(const ScoreTable* table, storage::TreeSnapshot snap)
        : table_(table), snap_(snap) {}

    bool valid() const { return table_ != nullptr; }
    Status Get(DocId doc, double* score) const;
    Status GetWithDeleted(DocId doc, double* score, bool* deleted) const;
    Status Scan(const std::function<bool(DocId, double, bool)>& fn) const;

   private:
    const ScoreTable* table_ = nullptr;
    storage::TreeSnapshot snap_;
  };

  /// \brief Point-probe cursor over one version for a query's stream
  /// of Score lookups: a storage::BPlusTree::Finger that keeps the last
  /// probe's path pinned, with doc keys encoded on the stack. Lives
  /// inside the read view that pins the version; never shared between
  /// threads (docs/concurrency.md).
  class Finger {
   public:
    Finger(const ScoreTable* table, const storage::TreeSnapshot& snap)
        : finger_(table->tree_.get(), snap) {}

    Status GetWithDeleted(DocId doc, double* score, bool* deleted);

   private:
    storage::BPlusTree::Finger finger_;
  };

  /// The current (unsealed) version — exclusive access only.
  storage::TreeSnapshot LiveSnapshot() const { return tree_->LiveSnapshot(); }
  View LiveView() const { return View(this, LiveSnapshot()); }

  uint64_t size() const { return tree_->size(); }
  uint64_t SizeBytes() const { return tree_->SizeBytes(); }

 private:
  explicit ScoreTable(std::unique_ptr<storage::BPlusTree> tree)
      : tree_(std::move(tree)) {}

  std::unique_ptr<storage::BPlusTree> tree_;
};

}  // namespace svr::relational

#endif  // SVR_RELATIONAL_SCORE_TABLE_H_
