#include "relational/score_table.h"

#include "common/coding.h"
#include "common/key_codec.h"

namespace svr::relational {

namespace {

std::string DocKey(DocId doc) {
  std::string k;
  PutKeyU32(&k, doc);
  return k;
}

std::string ScoreValue(double score, bool deleted) {
  std::string v;
  PutFixedDouble(&v, score);
  v.push_back(deleted ? 1 : 0);
  return v;
}

Status ParseScoreValue(const Slice& v, double* score, bool* deleted) {
  if (v.size() != 9) return Status::Corruption("bad score entry");
  *score = DecodeFixedDouble(v.data());
  *deleted = v[8] != 0;
  return Status::OK();
}

Status ScanTree(const storage::BPlusTree* tree,
                const storage::TreeSnapshot& snap,
                const std::function<bool(DocId, double, bool)>& fn) {
  auto it = tree->SeekAt(snap, Slice());
  while (it->Valid()) {
    Slice k = it->key();
    DocId doc;
    if (!GetKeyU32(&k, &doc)) return Status::Corruption("bad score key");
    double score = 0.0;
    bool deleted = false;
    SVR_RETURN_NOT_OK(ParseScoreValue(it->value(), &score, &deleted));
    if (!fn(doc, score, deleted)) break;
    it->Next();
  }
  return it->status();
}

}  // namespace

Result<std::unique_ptr<ScoreTable>> ScoreTable::Create(
    storage::BufferPool* pool, storage::PageRetirer retire) {
  auto tree = retire != nullptr
                  ? storage::BPlusTree::CreateCow(pool, std::move(retire))
                  : storage::BPlusTree::Create(pool);
  SVR_RETURN_NOT_OK(tree.status());
  return std::unique_ptr<ScoreTable>(
      new ScoreTable(std::move(tree).value()));
}

Status ScoreTable::Set(DocId doc, double score) {
  return tree_->Put(DocKey(doc), ScoreValue(score, /*deleted=*/false));
}

Status ScoreTable::Get(DocId doc, double* score) const {
  bool deleted;
  return GetWithDeleted(doc, score, &deleted);
}

Status ScoreTable::GetWithDeleted(DocId doc, double* score,
                                  bool* deleted) const {
  return LiveView().GetWithDeleted(doc, score, deleted);
}

Status ScoreTable::MarkDeleted(DocId doc) {
  double score;
  bool deleted;
  SVR_RETURN_NOT_OK(GetWithDeleted(doc, &score, &deleted));
  return tree_->Put(DocKey(doc), ScoreValue(score, /*deleted=*/true));
}

Status ScoreTable::Remove(DocId doc) { return tree_->Delete(DocKey(doc)); }

Status ScoreTable::Scan(
    const std::function<bool(DocId, double, bool)>& fn) const {
  return ScanTree(tree_.get(), tree_->LiveSnapshot(), fn);
}

Status ScoreTable::View::Get(DocId doc, double* score) const {
  bool deleted;
  return GetWithDeleted(doc, score, &deleted);
}

Status ScoreTable::View::GetWithDeleted(DocId doc, double* score,
                                        bool* deleted) const {
  return Finger(table_, snap_).GetWithDeleted(doc, score, deleted);
}

Status ScoreTable::Finger::GetWithDeleted(DocId doc, double* score,
                                          bool* deleted) {
  char key[4];
  EncodeKeyU32(key, doc);
  Slice v;
  SVR_RETURN_NOT_OK(finger_.Get(Slice(key, sizeof(key)), &v));
  return ParseScoreValue(v, score, deleted);
}

Status ScoreTable::View::Scan(
    const std::function<bool(DocId, double, bool)>& fn) const {
  return ScanTree(table_->tree_.get(), snap_, fn);
}

}  // namespace svr::relational
