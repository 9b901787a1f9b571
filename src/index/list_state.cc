#include "index/list_state.h"

#include <vector>

#include "common/coding.h"
#include "common/key_codec.h"

namespace svr::index {

namespace {

std::string DocKey(DocId doc) {
  std::string k;
  PutKeyU32(&k, doc);
  return k;
}

Status ParseEntry(const Slice& v, ListStateTable::Entry* entry) {
  if (v.size() != 9) return Status::Corruption("bad list-state entry");
  entry->list_value = DecodeFixedDouble(v.data());
  entry->in_short_list = v[8] != 0;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ListStateTable>> ListStateTable::Create(
    storage::BufferPool* pool, storage::PageRetirer retire) {
  auto tree = retire != nullptr
                  ? storage::BPlusTree::CreateCow(pool, std::move(retire))
                  : storage::BPlusTree::Create(pool);
  SVR_RETURN_NOT_OK(tree.status());
  return std::unique_ptr<ListStateTable>(
      new ListStateTable(std::move(tree).value()));
}

Status ListStateTable::Put(DocId doc, const Entry& entry) {
  std::string v;
  PutFixedDouble(&v, entry.list_value);
  v.push_back(entry.in_short_list ? 1 : 0);
  return tree_->Put(DocKey(doc), v);
}

Status ListStateTable::Get(DocId doc, Entry* entry) const {
  return Finger(this, tree_->LiveSnapshot()).Get(doc, entry);
}

Status ListStateTable::Finger::Get(DocId doc, Entry* entry) {
  char key[4];
  EncodeKeyU32(key, doc);
  Slice v;
  SVR_RETURN_NOT_OK(finger_.Get(Slice(key, sizeof(key)), &v));
  return ParseEntry(v, entry);
}

Status ListStateTable::Remove(DocId doc) {
  return tree_->Delete(DocKey(doc));
}

Status ListStateTable::Clear() {
  // Collect keys first: deleting while iterating would invalidate the
  // cursor's leaf position.
  std::vector<std::string> keys;
  for (auto it = tree_->Begin(); it->Valid(); it->Next()) {
    keys.push_back(it->key().ToString());
  }
  for (const auto& k : keys) {
    SVR_RETURN_NOT_OK(tree_->Delete(k));
  }
  return Status::OK();
}

}  // namespace svr::index
