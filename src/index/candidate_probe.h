#ifndef SVR_INDEX_CANDIDATE_PROBE_H_
#define SVR_INDEX_CANDIDATE_PROBE_H_

#include "common/status.h"
#include "common/types.h"
#include "index/list_state.h"
#include "index/text_index.h"
#include "relational/score_table.h"

namespace svr::index {

/// \brief One query's probes of the doc-keyed tables that judge a
/// candidate: the shared Score table and the method's list-state table
/// (ListScore/ListChunk; ID and Score keep none). Each is a finger
/// (storage::BPlusTree::Finger) over the query's snapshot, so a stream
/// of candidates re-pins a page only when the doc leaves the current
/// leaf: the Chunk family, which probes every candidate, meets docs in
/// ascending id order within a chunk.
///
/// Built on a TopKAt's (or a merge prepare's) stack. It lives inside
/// the read view that pinned `snap` and is never shared between threads
/// (docs/concurrency.md).
class CandidateProbe {
 public:
  CandidateProbe(const relational::ScoreTable* scores,
                 const ListStateTable* list_state, const IndexSnapshot& snap)
      : scores_(scores, snap.score), list_state_(list_state, snap.list_state) {}

  /// Current score and deleted flag; NotFound if never scored.
  Status Score(DocId doc, double* score, bool* deleted) {
    return scores_.GetWithDeleted(doc, score, deleted);
  }

  /// The doc's list-state entry; NotFound if its score never moved it
  /// (and always for methods without list state).
  Status ListState(DocId doc, ListStateTable::Entry* entry) {
    return list_state_.Get(doc, entry);
  }

 private:
  relational::ScoreTable::Finger scores_;
  ListStateTable::Finger list_state_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_CANDIDATE_PROBE_H_
