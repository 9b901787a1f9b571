#ifndef SVR_INDEX_POSTING_CODEC_H_
#define SVR_INDEX_POSTING_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/blob_store.h"

namespace svr::index {

/// Serialized long-inverted-list formats (§4 + §5.2), v1 layout:
///
///  - ID list:           [varint n] (delta-varint doc)*            — §4.2.1
///  - ID+ts list:        [varint n] (delta-varint doc, f32 ts)*    — §5.2
///  - Score list:        [varint n] (f64 score, fix32 doc)*        — §4.3.1
///                       sorted by (score desc, doc asc); no delta
///                       compression is possible, which is exactly why
///                       Table 1 shows Score-Threshold lists ≈6x ID lists.
///  - Chunk list:        [varint n_groups]
///                       ([varint cid][varint count][varint byte_len]
///                        (delta-varint doc)*)*                    — §4.3.2
///                       groups in decreasing cid; byte_len enables
///                       skipping a whole group without reading it.
///  - Chunk+ts list:     same, postings (delta-varint doc, f32 ts)*
///  - Fancy list:        [f32 min_ts][varint n](delta-varint doc, f32 ts)*
///                       doc-ordered, the [21]-style high-term-score list.
///
/// The v2 layout (PostingFormat::kV2) keeps the same list headers but
/// groups postings into kPostingBlockSize-posting blocks, each preceded
/// by a skip header, with doc deltas group-varint coded (see
/// docs/posting_format.md and common/block_codec.h):
///
///  - doc blocks:        [varint last_doc][varint byte_len]
///                       payload = group-varint deltas (+ f32 ts each).
///                       `last_doc` is the absolute id of the block's
///                       final posting: a block whose last_doc is below a
///                       seek target is skipped without decoding it.
///  - Score blocks:      [f64 last_score][fix32 last_doc][varint byte_len]
///                       payload = (f64 score, fix32 doc)*. The header is
///                       the block's scan-order-final (lowest) position,
///                       enabling block skips toward a score threshold.
///
/// The zero-allocation query-side counterparts of the v1 readers below
/// live in index/posting_cursor.h; both formats decode through them.

struct IdPosting {
  DocId doc;
  float term_score;  // 0 when the format carries none
};

struct ScorePosting {
  double score;
  DocId doc;
};

struct ChunkGroup {
  ChunkId cid;
  std::vector<IdPosting> postings;  // doc ascending
};

// --- encoders (bulk build) ---------------------------------------------
//
// `format` selects the on-disk layout. It has no default: every index
// writes and reads `IndexContext::posting_format`, and a caller that
// forgot the argument would silently write the other layout.

/// `docs` must be strictly ascending.
void EncodeIdList(const std::vector<DocId>& docs, std::string* out,
                  PostingFormat format);
/// `postings` must be strictly ascending by doc.
void EncodeIdTsList(const std::vector<IdPosting>& postings, bool with_ts,
                    std::string* out, PostingFormat format);
/// `postings` must be sorted by (score desc, doc asc).
void EncodeScoreList(const std::vector<ScorePosting>& postings,
                     std::string* out, PostingFormat format);
/// `groups` must be sorted by cid descending; postings doc-ascending.
void EncodeChunkList(const std::vector<ChunkGroup>& groups, bool with_ts,
                     std::string* out, PostingFormat format);
/// `postings` doc-ascending; min_ts = smallest term score among them.
void EncodeFancyList(const std::vector<IdPosting>& postings, float min_ts,
                     std::string* out, PostingFormat format);

// --- streaming decoders (page-at-a-time over BlobStore) -----------------

/// Sequential cursor over an ID / ID+ts list.
class IdListReader {
 public:
  IdListReader(storage::BlobStore::Reader reader, bool with_ts);

  Status Init();  // reads the header
  bool Valid() const { return valid_; }
  DocId doc() const { return current_.doc; }
  float term_score() const { return current_.term_score; }
  Status Next();
  uint32_t count() const { return count_; }

 private:
  storage::BlobStore::Reader reader_;
  bool with_ts_;
  uint32_t count_ = 0;
  uint32_t consumed_ = 0;
  DocId last_doc_ = 0;
  IdPosting current_{0, 0.0f};
  bool valid_ = false;
};

/// Sequential cursor over a Score list (score desc, doc asc).
class ScoreListReader {
 public:
  explicit ScoreListReader(storage::BlobStore::Reader reader);

  Status Init();
  bool Valid() const { return valid_; }
  double score() const { return current_.score; }
  DocId doc() const { return current_.doc; }
  Status Next();

 private:
  storage::BlobStore::Reader reader_;
  uint32_t count_ = 0;
  uint32_t consumed_ = 0;
  ScorePosting current_{0.0, 0};
  bool valid_ = false;
};

/// Group-structured cursor over a Chunk list. Usage:
///   while (reader.HasGroup()) {
///     cid = reader.cid();
///     (iterate postings with Valid/doc/ts/Next)  or  SkipGroup();
///     NextGroup();
///   }
class ChunkListReader {
 public:
  ChunkListReader(storage::BlobStore::Reader reader, bool with_ts);

  Status Init();
  bool HasGroup() const { return group_index_ < n_groups_; }
  ChunkId cid() const { return cid_; }

  bool Valid() const { return valid_; }
  DocId doc() const { return current_.doc; }
  float term_score() const { return current_.term_score; }
  Status Next();

  /// Skips the rest of the current group without touching its pages.
  Status SkipGroup();
  /// Advances to the next group header. The current group must be fully
  /// consumed or skipped.
  Status NextGroup();

 private:
  Status ReadGroupHeader();

  storage::BlobStore::Reader reader_;
  bool with_ts_;
  uint32_t n_groups_ = 0;
  uint32_t group_index_ = 0;
  ChunkId cid_ = 0;
  uint32_t group_count_ = 0;
  uint64_t group_end_offset_ = 0;
  uint32_t consumed_in_group_ = 0;
  DocId last_doc_ = 0;
  IdPosting current_{0, 0.0f};
  bool valid_ = false;
};

/// Loads an entire fancy list (they are small by construction).
Status DecodeFancyList(storage::BlobStore::Reader reader,
                       std::vector<IdPosting>* postings, float* min_ts,
                       PostingFormat format);

}  // namespace svr::index

#endif  // SVR_INDEX_POSTING_CODEC_H_
