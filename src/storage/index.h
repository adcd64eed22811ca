// Secondary indexes: composite-key B-tree and trigram GIN (for ILIKE '%x%').
//
// Index entries reference logical RowIds and are not versioned: lookups
// return candidates whose visible version is re-checked by the executor
// (PostgreSQL-style recheck), and vacuum removes entries for dead rows.
#ifndef CITUSX_STORAGE_INDEX_H_
#define CITUSX_STORAGE_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/datum.h"
#include "storage/buffer_pool.h"
#include "storage/heap.h"

namespace citusx::storage {

/// A composite index key.
using IndexKey = std::vector<sql::Datum>;

struct IndexKeyLess {
  bool operator()(const IndexKey& a, const IndexKey& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; i++) {
      int c = sql::Datum::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Multi-column B-tree. Charges one leaf-page access per point operation
/// (inner pages are assumed cached) against the buffer pool.
class BtreeIndex {
 public:
  BtreeIndex(uint64_t object_id, std::vector<int> key_columns, bool unique,
             BufferPool* pool)
      : object_id_(object_id),
        key_columns_(std::move(key_columns)),
        unique_(unique),
        pool_(pool) {}

  const std::vector<int>& key_columns() const { return key_columns_; }
  bool unique() const { return unique_; }

  /// Extract this index's key from a full table row.
  IndexKey KeyFromRow(const sql::Row& row) const;

  /// Insert an entry; charges I/O. For unique indexes the caller must have
  /// checked FindConflict first.
  bool Insert(const IndexKey& key, RowId rid);

  /// Remove a specific entry (vacuum).
  void Remove(const IndexKey& key, RowId rid);

  /// All RowIds with exactly `key` (prefix match if key is shorter than the
  /// index width). Charges one leaf access.
  bool EqualRange(const IndexKey& key, std::vector<RowId>* out);

  /// RowIds with lo <= key <= hi on the first column (nullptr = unbounded).
  /// Charges I/O proportional to the entries touched.
  bool Range(const sql::Datum* lo, bool lo_inclusive, const sql::Datum* hi,
             bool hi_inclusive, std::vector<RowId>* out);

  int64_t size_bytes() const { return size_bytes_; }

  void Truncate() {
    map_.clear();
    size_bytes_ = 0;
    pool_->Forget(object_id_);
  }

 private:
  int64_t NumLeafPages() const {
    return std::max<int64_t>(1, size_bytes_ / pool_->page_bytes());
  }
  uint64_t LeafPageFor(const IndexKey& key) const;

  uint64_t object_id_;
  std::vector<int> key_columns_;
  bool unique_;
  BufferPool* pool_;
  std::multimap<IndexKey, RowId, IndexKeyLess> map_;
  int64_t size_bytes_ = 0;
};

/// A lowercased trigram packed into an integer: its length (1-3) in the top
/// byte and its bytes big-endian below, so that among trigrams of one length
/// integer order is string order.
using Trigram = uint32_t;

/// Trigram GIN index over a text expression (pg_trgm-style). Supports
/// candidate retrieval for LIKE/ILIKE patterns containing a literal of
/// length >= 3.
class GinTrgmIndex {
 public:
  GinTrgmIndex(uint64_t object_id, BufferPool* pool)
      : object_id_(object_id), pool_(pool) {}

  /// The distinct lowercase trigrams of a text value, in order; a non-empty
  /// text shorter than 3 bytes is one trigram of its own length.
  static std::vector<Trigram> ExtractTrigrams(std::string_view text);

  /// Extract trigrams that any match of `pattern` must contain (from maximal
  /// literal runs between wildcards), in order. Empty result = index
  /// unusable.
  static std::vector<Trigram> PatternTrigrams(std::string_view pattern);

  /// Index `text` for row `rid`; charges one page access per new trigram
  /// posting. Returns number of postings touched.
  int64_t Insert(std::string_view text, RowId rid);

  /// Rows whose indexed text contains all of `trigrams` (candidates; caller
  /// rechecks). Charges one page access per probed trigram.
  bool Candidates(const std::vector<Trigram>& trigrams,
                  std::vector<RowId>* out);

  void Remove(std::string_view text, RowId rid);

  int64_t size_bytes() const { return size_bytes_; }

  void Truncate() {
    postings_.clear();
    size_bytes_ = 0;
    pool_->Forget(object_id_);
  }

 private:
  uint64_t PageFor(Trigram t) const;

  uint64_t object_id_;
  BufferPool* pool_;
  std::unordered_map<Trigram, std::vector<RowId>> postings_;
  int64_t size_bytes_ = 0;
};

}  // namespace citusx::storage

#endif  // CITUSX_STORAGE_INDEX_H_
