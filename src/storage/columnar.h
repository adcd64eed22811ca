// Columnar storage (cstore-style): append-only stripes with per-column
// blocks, so scans only pay I/O for projected columns and benefit from a
// modelled compression ratio. Matches Citus columnar semantics: no UPDATE or
// DELETE, visibility at stripe granularity.
//
// Two read paths:
//  - Scan(): row-at-a-time callback, used by the volcano executor.
//  - ReadStripe(): zero-copy column views over one stripe, used by the
//    vectorized executor (src/exec) with min/max pruning via StripeStats().
//
// Each stripe keeps its columns typed (storage/column_vector.h). Readers
// share ownership of a stripe's columns, so a view or a scan stays valid
// across the yields inside it: sealing, later stripes and TRUNCATE leave
// the shared columns alone, and an append to the open stripe while a reader
// holds it copies the stripe first (the reader keeps its snapshot).
#ifndef CITUSX_STORAGE_COLUMNAR_H_
#define CITUSX_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sql/datum.h"
#include "sql/types.h"
#include "storage/buffer_pool.h"
#include "storage/column_vector.h"
#include "storage/mvcc.h"

namespace citusx::storage {

/// Per-stripe, per-column min/max (NULLs excluded), sealed-stripe metadata
/// for predicate pruning. `has_values` is false when every value is NULL.
struct ColumnStats {
  sql::Datum min;
  sql::Datum max;
  bool has_values = false;
};

/// Zero-copy view of one stripe's columns. Only projected columns are
/// non-null. The view shares ownership of the columns, so it stays valid
/// whatever happens to the table afterwards.
struct StripeView {
  int64_t rows = 0;
  std::vector<std::shared_ptr<const ColumnVector>> columns;  // null = skipped
};

class ColumnarTable {
 public:
  static constexpr int64_t kStripeRows = 10000;
  static constexpr double kCompressionRatio = 3.0;

  ColumnarTable(uint64_t object_id, sql::Schema schema, BufferPool* pool)
      : object_id_(object_id), schema_(std::move(schema)), pool_(pool) {}

  const sql::Schema& schema() const { return schema_; }
  uint64_t object_id() const { return object_id_; }

  /// Append a row (buffered into the open stripe). Charges I/O when a stripe
  /// fills.
  Status Insert(sql::Row row, TxnId xmin);

  int64_t num_stripes() const { return static_cast<int64_t>(stripes_.size()); }
  int64_t num_rows() const;
  int64_t data_bytes() const { return data_bytes_; }

  /// Iterate all rows visible to `snap`, charging I/O only for the columns
  /// in `projection` (empty = all). The callback receives each full row
  /// (non-projected columns are NULL). Returns false if cancelled.
  bool Scan(const Snapshot& snap, const TxnStatusResolver& resolver,
            const std::vector<int>& projection,
            const std::function<bool(const sql::Row&)>& fn);

  // ---- vectorized read path ----

  /// Stripes addressable by ReadStripe: sealed stripes plus the open stripe
  /// (index num_stripes()) when it holds rows.
  int64_t num_read_units() const {
    return num_stripes() + (open_active_ && open_.rows > 0 ? 1 : 0);
  }

  /// Per-column stats of read unit `index` for pruning, or nullptr for the
  /// open stripe (stats are computed at seal time; the open stripe is never
  /// pruned).
  const std::vector<ColumnStats>* StripeStats(int64_t index) const;

  /// Visibility of read unit `index` under `snap` (stripe granularity).
  bool StripeVisible(int64_t index, const Snapshot& snap,
                     const TxnStatusResolver& resolver) const;

  /// Column views over read unit `index`, charging I/O for the columns in
  /// `projection` (empty = all; the open stripe is memory-resident and
  /// charges nothing). Returns false if cancelled mid-I/O. Callers must
  /// check StripeVisible first.
  bool ReadStripe(int64_t index, const std::vector<int>& projection,
                  StripeView* out);

  void Truncate();

 private:
  using Columns = std::vector<ColumnVector>;

  struct Stripe {
    // Column-major typed storage, shared with readers (see the file
    // comment).
    std::shared_ptr<Columns> columns;
    std::vector<int64_t> column_bytes;
    std::vector<ColumnStats> stats;  // filled at seal time
    TxnId xmin = kInvalidTxn;
    int64_t rows = 0;
    uint64_t first_block = 0;
  };

  void SealStripe(TxnId xmin);
  int64_t ColumnPages(int64_t bytes) const;
  /// Charge buffer-pool reads for `projection` of a stripe whose blocks
  /// start at `first_block`; false on cancel. Takes its inputs by value:
  /// the stripe may move while the reads yield.
  bool ChargeStripeRead(uint64_t first_block,
                        std::vector<int64_t> column_bytes,
                        const std::vector<int>& projection);

  uint64_t object_id_;
  sql::Schema schema_;
  BufferPool* pool_;
  std::vector<Stripe> stripes_;
  Stripe open_;
  bool open_active_ = false;
  int64_t data_bytes_ = 0;
  uint64_t next_block_ = 0;
};

}  // namespace citusx::storage

#endif  // CITUSX_STORAGE_COLUMNAR_H_
