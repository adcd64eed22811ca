// Column-batch representation for the vectorized executor (DuckDB
// DataChunk-style): a fixed-width set of typed column vectors
// (storage/column_vector.h) plus a selection vector produced by filters.
// Columns are shared: a columnar scan's batch holds the stripe's own
// vectors (zero-copy), operator outputs hold fresh ones.
#ifndef CITUSX_EXEC_BATCH_H_
#define CITUSX_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sql/datum.h"
#include "storage/column_vector.h"

namespace citusx::exec {

/// One column of a batch; null marks a column the scan projection skipped
/// (reads as NULL).
using Column = std::shared_ptr<const storage::ColumnVector>;

/// Physical row indexes, in order.
using SelVector = std::vector<int32_t>;

/// A batch: `rows` physical rows over `columns`, restricted to the indexes
/// in `sel` when `filtered` is set (selection vectors avoid copying
/// survivors after a filter).
struct DataChunk {
  int64_t rows = 0;
  std::vector<Column> columns;
  bool filtered = false;
  SelVector sel;

  int64_t Count() const {
    return filtered ? static_cast<int64_t>(sel.size()) : rows;
  }
  /// Physical row indexes of the live rows.
  SelVector Live() const {
    if (filtered) return sel;
    SelVector all(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; i++) {
      all[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    return all;
  }
  /// Datum at (physical row r, column c); skipped columns read as NULL.
  sql::Datum Value(int64_t r, size_t c) const {
    const Column& col = columns[c];
    return col == nullptr ? sql::Datum::Null() : col->Get(r);
  }
  /// Materialize physical row `r` into `out` (resized to the column count).
  void GatherRow(int64_t r, sql::Row* out) const {
    out->resize(columns.size());
    for (size_t c = 0; c < columns.size(); c++) (*out)[c] = Value(r, c);
  }
};

}  // namespace citusx::exec

#endif  // CITUSX_EXEC_BATCH_H_
