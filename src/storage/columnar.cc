#include "storage/columnar.h"

#include <functional>
#include <string_view>

namespace citusx::storage {

namespace {

/// Min/max over the non-NULL rows of `col`, with Datum::Compare's order:
/// a later value replaces the current bound only when strictly beyond it.
ColumnStats ComputeStats(const ColumnVector& col) {
  ColumnStats st;
  int64_t lo = -1, hi = -1;  // rows holding the bounds
  auto beyond = [&](int64_t i, int64_t bound, int sign) {
    switch (col.layout()) {
      case Layout::kInt64: {
        int64_t a = col.ints()[i], b = col.ints()[bound];
        return sign < 0 ? a < b : a > b;
      }
      case Layout::kDouble: {
        double a = col.doubles()[i], b = col.doubles()[bound];
        return sign < 0 ? a < b : a > b;
      }
      case Layout::kText: {
        int c = col.text(i).compare(col.text(bound));
        return sign < 0 ? c < 0 : c > 0;
      }
      default: {
        int c = sql::Datum::Compare(col.datum(i), col.datum(bound));
        return sign < 0 ? c < 0 : c > 0;
      }
    }
  };
  for (int64_t i = 0; i < col.size(); i++) {
    if (col.IsNull(i)) continue;
    if (lo < 0) {
      lo = hi = i;
      continue;
    }
    if (beyond(i, lo, -1)) lo = i;
    if (beyond(i, hi, +1)) hi = i;
  }
  if (lo >= 0) {
    st.min = col.Get(lo);
    st.max = col.Get(hi);
    st.has_values = true;
  }
  return st;
}

std::vector<bool> Wanted(const std::vector<int>& projection, size_t width) {
  std::vector<bool> wanted(width, projection.empty());
  for (int p : projection) {
    if (p >= 0 && static_cast<size_t>(p) < width) {
      wanted[static_cast<size_t>(p)] = true;
    }
  }
  return wanted;
}

}  // namespace

Status ColumnarTable::Insert(sql::Row row, TxnId xmin) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::Internal("columnar row width mismatch");
  }
  // Each stripe has exactly one writing transaction (as in Citus, where
  // every writer reserves its own stripe). A new writer seals whatever the
  // previous one left open; otherwise an uncommitted writer appending to a
  // shared open stripe would hide the earlier, committed rows, since
  // visibility is tracked at stripe granularity.
  if (open_active_ && open_.xmin != xmin) SealStripe(open_.xmin);
  if (!open_active_) {
    open_ = Stripe{};
    open_.columns = std::make_shared<Columns>(
        static_cast<size_t>(schema_.num_columns()));
    open_.column_bytes.assign(static_cast<size_t>(schema_.num_columns()), 0);
    open_.xmin = xmin;
    open_active_ = true;
  } else if (open_.columns.use_count() > 1) {
    // A reader holds the open stripe: it keeps its copy.
    open_.columns = std::make_shared<Columns>(*open_.columns);
  }
  Columns& cols = *open_.columns;
  for (size_t c = 0; c < row.size(); c++) {
    open_.column_bytes[c] += row[c].PhysicalSize();
    data_bytes_ += row[c].PhysicalSize();
    cols[c].Append(row[c]);
  }
  open_.rows++;
  if (open_.rows >= kStripeRows) SealStripe(xmin);
  return Status::OK();
}

int64_t ColumnarTable::ColumnPages(int64_t bytes) const {
  return static_cast<int64_t>(
             static_cast<double>(bytes) /
             (kCompressionRatio * static_cast<double>(pool_->page_bytes()))) +
         1;
}

void ColumnarTable::SealStripe(TxnId xmin) {
  if (!open_active_ || open_.rows == 0) return;
  open_.xmin = xmin;
  open_.first_block = next_block_;
  // Charge compressed write I/O for each column block.
  for (size_t c = 0; c < open_.column_bytes.size(); c++) {
    int64_t pages = ColumnPages(open_.column_bytes[c]);
    for (int64_t p = 0; p < pages; p++) {
      pool_->AppendBlock(BlockId{object_id_, next_block_++});
    }
  }
  // Min/max skip-index entries (cstore chunk group stats): computed once at
  // seal time over non-NULL values.
  open_.stats.clear();
  for (const ColumnVector& col : *open_.columns) {
    open_.stats.push_back(ComputeStats(col));
  }
  stripes_.push_back(std::move(open_));
  open_ = Stripe{};
  open_active_ = false;
}

int64_t ColumnarTable::num_rows() const {
  int64_t n = open_active_ ? open_.rows : 0;
  for (const auto& s : stripes_) n += s.rows;
  return n;
}

bool ColumnarTable::ChargeStripeRead(uint64_t first_block,
                                     std::vector<int64_t> column_bytes,
                                     const std::vector<int>& projection) {
  std::vector<bool> wanted = Wanted(projection, column_bytes.size());
  uint64_t block = first_block;
  for (size_t c = 0; c < column_bytes.size(); c++) {
    int64_t pages = ColumnPages(column_bytes[c]);
    if (wanted[c]) {
      for (int64_t p = 0; p < pages; p++) {
        if (!pool_->Access(
                BlockId{object_id_, block + static_cast<uint64_t>(p)},
                false)) {
          return false;
        }
      }
    }
    block += static_cast<uint64_t>(pages);
  }
  return true;
}

bool ColumnarTable::Scan(const Snapshot& snap,
                         const TxnStatusResolver& resolver,
                         const std::vector<int>& projection,
                         const std::function<bool(const sql::Row&)>& fn) {
  // The read units as of the scan's start, each holding its columns: the
  // callback and the I/O charges yield, and the table may change meanwhile.
  struct Unit {
    std::shared_ptr<const Columns> columns;
    int64_t rows;
    TxnId xmin;
    uint64_t first_block;
    std::vector<int64_t> column_bytes;
    bool charge_io;
  };
  std::vector<Unit> units;
  units.reserve(stripes_.size() + 1);
  for (const Stripe& s : stripes_) {
    units.push_back({s.columns, s.rows, s.xmin, s.first_block, s.column_bytes,
                     /*charge_io=*/true});
  }
  if (open_active_) {
    units.push_back({open_.columns, open_.rows, open_.xmin, 0, {},
                     /*charge_io=*/false});
  }
  std::vector<bool> wanted =
      Wanted(projection, static_cast<size_t>(schema_.num_columns()));
  for (const Unit& u : units) {
    if (!snap.XidVisible(u.xmin, resolver)) continue;
    if (u.charge_io &&
        !ChargeStripeRead(u.first_block, u.column_bytes, projection)) {
      return false;
    }
    const Columns& cols = *u.columns;
    sql::Row row(cols.size());
    for (int64_t r = 0; r < u.rows; r++) {
      for (size_t c = 0; c < cols.size(); c++) {
        row[c] = wanted[c] ? cols[c].Get(r) : sql::Datum::Null();
      }
      if (!fn(row)) return false;
    }
  }
  return true;
}

const std::vector<ColumnStats>* ColumnarTable::StripeStats(
    int64_t index) const {
  if (index < 0 || index >= num_stripes()) return nullptr;  // open stripe
  return &stripes_[static_cast<size_t>(index)].stats;
}

bool ColumnarTable::StripeVisible(int64_t index, const Snapshot& snap,
                                  const TxnStatusResolver& resolver) const {
  const Stripe& s = index < num_stripes()
                        ? stripes_[static_cast<size_t>(index)]
                        : open_;
  return snap.XidVisible(s.xmin, resolver);
}

bool ColumnarTable::ReadStripe(int64_t index,
                               const std::vector<int>& projection,
                               StripeView* out) {
  bool is_open = index >= num_stripes();
  const Stripe& s =
      is_open ? open_ : stripes_[static_cast<size_t>(index)];
  // Take the columns before the reads yield.
  std::shared_ptr<const Columns> columns = s.columns;
  int64_t rows = s.rows;
  if (columns == nullptr) {  // no open stripe (a TRUNCATE since planning)
    out->rows = 0;
    out->columns.assign(static_cast<size_t>(schema_.num_columns()), nullptr);
    return true;
  }
  // Open stripe is memory-resident: no block I/O.
  if (!is_open && !ChargeStripeRead(s.first_block, s.column_bytes,
                                    projection)) {
    return false;
  }
  out->rows = rows;
  out->columns.assign(columns->size(), nullptr);
  std::vector<bool> wanted = Wanted(projection, columns->size());
  for (size_t c = 0; c < columns->size(); c++) {
    if (wanted[c]) {
      out->columns[c] =
          std::shared_ptr<const ColumnVector>(columns, &(*columns)[c]);
    }
  }
  return true;
}

void ColumnarTable::Truncate() {
  stripes_.clear();
  open_ = Stripe{};
  open_active_ = false;
  data_bytes_ = 0;
  next_block_ = 0;
  pool_->Forget(object_id_);
}

}  // namespace citusx::storage
