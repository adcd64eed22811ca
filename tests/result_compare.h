// Result comparison for the differential tests: a query run two ways (the
// vectorized executor against the volcano oracle, a distributed plan against
// a single-node one) must return the same rows. float8 cells compare at a
// 1e-9 relative tolerance, because the two sides may aggregate in a
// different order; every other type compares exactly.
#ifndef CITUSX_TESTS_RESULT_COMPARE_H_
#define CITUSX_TESTS_RESULT_COMPARE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "sql/datum.h"

namespace citusx::test {

inline bool DatumClose(const sql::Datum& a, const sql::Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == sql::TypeId::kFloat8 || b.type() == sql::TypeId::kFloat8) {
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return sql::Datum::Compare(a, b) == 0;
}

/// Ordered comparison: row i of `a` against row i of `b`.
inline bool RowsClose(const std::vector<sql::Row>& a,
                      const std::vector<sql::Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); c++) {
      if (!DatumClose(a[i][c], b[i][c])) return false;
    }
  }
  return true;
}

/// Multiset comparison: both sides sorted by the full row, then compared in
/// order. The contract for queries without a total ORDER BY.
inline bool RowSetsClose(std::vector<sql::Row> a, std::vector<sql::Row> b) {
  auto row_less = [](const sql::Row& x, const sql::Row& y) {
    for (size_t i = 0; i < x.size() && i < y.size(); i++) {
      int c = sql::Datum::Compare(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::sort(a.begin(), a.end(), row_less);
  std::sort(b.begin(), b.end(), row_less);
  return RowsClose(a, b);
}

}  // namespace citusx::test

#endif  // CITUSX_TESTS_RESULT_COMPARE_H_
