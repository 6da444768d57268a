#pragma once

#include <string_view>
#include <vector>

#include "arrowlite/array.h"
#include "arrowlite/type.h"
#include "common/selection_vector.h"

namespace mainline::execution {

/// Vectorized operator primitives over arrowlite arrays and selection
/// vectors. Every primitive works column-at-a-time over the candidate list,
/// touching raw buffers directly — the zero-copy frozen path and the
/// materialized hot path both end in the same tight loops.
///
/// Aggregation primitives accumulate row-at-a-time in selection order, so a
/// query's result is bit-identical to a scalar tuple-at-a-time loop over the
/// same visible rows — the property figure16 and the execution tests pin.
namespace vector_ops {

/// Refine `sel` to the rows whose fixed-width value of type `T` satisfies
/// `pred(value)`. Null rows never qualify; the null check is hoisted out of
/// the loop entirely for null-free arrays (the common case — frozen lineitem
/// columns carry validity bitmaps with a zero null count).
template <typename T, typename Pred>
void FilterFixed(const arrowlite::Array &col, common::SelectionVector *sel, Pred &&pred) {
  const T *values = col.buffer(0)->template data_as<T>();
  if (col.null_count() == 0) {
    sel->Refine([&](uint32_t row) { return pred(values[row]); });
  } else {
    sel->Refine([&](uint32_t row) { return !col.IsNull(row) && pred(values[row]); });
  }
}

/// Refine `sel` to rows where `lo <= value && value < hi` (half-open range,
/// the shape of date predicates).
template <typename T>
void FilterRange(const arrowlite::Array &col, common::SelectionVector *sel, T lo, T hi) {
  FilterFixed<T>(col, sel, [lo, hi](T v) { return lo <= v && v < hi; });
}

/// Refine `sel` to rows where `a[row] < b[row]` — the column-vs-column shape
/// of Q12's date sanity predicates (l_shipdate < l_commitdate, ...). Rows
/// where either operand is null never qualify.
template <typename T>
void FilterLessThanColumn(const arrowlite::Array &a, const arrowlite::Array &b,
                          common::SelectionVector *sel) {
  const T *va = a.buffer(0)->template data_as<T>();
  const T *vb = b.buffer(0)->template data_as<T>();
  if (a.null_count() == 0 && b.null_count() == 0) {
    sel->Refine([&](uint32_t row) { return va[row] < vb[row]; });
  } else {
    sel->Refine([&](uint32_t row) {
      return !a.IsNull(row) && !b.IsNull(row) && va[row] < vb[row];
    });
  }
}

/// Refine `sel` to rows whose string value equals one of `targets` (SQL IN
/// over a short literal list). Dictionary-encoded columns resolve each target
/// to its code once and match on integers; rows with null values never
/// qualify.
inline void FilterStringIn(const arrowlite::Array &col, common::SelectionVector *sel,
                           const std::vector<std::string_view> &targets) {
  if (col.type() == arrowlite::Type::kDictionary) {
    const arrowlite::Array &dict = *col.dictionary();
    std::vector<int32_t> wanted;
    for (const std::string_view target : targets) {
      for (int64_t i = 0; i < dict.length(); i++) {
        if (dict.GetString(i) == target) {
          wanted.push_back(static_cast<int32_t>(i));
          break;
        }
      }
    }
    if (wanted.empty()) {
      sel->Refine([](uint32_t) { return false; });
      return;
    }
    const int32_t *codes = col.buffer(0)->data_as<int32_t>();
    const auto match = [&](uint32_t row) {
      for (const int32_t code : wanted) {
        if (codes[row] == code) return true;
      }
      return false;
    };
    if (col.null_count() == 0) {
      sel->Refine(match);
    } else {
      sel->Refine([&](uint32_t row) { return !col.IsNull(row) && match(row); });
    }
    return;
  }
  sel->Refine([&](uint32_t row) {
    if (col.IsNull(row)) return false;
    const std::string_view value = col.GetString(row);
    for (const std::string_view target : targets) {
      if (value == target) return true;
    }
    return false;
  });
}

/// acc += sum of `a[row] * b[row]` over the selection (e.g. Q6's
/// extendedprice * discount), accumulated row-at-a-time. Rows where either
/// operand is null are skipped.
inline void AccumulateDotProduct(const arrowlite::Array &a, const arrowlite::Array &b,
                                 const common::SelectionVector &sel, double *acc) {
  const double *va = a.buffer(0)->data_as<double>();
  const double *vb = b.buffer(0)->data_as<double>();
  if (a.null_count() == 0 && b.null_count() == 0) {
    for (const uint32_t row : sel) *acc += va[row] * vb[row];
  } else {
    for (const uint32_t row : sel) {
      if (!a.IsNull(row) && !b.IsNull(row)) *acc += va[row] * vb[row];
    }
  }
}

}  // namespace vector_ops

}  // namespace mainline::execution
