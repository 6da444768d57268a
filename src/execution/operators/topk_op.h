#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "execution/operators/operator.h"

namespace mainline::execution::op {

/// One ORDER BY key of a TopKOp, as data. Keys compare as doubles; ties fall
/// through to the next key, and full ties break on the row's (block ordinal,
/// within-block emit sequence) — the scan order — so the top-k result is a
/// single total order, identical at any worker count and bit-exact against a
/// tuple-at-a-time reference that sorts the same way.
struct SortKey {
  enum class Source : uint8_t {
    kMatchPayloadF64,  ///< the probe match's payload bits as a double (probed chunks)
    kU32Column,        ///< a uint32 batch column (dates)
    kExpr,             ///< a double expression over batch/computed columns
  };

  Source source = Source::kU32Column;
  uint16_t col = 0;
  Expr expr;
  bool descending = false;

  static SortKey MatchPayloadF64(bool descending) {
    SortKey k;
    k.source = Source::kMatchPayloadF64;
    k.descending = descending;
    return k;
  }
  static SortKey U32Column(uint16_t col, bool descending = false) {
    SortKey k;
    k.source = Source::kU32Column;
    k.col = col;
    k.descending = descending;
    return k;
  }
  static SortKey OfExpr(const Expr &expr, bool descending = false) {
    SortKey k;
    k.source = Source::kExpr;
    k.expr = expr;
    k.descending = descending;
    return k;
  }
};

/// One output column of a TopKOp result row: what to materialize for a row
/// the moment it enters a heap (chunks die with their block, so values are
/// captured at Push time, never referenced later).
struct OutputCol {
  enum class Kind : uint8_t {
    kInt64Column,      ///< int64 batch column -> i64
    kInt32Column,      ///< int32 batch column -> i64
    kU32Column,        ///< uint32 batch column -> i64
    kMatchPayloadF64,  ///< the probe match's payload bits as a double -> f64
    kExpr,             ///< a double expression -> f64
  };

  Kind kind = Kind::kInt64Column;
  uint16_t col = 0;
  Expr expr;

  static OutputCol Int64Column(uint16_t col) { return {Kind::kInt64Column, col, {}}; }
  static OutputCol Int32Column(uint16_t col) { return {Kind::kInt32Column, col, {}}; }
  static OutputCol U32Column(uint16_t col) { return {Kind::kU32Column, col, {}}; }
  static OutputCol MatchPayloadF64() { return {Kind::kMatchPayloadF64, 0, {}}; }
  static OutputCol OfExpr(const Expr &expr) { return {Kind::kExpr, 0, expr}; }
};

/// One materialized result cell: `i64` for the integer column kinds, `f64`
/// for kMatchPayloadF64/kExpr.
struct TopKValue {
  int64_t i64 = 0;
  double f64 = 0;
};

/// One top-k result row: one TopKValue per OutputCol, in spec order.
struct TopKRow {
  std::vector<TopKValue> cols;
};

/// ORDER BY ... LIMIT k as a pipeline-breaking sink. Push keeps a bounded
/// heap (worst candidate on top) per block ordinal — candidates are rows, or
/// matches on a probed chunk, considered in chunk order — so workers touch
/// disjoint state and the set a block contributes is independent of the
/// worker count. Finish folds the per-block heaps in block order into one
/// k-bounded heap and sorts it best-first. Because the comparison ends in
/// the strictly unique (ordinal, sequence) tie-break, the final rows are ONE
/// deterministic answer, not "some top k": bit-exact against the scalar
/// oracle at any worker count, including the order of ties at the boundary.
///
/// A null sort-key input drops the candidate (SQL semantics are ORDER BY
/// over non-null keys here; the TPC-H workloads ship no nulls). k == 0
/// yields an empty result; k > n yields all n in sorted order.
class TopKOp final : public Operator {
 public:
  /// At most this many sort keys per operator (evaluated into a fixed
  /// buffer in the hot loop; raise if a query ever needs more).
  static constexpr size_t kMaxSortKeys = 4;

  TopKOp(uint32_t k, std::vector<SortKey> keys, std::vector<OutputCol> outputs)
      : k_(k), keys_(std::move(keys)), outputs_(std::move(outputs)) {
    MAINLINE_ASSERT(!keys_.empty(), "a top-k needs at least one sort key");
    MAINLINE_ASSERT(keys_.size() <= kMaxSortKeys, "too many sort keys");
  }

  void Prepare(size_t num_blocks) override {
    per_block_.assign(num_blocks, {});
    result_.clear();
  }

  void Push(Chunk *chunk) override;

  std::string Label() const override { return "TopK"; }

  void Finish() override;

  /// Final rows, best first; valid once the plan has Run.
  const std::vector<TopKRow> &Result() const { return result_; }

 private:
  /// One heap candidate: its sort-key values, its (ordinal, sequence)
  /// tie-break, and the already materialized output row.
  struct Item {
    std::array<double, kMaxSortKeys> keys;
    uint64_t ordinal = 0;
    uint64_t seq = 0;
    TopKRow row;
  };

  /// Strict weak (in fact total) order: does candidate a outrank b?
  bool Better(const double *a_keys, uint64_t a_ordinal, uint64_t a_seq,
              const Item &b) const {
    for (size_t i = 0; i < keys_.size(); i++) {
      if (a_keys[i] != b.keys[i]) {
        return keys_[i].descending ? a_keys[i] > b.keys[i] : a_keys[i] < b.keys[i];
      }
    }
    if (a_ordinal != b.ordinal) return a_ordinal < b.ordinal;
    return a_seq < b.seq;
  }
  bool Better(const Item &a, const Item &b) const {
    return Better(a.keys.data(), a.ordinal, a.seq, b);
  }

  uint32_t k_;
  std::vector<SortKey> keys_;
  std::vector<OutputCol> outputs_;
  /// Bounded per-ordinal heaps, worst candidate at the front.
  std::vector<std::vector<Item>> per_block_;
  std::vector<TopKRow> result_;
};

}  // namespace mainline::execution::op
