#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "execution/operators/operator.h"

namespace mainline::execution::op {

/// One aggregate of an AggregateOp, as data.
struct AggSpec {
  enum class Kind : uint8_t {
    kSum,         ///< double sum of `expr` over qualifying rows/matches
    kCount,       ///< number of qualifying rows/matches (COUNT(*))
    kSumPayload,  ///< integer sum of the join payload (downstream of a probe)
    kMin,         ///< running minimum of `expr`
    kMax,         ///< running maximum of `expr`
  };

  Kind kind = Kind::kCount;
  Expr expr;  ///< input of kSum/kMin/kMax; unused otherwise
  /// kSum only: accumulate a match only when its join payload is non-zero —
  /// SQL's `SUM(x) FILTER (WHERE <payload bit>)`, the shape of Q14's promo
  /// revenue. Requires a probe upstream.
  bool payload_gate = false;

  static AggSpec Sum(Expr expr, bool payload_gate = false) {
    return {Kind::kSum, expr, payload_gate};
  }
  static AggSpec Count() { return {Kind::kCount, {}, false}; }
  static AggSpec SumPayload() { return {Kind::kSumPayload, {}, false}; }
  static AggSpec Min(Expr expr) { return {Kind::kMin, expr, false}; }
  static AggSpec Max(Expr expr) { return {Kind::kMax, expr, false}; }
};

/// One aggregate's accumulator/result: `f64` for kSum/kMin/kMax, `u64` for
/// kCount/kSumPayload.
struct AggValue {
  double f64 = 0;
  uint64_t u64 = 0;
};

/// One result group: the group-by key values (empty for an ungrouped
/// aggregate) and one AggValue per AggSpec, in spec order.
struct ResultRow {
  std::vector<std::string> keys;
  std::vector<AggValue> values;
};

/// Grouped or ungrouped aggregation sink — the canonical per-block-ordinal
/// reduction of tpch_queries.h as an operator. Push folds one block's rows
/// (or join matches) into that block's partial in two column-at-a-time
/// passes:
///
///  1. Group ids. Every row is resolved to a dense group id, in row/match
///     order, through a small open-addressing table that lives for the chunk.
///     Each key column value becomes one integer — a string of at most 7
///     bytes packed with its length, or a tagged hash of a longer string that
///     a hit confirms by comparing the strings — so lookups compare integers
///     and never walk the group list. Dictionary-encoded columns pack each
///     distinct code once. A miss appends a group, so a partial's groups are
///     in the order a scalar tuple-at-a-time pass discovers them.
///  2. One scatter loop per aggregate, with the expression form, the null
///     test and the payload gate hoisted out of the row loop. When every row
///     of the chunk falls in one group (always, for an ungrouped aggregate),
///     the loop accumulates in a local and stores once.
///
/// Both passes keep each (block, group, aggregate) accumulator's additions
/// in row order, and Finish folds the partials into the final result in
/// block order, one addition per aggregate per (block, group). That fixed
/// reduction-tree shape is what makes a plan's floating-point result
/// bit-identical to the scalar tuple-at-a-time reference at any worker
/// count.
///
/// Group-by columns are batch indices of string columns (at most two —
/// enough for every TPC-H shape shipped so far), plain or
/// dictionary-encoded. Group values must be non-null. An ungrouped
/// aggregate always produces exactly one result row even when nothing
/// qualified — sums and counts at zero, kMin/kMax at their identities
/// (+inf/-inf; pair them with a kCount to distinguish "empty" from data). A
/// grouped aggregate produces one row per discovered group, sorted
/// lexicographically by keys.
class AggregateOp final : public Operator {
 public:
  AggregateOp(std::vector<uint16_t> group_cols, std::vector<AggSpec> aggs);

  void Prepare(size_t num_blocks) override {
    partials_.assign(num_blocks, {});
    result_.clear();
  }

  void Push(Chunk *chunk) override;

  std::string Label() const override { return "Aggregate"; }

  void Finish() override;

  /// Final rows; valid once the plan has Run.
  const std::vector<ResultRow> &Result() const { return result_; }

 private:
  /// One block's groups, in discovery order: group g's keys, and its
  /// accumulator for aggregate i at values[g * aggs_.size() + i].
  struct Partial {
    std::vector<std::vector<std::string>> keys;
    std::vector<AggValue> values;
  };

  uint32_t AddGroup(Partial *partial, std::vector<std::string> keys) const;
  bool ResolveGroups(const Chunk &chunk, const uint32_t *rows, size_t n, Partial *partial,
                     uint32_t *gids) const;

  std::vector<uint16_t> group_cols_;
  std::vector<AggSpec> aggs_;
  std::vector<AggValue> identity_;  ///< a fresh group's accumulators
  bool needs_payload_ = false;
  std::vector<Partial> partials_;
  std::vector<ResultRow> result_;
};

}  // namespace mainline::execution::op
