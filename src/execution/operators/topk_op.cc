#include "arrowlite/array.h"
#include "execution/operators/topk_op.h"

#include <algorithm>
#include <bit>

namespace mainline::execution::op {

namespace {

/// One sort key or output column bound against a chunk: the raw column
/// pointer (or bound expression) plus the null source, resolved once per
/// Push so the per-candidate loop never re-dispatches.
struct BoundInput {
  const arrowlite::Array *array = nullptr;  // column kinds; null for payload
  BoundExpr expr;                           // expression kinds
  bool array_has_nulls = false;
};

BoundInput BindU32(const Chunk &chunk, uint16_t col) {
  BoundInput b;
  b.array = &chunk.batch->Column(col);
  b.array_has_nulls = b.array->null_count() != 0;
  return b;
}

}  // namespace

void TopKOp::Push(Chunk *chunk) {
  if (k_ == 0) return;
  std::vector<Item> *heap = &per_block_[chunk->block_ordinal];
  const auto comp = [this](const Item &a, const Item &b) { return Better(a, b); };

  // Bind every sort key and output column once for this block.
  std::array<BoundInput, kMaxSortKeys> bound_keys;
  for (size_t i = 0; i < keys_.size(); i++) {
    switch (keys_[i].source) {
      case SortKey::Source::kMatchPayloadF64:
        MAINLINE_ASSERT(chunk->probed, "a payload sort key needs a probe upstream");
        break;
      case SortKey::Source::kU32Column:
        bound_keys[i] = BindU32(*chunk, keys_[i].col);
        break;
      case SortKey::Source::kExpr:
        bound_keys[i].expr = Bind(keys_[i].expr, *chunk);
        break;
    }
  }
  std::vector<BoundInput> bound_outputs(outputs_.size());
  for (size_t i = 0; i < outputs_.size(); i++) {
    switch (outputs_[i].kind) {
      case OutputCol::Kind::kMatchPayloadF64:
        MAINLINE_ASSERT(chunk->probed, "a payload output needs a probe upstream");
        break;
      case OutputCol::Kind::kExpr:
        bound_outputs[i].expr = Bind(outputs_[i].expr, *chunk);
        break;
      default:
        bound_outputs[i].array = &chunk->batch->Column(outputs_[i].col);
        break;
    }
  }

  const auto materialize = [&](uint32_t row, uint64_t payload) {
    TopKRow out;
    out.cols.resize(outputs_.size());
    for (size_t i = 0; i < outputs_.size(); i++) {
      TopKValue *value = &out.cols[i];
      const BoundInput &bound = bound_outputs[i];
      switch (outputs_[i].kind) {
        case OutputCol::Kind::kInt64Column:
          value->i64 = bound.array->buffer(0)->data_as<int64_t>()[row];
          break;
        case OutputCol::Kind::kInt32Column:
          value->i64 = bound.array->buffer(0)->data_as<int32_t>()[row];
          break;
        case OutputCol::Kind::kU32Column:
          value->i64 = bound.array->buffer(0)->data_as<uint32_t>()[row];
          break;
        case OutputCol::Kind::kMatchPayloadF64:
          value->f64 = std::bit_cast<double>(payload);
          break;
        case OutputCol::Kind::kExpr:
          value->f64 = bound.expr.Eval(row);
          break;
      }
    }
    return out;
  };

  // Candidates in chunk order (the within-block scan order): the sequence
  // number advances per non-null candidate, closing the tie-break.
  uint64_t seq = 0;
  double key_values[kMaxSortKeys];
  const auto consider = [&](uint32_t row, uint64_t payload) {
    for (size_t i = 0; i < keys_.size(); i++) {
      switch (keys_[i].source) {
        case SortKey::Source::kMatchPayloadF64:
          key_values[i] = std::bit_cast<double>(payload);
          break;
        case SortKey::Source::kU32Column: {
          const BoundInput &bound = bound_keys[i];
          if (bound.array_has_nulls && bound.array->IsNull(row)) return;
          key_values[i] = bound.array->buffer(0)->data_as<uint32_t>()[row];
          break;
        }
        case SortKey::Source::kExpr: {
          const BoundExpr &expr = bound_keys[i].expr;
          if (!expr.NullFree() && expr.IsNull(row)) return;
          key_values[i] = expr.Eval(row);
          break;
        }
      }
    }
    const uint64_t my_seq = seq++;
    if (heap->size() < k_) {
      heap->push_back({{}, chunk->block_ordinal, my_seq, materialize(row, payload)});
      std::copy(key_values, key_values + keys_.size(), heap->back().keys.begin());
      std::push_heap(heap->begin(), heap->end(), comp);
    } else if (Better(key_values, chunk->block_ordinal, my_seq, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), comp);
      Item *slot = &heap->back();
      std::copy(key_values, key_values + keys_.size(), slot->keys.begin());
      slot->ordinal = chunk->block_ordinal;
      slot->seq = my_seq;
      slot->row = materialize(row, payload);
      std::push_heap(heap->begin(), heap->end(), comp);
    }
  };

  if (chunk->probed) {
    for (const JoinMatch &match : chunk->matches) consider(match.row, match.payload);
  } else {
    for (const uint32_t row : chunk->sel) consider(row, 0);
  }
}

void TopKOp::Finish() {
  // Fold the per-block heaps, in block order, into one k-bounded heap. The
  // (ordinal, seq) tie-break makes the winning set — and its sorted order —
  // a single total order, so the fold order cannot matter; walking ordinals
  // ascending just keeps it obviously deterministic.
  const auto comp = [this](const Item &a, const Item &b) { return Better(a, b); };
  std::vector<Item> global;
  for (std::vector<Item> &heap : per_block_) {
    for (Item &item : heap) {
      if (global.size() < k_) {
        global.push_back(std::move(item));
        std::push_heap(global.begin(), global.end(), comp);
      } else if (Better(item, global.front())) {
        std::pop_heap(global.begin(), global.end(), comp);
        global.back() = std::move(item);
        std::push_heap(global.begin(), global.end(), comp);
      }
    }
  }
  per_block_.clear();

  std::sort(global.begin(), global.end(), comp);  // best first
  result_.clear();
  result_.reserve(global.size());
  for (Item &item : global) result_.push_back(std::move(item.row));
}

}  // namespace mainline::execution::op
