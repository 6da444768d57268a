#include "arrowlite/array.h"
#include "arrowlite/type.h"
#include "common/selection_vector.h"
#include "execution/operators/aggregate_op.h"

#include <array>
#include <limits>
#include <map>
#include <string_view>

namespace mainline::execution::op {

namespace {

/// Bit 63 of a key word marks a hashed long string (see KeyWord).
constexpr uint64_t kLongTag = uint64_t{1} << 63;
/// A dictionary code whose word is not computed yet; no KeyWord equals it.
constexpr uint64_t kUnresolved = ~uint64_t{0};
constexpr uint32_t kEmpty = ~uint32_t{0};

/// One key column value as one integer. A string of at most 7 bytes is
/// packed with its length in the top byte, so "A", "AA" and "A\0" all
/// differ and equal words mean equal strings. A longer string becomes a
/// tagged hash, which a lookup must confirm by comparing the strings.
uint64_t KeyWord(std::string_view s) {
  if (s.size() > 7) return kLongTag | (std::hash<std::string_view>{}(s) >> 8);
  uint64_t word = uint64_t{s.size()} << 56;
  for (size_t i = 0; i < s.size(); i++) {
    word |= uint64_t{static_cast<unsigned char>(s[i])} << (8 * i);
  }
  return word;
}

struct Slot {
  uint64_t w0, w1;
  uint32_t gid;
};

/// Per-thread scratch, reused across chunks: the probed rows, pass 1's group
/// ids and hash slots, and each key column's dictionary-code words.
struct Scratch {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> gids;
  std::vector<Slot> slots;
  std::array<std::vector<uint64_t>, 2> dict_words;
};
thread_local Scratch tls;

/// Pass 1's lookup: linear probing over key-word pairs, starting at 64 slots
/// for each chunk and doubling at half load.
class GroupTable {
 public:
  explicit GroupTable(std::vector<Slot> *slots) : slots_(slots) {
    slots_->assign(64, Slot{0, 0, kEmpty});
  }

  /// The slot holding (w0, w1) — `same(gid)` confirms a hit on a long key —
  /// or the empty slot where it belongs.
  template <typename Same>
  Slot *Find(uint64_t w0, uint64_t w1, Same &&same) {
    const size_t mask = slots_->size() - 1;
    uint64_t h = (w0 ^ (w1 * 0x9E3779B97F4A7C15ULL)) * 0xBF58476D1CE4E5B9ULL;
    for (size_t i = (h ^ (h >> 31)) & mask;; i = (i + 1) & mask) {
      Slot &slot = (*slots_)[i];
      if (slot.gid == kEmpty) return &slot;
      if (slot.w0 == w0 && slot.w1 == w1 && (((w0 | w1) & kLongTag) == 0 || same(slot.gid))) {
        return &slot;
      }
    }
  }

  void Fill(Slot *slot, uint64_t w0, uint64_t w1, uint32_t gid) {
    *slot = {w0, w1, gid};
    if (++size_ * 2 <= slots_->size()) return;
    std::vector<Slot> old(slots_->size() * 2, Slot{0, 0, kEmpty});
    old.swap(*slots_);
    for (const Slot &s : old) {
      if (s.gid != kEmpty) *Find(s.w0, s.w1, [](uint32_t) { return false; }) = s;
    }
  }

 private:
  std::vector<Slot> *slots_;
  size_t size_ = 0;
};

/// Call `f(value)` with `value(row, &x)`: false for a null row, else x = the
/// expression at `row`. Specialised per expression form, so the row loops
/// `f` builds carry no form dispatch and, for null-free inputs, no null test.
template <typename F>
void WithValue(const BoundExpr &e, F &&f) {
  const double *a = e.a, *b = e.b, *c = e.c;
  if (!e.NullFree()) {
    f([&e](uint32_t r, double *x) { return !e.IsNull(r) && (*x = e.Eval(r), true); });
    return;
  }
  switch (e.kind) {
    case Expr::Kind::kColumn:
      f([a](uint32_t r, double *x) { return *x = a[r], true; });
      break;
    case Expr::Kind::kMul:
      f([a, b](uint32_t r, double *x) { return *x = a[r] * b[r], true; });
      break;
    case Expr::Kind::kDiscounted:
      f([a, b](uint32_t r, double *x) { return *x = a[r] * (1.0 - b[r]), true; });
      break;
    case Expr::Kind::kDiscountedTaxed:
      f([a, b, c](uint32_t r, double *x) {
        return *x = a[r] * (1.0 - b[r]) * (1.0 + c[r]), true;
      });
      break;
  }
}

/// Pass 2's loop: `step(acc, k)` for every row k in order, with `acc` that
/// row's group accumulator. Without group ids every row is in one group, so
/// the accumulator lives in a local (a register) and is stored once.
template <typename Step>
void ForEachRow(size_t n, const uint32_t *gids, AggValue *base, size_t stride, Step &&step) {
  if (gids == nullptr) {
    AggValue acc = *base;
    for (size_t k = 0; k < n; k++) step(&acc, k);
    *base = acc;
  } else {
    for (size_t k = 0; k < n; k++) step(&base[gids[k] * stride], k);
  }
}

}  // namespace

AggregateOp::AggregateOp(std::vector<uint16_t> group_cols, std::vector<AggSpec> aggs)
    : group_cols_(std::move(group_cols)), aggs_(std::move(aggs)) {
  MAINLINE_ASSERT(group_cols_.size() <= 2, "at most two group-by columns are supported");
  MAINLINE_ASSERT(!aggs_.empty(), "an aggregate needs at least one AggSpec");
  identity_.resize(aggs_.size());
  for (size_t i = 0; i < aggs_.size(); i++) {
    if (aggs_[i].kind == AggSpec::Kind::kSumPayload || aggs_[i].payload_gate) {
      needs_payload_ = true;
    }
    if (aggs_[i].kind == AggSpec::Kind::kMin) {
      identity_[i].f64 = std::numeric_limits<double>::infinity();
    } else if (aggs_[i].kind == AggSpec::Kind::kMax) {
      identity_[i].f64 = -std::numeric_limits<double>::infinity();
    }
  }
}

uint32_t AggregateOp::AddGroup(Partial *partial, std::vector<std::string> keys) const {
  partial->keys.push_back(std::move(keys));
  partial->values.insert(partial->values.end(), identity_.begin(), identity_.end());
  return static_cast<uint32_t>(partial->keys.size() - 1);
}

/// Pass 1: gids[k] = the group of rows[k], groups created at first
/// occurrence. Returns true when all n rows fell in one group.
bool AggregateOp::ResolveGroups(const Chunk &chunk, const uint32_t *rows, size_t n,
                                Partial *partial, uint32_t *gids) const {
  const size_t num_cols = group_cols_.size();
  std::array<const arrowlite::Array *, 2> cols = {nullptr, nullptr};
  std::array<const int32_t *, 2> codes = {nullptr, nullptr};
  for (size_t c = 0; c < num_cols; c++) {
    cols[c] = &chunk.batch->Column(group_cols_[c]);
    // Dictionary keys resolve by code, each distinct code packed once. The
    // cache is per column and only used when no longer than the chunk, so
    // it never grows with a product of dictionary sizes.
    if (cols[c]->type() != arrowlite::Type::kDictionary) continue;
    const auto len = static_cast<size_t>(cols[c]->dictionary()->length());
    if (len > n) continue;  // Array::GetString resolves codes itself
    codes[c] = cols[c]->buffer(0)->data_as<int32_t>();
    tls.dict_words[c].assign(len, kUnresolved);
  }
  const auto word = [&](size_t c, uint32_t row) {
    if (c >= num_cols) return uint64_t{0};
    if (codes[c] == nullptr) return KeyWord(cols[c]->GetString(row));
    uint64_t *w = &tls.dict_words[c][static_cast<size_t>(codes[c][row])];
    if (*w == kUnresolved) *w = KeyWord(cols[c]->dictionary()->GetString(codes[c][row]));
    return *w;
  };

  // The table lives for one chunk, which is all of this block's rows.
  MAINLINE_ASSERT(partial->keys.empty(), "a grouped partial takes one chunk per block");
  GroupTable table(&tls.slots);
  bool one_group = true;
  for (size_t k = 0; k < n; k++) {
    const uint32_t row = rows[k];
    const uint64_t w0 = word(0, row), w1 = word(1, row);
    Slot *slot = table.Find(w0, w1, [&](uint32_t g) {
      for (size_t c = 0; c < num_cols; c++) {
        if (partial->keys[g][c] != cols[c]->GetString(row)) return false;
      }
      return true;
    });
    uint32_t gid = slot->gid;
    if (gid == kEmpty) {
      std::vector<std::string> keys;
      for (size_t c = 0; c < num_cols; c++) keys.emplace_back(cols[c]->GetString(row));
      gid = AddGroup(partial, std::move(keys));
      table.Fill(slot, w0, w1, gid);
    }
    gids[k] = gid;
    one_group &= gids[k] == gids[0];
  }
  return one_group;
}

void AggregateOp::Push(Chunk *chunk) {
  MAINLINE_ASSERT(!needs_payload_ || chunk->probed,
                  "payload aggregates need a join probe upstream");
  // The chunk's rows in row/match order (a probe may repeat rows).
  const uint32_t *rows = chunk->sel.Data();
  size_t n = chunk->sel.Size();
  const JoinMatch *matches = chunk->matches.data();
  if (chunk->probed) {
    n = chunk->matches.size();
    tls.rows.resize(n);
    for (size_t k = 0; k < n; k++) tls.rows[k] = matches[k].row;
    rows = tls.rows.data();
  }
  if (n == 0) return;

  Partial *partial = &partials_[chunk->block_ordinal];
  const uint32_t *gids = nullptr;
  uint32_t one_gid = 0;
  if (group_cols_.empty()) {
    if (partial->keys.empty()) AddGroup(partial, {});
  } else {
    tls.gids.resize(n);
    if (!ResolveGroups(*chunk, rows, n, partial, tls.gids.data())) gids = tls.gids.data();
    one_gid = tls.gids[0];
  }

  // Pass 2: one loop per aggregate, over rows in order.
  const size_t stride = aggs_.size();
  for (size_t i = 0; i < stride; i++) {
    const AggSpec &spec = aggs_[i];
    AggValue *base = partial->values.data() + (gids == nullptr ? one_gid * stride : 0) + i;
    const auto fold = [&](auto &&step) { ForEachRow(n, gids, base, stride, step); };
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        fold([](AggValue *acc, size_t) { acc->u64++; });
        break;
      case AggSpec::Kind::kSumPayload:
        fold([matches](AggValue *acc, size_t k) { acc->u64 += matches[k].payload; });
        break;
      case AggSpec::Kind::kSum:
        WithValue(Bind(spec.expr, *chunk), [&](auto value) {
          if (spec.payload_gate) {
            fold([&](AggValue *acc, size_t k) {
              double x;
              if (matches[k].payload != 0 && value(rows[k], &x)) acc->f64 += x;
            });
          } else {
            fold([&](AggValue *acc, size_t k) {
              double x;
              if (value(rows[k], &x)) acc->f64 += x;
            });
          }
        });
        break;
      case AggSpec::Kind::kMin:
        WithValue(Bind(spec.expr, *chunk), [&](auto value) {
          fold([&](AggValue *acc, size_t k) {
            double x;
            if (value(rows[k], &x) && x < acc->f64) acc->f64 = x;
          });
        });
        break;
      case AggSpec::Kind::kMax:
        WithValue(Bind(spec.expr, *chunk), [&](auto value) {
          fold([&](AggValue *acc, size_t k) {
            double x;
            if (value(rows[k], &x) && x > acc->f64) acc->f64 = x;
          });
        });
        break;
    }
  }
  // Like Chunk::Reset: one skewed join's match list must not pin the buffers.
  if (tls.rows.capacity() > Chunk::kMaxRetainedMatches) std::vector<uint32_t>().swap(tls.rows);
  if (tls.gids.capacity() > Chunk::kMaxRetainedMatches) std::vector<uint32_t>().swap(tls.gids);
}

void AggregateOp::Finish() {
  // Fold the per-block partials in block order — ONE addition per aggregate
  // per (block, group), in each partial's discovery order. Blocks with no
  // qualifying rows have no groups and contribute nothing, exactly like the
  // scalar reference's per-block merge. The map keeps the result sorted.
  std::map<std::vector<std::string>, std::vector<AggValue>> global;
  const size_t stride = aggs_.size();
  for (Partial &partial : partials_) {
    for (size_t g = 0; g < partial.keys.size(); g++) {
      auto [it, fresh] = global.try_emplace(std::move(partial.keys[g]));
      if (fresh) it->second = identity_;
      const AggValue *src = &partial.values[g * stride];
      for (size_t i = 0; i < stride; i++) {
        AggValue *dst = &it->second[i];
        switch (aggs_[i].kind) {
          case AggSpec::Kind::kSum:
            dst->f64 += src[i].f64;
            break;
          case AggSpec::Kind::kCount:
          case AggSpec::Kind::kSumPayload:
            dst->u64 += src[i].u64;
            break;
          case AggSpec::Kind::kMin:
            if (src[i].f64 < dst->f64) dst->f64 = src[i].f64;
            break;
          case AggSpec::Kind::kMax:
            if (src[i].f64 > dst->f64) dst->f64 = src[i].f64;
            break;
        }
      }
    }
  }
  partials_.clear();

  if (group_cols_.empty() && global.empty()) global.emplace(std::vector<std::string>{}, identity_);
  result_.clear();
  result_.reserve(global.size());
  for (auto &[keys, values] : global) result_.push_back({keys, std::move(values)});
}

}  // namespace mainline::execution::op
