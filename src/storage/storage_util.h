#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/tsan_annotations.h"
#include "common/typedefs.h"
#include "storage/projected_row.h"
#include "storage/tuple_access_strategy.h"
#include "storage/varlen_entry.h"

namespace mainline::storage {

/// Stateless helpers for moving attribute values between blocks and
/// projections, and for applying before-image deltas during version-chain
/// traversal.
class StorageUtil {
 public:
  StorageUtil() = delete;

  /// Copy a single value of `attr_size` bytes.
  static void CopyValue(uint16_t attr_size, byte *to, const byte *from) {
    std::memcpy(to, from, attr_size);
  }

  /// Copy the value of (`slot`, column at projection index `idx`) from the
  /// block into the projection, preserving nulls.
  static void CopyAttrIntoProjection(const TupleAccessStrategy &accessor, TupleSlot slot,
                                     ProjectedRow *to, uint16_t idx) {
    // Torn-read protocol: this read from the block intentionally races with
    // in-place writers. Select callers re-read the slot's version pointer
    // (seq_cst) AFTER copying and repair through the undo chain; Update's
    // before-image population is re-run whenever its version-pointer CAS
    // fails. Either way, bytes that raced are never used unrepaired.
    common::TsanIgnoreReadsScope torn_read;
    const col_id_t col = to->ColumnIds()[idx];
    const byte *from = accessor.AccessWithNullCheck(slot, col);
    if (from == nullptr) {
      to->SetNull(idx);
    } else {
      CopyValue(accessor.GetBlockLayout().AttrSize(col), to->AccessForceNotNull(idx), from);
    }
  }

  /// Copy the value at projection index `idx` from the projection into the
  /// block, preserving nulls. A null also zeroes the attribute's bytes:
  /// blocks are never zeroed on allocation, and a frozen block hands its
  /// value buffers out as they are, null slots included. Bytes that already
  /// read zero are not written, so a null in a page no value has touched yet
  /// leaves that page untouched.
  static void CopyAttrFromProjection(const TupleAccessStrategy &accessor, TupleSlot slot,
                                     const ProjectedRow &from, uint16_t idx) {
    const col_id_t col = from.ColumnIds()[idx];
    const byte *value = from.AccessWithNullCheck(idx);
    if (value == nullptr) {
      byte *bytes = accessor.AccessWithoutNullCheck(slot, col);
      const uint16_t size = accessor.GetBlockLayout().AttrSize(col);
      if (std::any_of(bytes, bytes + size, [](byte b) { return b != byte{0}; })) {
        std::memset(bytes, 0, size);
      }
      accessor.SetNull(slot, col);
    } else {
      CopyValue(accessor.GetBlockLayout().AttrSize(col),
                accessor.AccessForceNotNull(slot, col), value);
    }
  }

  /// Apply the before-image `delta` onto `buffer`: for every column present
  /// in both projections, overwrite `buffer`'s value (and null bit) with
  /// `delta`'s. Both column id arrays are sorted, so this is a linear merge.
  static void ApplyDelta(const BlockLayout &layout, const ProjectedRow &delta,
                         ProjectedRow *buffer) {
    const col_id_t *delta_ids = delta.ColumnIds();
    const col_id_t *buffer_ids = buffer->ColumnIds();
    uint16_t d = 0, b = 0;
    while (d < delta.NumColumns() && b < buffer->NumColumns()) {
      if (delta_ids[d] == buffer_ids[b]) {
        const byte *value = delta.AccessWithNullCheck(d);
        if (value == nullptr) {
          buffer->SetNull(b);
        } else {
          CopyValue(layout.AttrSize(delta_ids[d]), buffer->AccessForceNotNull(b), value);
        }
        d++;
        b++;
      } else if (delta_ids[d] < buffer_ids[b]) {
        d++;
      } else {
        b++;
      }
    }
  }

  /// Replace every non-inlined varlen value in `row` with a freshly
  /// allocated owned copy. Needed when a row read from one slot is written
  /// to another: the delete/before-image keeps the original buffers, so the
  /// new tuple needs its own (Section 4.4). The copies are reclaimed through
  /// the writing transaction's loose-varlen list if it aborts.
  static void DeepCopyVarlens(const BlockLayout &layout, ProjectedRow *row) {
    for (uint16_t i = 0; i < row->NumColumns(); i++) {
      if (!layout.IsVarlen(row->ColumnIds()[i])) continue;
      byte *value = row->AccessWithNullCheck(i);
      if (value == nullptr) continue;
      auto *entry = reinterpret_cast<VarlenEntry *>(value);
      if (entry->IsInlined()) continue;
      auto *copy = new byte[entry->Size()];
      std::memcpy(copy, entry->Content(), entry->Size());
      *entry = VarlenEntry::Create(copy, entry->Size(), true);
    }
  }

  /// Free every owned out-of-line varlen buffer referenced by `delta`.
  /// Used by the GC when reclaiming undo records and by abort cleanup.
  static void DeallocateVarlensInDelta(const BlockLayout &layout, const ProjectedRow &delta) {
    for (uint16_t i = 0; i < delta.NumColumns(); i++) {
      if (!layout.IsVarlen(delta.ColumnIds()[i])) continue;
      const byte *value = delta.AccessWithNullCheck(i);
      if (value == nullptr) continue;
      const auto *entry = reinterpret_cast<const VarlenEntry *>(value);
      if (entry->NeedReclaim()) delete[] entry->Content();
    }
  }
};

}  // namespace mainline::storage
