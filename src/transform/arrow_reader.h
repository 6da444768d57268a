#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "arrowlite/array.h"
#include "arrowlite/type.h"
#include "catalog/schema.h"
#include "common/macros.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"

namespace mainline::transform {

/// Which access path served a block read — the dichotomy the whole system is
/// built around (Figure 1): in-situ reads of Arrow-frozen blocks vs
/// transactional materialization of hot ones.
enum class AccessPath : uint8_t {
  /// Zero-copy view into frozen block storage, held under the block's
  /// read lock.
  kFrozenInSitu = 0,
  /// Freshly built arrays holding a transactional snapshot of a hot block.
  kHotMaterialized,
};

/// One block's visible tuples as a RecordBatch (ArrowReader::ReadBlock), plus
/// the block read lock a frozen-path batch needs: its arrays alias block
/// storage, so the lock is held until Release() or destruction. Move-only,
/// so the lock is released exactly once.
class BlockRead {
 public:
  BlockRead() = default;

  /// \param locked_block the block whose read lock this object now owns
  ///        (frozen path), or nullptr (materialized path)
  BlockRead(std::shared_ptr<arrowlite::RecordBatch> batch, AccessPath path,
            storage::RawBlock *locked_block)
      : batch_(std::move(batch)), locked_block_(locked_block), path_(path) {}

  ~BlockRead() { Release(); }

  DISALLOW_COPY(BlockRead)

  BlockRead(BlockRead &&other) noexcept { *this = std::move(other); }

  BlockRead &operator=(BlockRead &&other) noexcept {
    if (this != &other) {
      Release();
      batch_ = std::move(other.batch_);
      locked_block_ = other.locked_block_;
      path_ = other.path_;
      other.locked_block_ = nullptr;
    }
    return *this;
  }

  /// Drop the data and release the block read lock, if any. The arrays go
  /// first: they may alias the block storage the lock guards.
  void Release() {
    batch_ = nullptr;
    if (locked_block_ != nullptr) {
      locked_block_->controller.ReleaseRead();
      locked_block_ = nullptr;
    }
  }

  int64_t NumRows() const { return batch_ == nullptr ? 0 : batch_->num_rows(); }

  /// \return the array of projected column `i`.
  const arrowlite::Array &Column(uint16_t i) const { return *batch_->column(i); }

  const std::shared_ptr<arrowlite::RecordBatch> &Batch() const { return batch_; }

  AccessPath Path() const { return path_; }

 private:
  std::shared_ptr<arrowlite::RecordBatch> batch_;
  storage::RawBlock *locked_block_ = nullptr;
  AccessPath path_ = AccessPath::kHotMaterialized;
};

/// Bridges frozen blocks and the arrowlite columnar API (Section 5): a
/// frozen block *is* Arrow data, so a RecordBatch over it is just metadata
/// wrapping the block's buffers — no copies, no serialization.
class ArrowReader {
 public:
  ArrowReader() = delete;

  /// Map a catalog type to its Arrow physical type.
  static arrowlite::Type ToArrowType(catalog::TypeId type, bool dictionary = false);

  /// Derive the Arrow schema of a table.
  static std::shared_ptr<arrowlite::Schema> ToArrowSchema(const catalog::Schema &schema,
                                                          bool dictionary = false);

  /// Read one block through the dual access path (Sections 4.1 and 5), the
  /// one place every scan and export makes that decision: a frozen block is
  /// wrapped in place under its read lock (FromFrozenBlock), any other block
  /// — or a frozen one with no Arrow metadata, after dropping the lock — is
  /// materialized through `txn` (MaterializeBlock). Thread-safe for
  /// concurrent calls sharing one read-only `txn`: both paths only read
  /// transaction state.
  ///
  /// Snapshot semantics: the hot path is MVCC-consistent by construction
  /// (DataTable::Select). The frozen path is consistent with the same
  /// snapshot because (a) a block only freezes after every transaction that
  /// overlapped its compaction has finished, so a block can never freeze
  /// under a snapshot that predates its frozen contents, and (b) any later
  /// writer flips the block hot *before* modifying it, which makes
  /// TryAcquireRead fail and routes the read to the transactional path. So
  /// a reader that passes one `txn` for every block of a table reads one
  /// snapshot of it.
  /// \param projection schema column positions, sorted ascending; nullptr
  ///        means all columns
  static BlockRead ReadBlock(const catalog::Schema &schema, storage::DataTable *table,
                             storage::RawBlock *block, transaction::TransactionContext *txn,
                             const std::vector<uint16_t> *projection = nullptr);

  /// Build a zero-copy RecordBatch over a frozen block. The caller must hold
  /// the block's read lock (BlockAccessController::TryAcquireRead) for the
  /// lifetime of the batch. `projection` (schema column positions, sorted
  /// ascending) restricts the batch to those columns; nullptr means all — for
  /// frozen blocks a projection is pure metadata savings, since no column
  /// data is copied either way.
  /// \return the batch, or nullptr if the block carries no Arrow metadata.
  static std::shared_ptr<arrowlite::RecordBatch> FromFrozenBlock(
      const catalog::Schema &schema, const storage::DataTable &table,
      storage::RawBlock *block, const std::vector<uint16_t> *projection = nullptr);

  /// Materialize a transactional snapshot of a (typically hot) block into a
  /// freshly built RecordBatch, resolving versions through `txn`. This is the
  /// expensive path Arrow-native storage avoids for cold data, and also the
  /// "Snapshot" baseline of Figure 12. `projection` (schema column positions,
  /// sorted ascending) restricts both the batch and the per-tuple work to
  /// those columns; nullptr means all.
  ///
  /// Slots without a version chain — the bulk of a hot block once the GC has
  /// pruned insert records — are gathered column-at-a-time straight from
  /// block storage (copy first, validate the version pointer after, the same
  /// torn-read protocol DataTable::Select uses); only slots with a live chain
  /// pay a per-tuple Select.
  static std::shared_ptr<arrowlite::RecordBatch> MaterializeBlock(
      const catalog::Schema &schema, storage::DataTable *table, storage::RawBlock *block,
      transaction::TransactionContext *txn, const std::vector<uint16_t> *projection = nullptr);
};

}  // namespace mainline::transform
