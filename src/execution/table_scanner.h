#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "execution/column_vector_batch.h"
#include "catalog/sql_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"

namespace mainline::execution {

/// \return the index of `schema_pos` within the sorted, duplicate-free
/// `projection`. Aborts (in every build) when the column is not projected:
/// any index returned here would silently read the wrong column. Runs once
/// per column per scan, never per tuple.
uint16_t ProjectionIndexOf(const std::vector<uint16_t> &projection, uint16_t schema_pos);

/// Counters for one scan: how many blocks each access path served, and how
/// many visible rows came out. Reported by QueryRunner and figure16.
struct ScanStats {
  uint64_t frozen_blocks = 0;  ///< blocks read zero-copy in place
  uint64_t hot_blocks = 0;     ///< blocks transactionally materialized
  uint64_t rows = 0;           ///< visible rows produced

  void Add(const ScanStats &other) {
    frozen_blocks += other.frozen_blocks;
    hot_blocks += other.hot_blocks;
    rows += other.rows;
  }

  /// Count one block read (empty blocks count toward the block counters).
  /// \return true if `batch` holds rows.
  bool Count(const ColumnVectorBatch &batch) {
    (batch.Path() == AccessPath::kFrozenInSitu ? frozen_blocks : hot_blocks)++;
    rows += static_cast<uint64_t>(batch.NumRows());
    return batch.NumRows() != 0;
  }
};

/// Block-at-a-time scan over a SqlTable with the paper's dual access path
/// (Section 4.1): every block goes through transform::ArrowReader::ReadBlock,
/// which reads a frozen block in situ under its read lock and materializes
/// any other block through the scan's transaction. Both paths surface the
/// same ColumnVectorBatch view, so operators upstream are path-oblivious,
/// and ReadBlock documents why the two paths read one snapshot.
class TableScanner {
 public:
  /// \param table table to scan (block list is snapshotted here)
  /// \param txn transaction all hot-path reads resolve through
  /// \param projection schema column positions to expose; must be sorted
  ///        ascending and duplicate-free (catalog::Schema::ResolveColumns
  ///        produces this shape from column names)
  TableScanner(catalog::SqlTable *table, transaction::TransactionContext *txn,
               std::vector<uint16_t> projection);

  DISALLOW_COPY_AND_MOVE(TableScanner)

  /// Produce the next non-empty batch.
  /// \return true if `out` was (re)bound to a new block's data; false when
  ///         the table is exhausted.
  bool Next(ColumnVectorBatch *out);

  const ScanStats &Stats() const { return stats_; }

  const std::vector<uint16_t> &Projection() const { return projection_; }

  /// \return the batch column index of schema column `schema_pos`.
  uint16_t BatchIndex(uint16_t schema_pos) const;

 private:
  catalog::SqlTable *table_;
  transaction::TransactionContext *txn_;
  std::vector<uint16_t> projection_;
  std::vector<storage::RawBlock *> blocks_;
  size_t next_block_ = 0;
  ScanStats stats_;
};

}  // namespace mainline::execution
