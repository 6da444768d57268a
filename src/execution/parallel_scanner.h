#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "common/worker_pool.h"
#include "execution/column_vector_batch.h"
#include "execution/table_scanner.h"
#include "catalog/sql_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"

namespace mainline::execution {

/// Morsel-driven parallel scan: the block list is snapshotted once, and a
/// shared atomic cursor hands out block-granular morsels to the workers of a
/// common::WorkerPool. Blocks are the natural morsel — each one carries its
/// own access controller (Section 4.1), so the dual access path needs no
/// cross-worker coordination: a worker freezes nothing and shares nothing but
/// the read-only scan transaction.
///
/// Each morsel is identified by its *block ordinal* (position in the
/// snapshotted block list). The consume callback runs on worker threads,
/// possibly concurrently with itself; a caller that accumulates per-ordinal
/// partials (see tpch::RunQ1Parallel/RunQ6Parallel) can merge them in block
/// order afterwards, making the result independent of the worker count and
/// bit-identical to a sequential scan.
///
/// Scan statistics are accumulated per worker (no shared cache line bounces
/// during the scan) and each worker folds its partial into the merged total
/// as its loop exits — so the total is complete the moment the last loop
/// returns, no matter how that loop was driven (pool task, inline fallback
/// after a rejected submit, or the no-pool degrade path).
class ParallelTableScanner {
 public:
  /// Called once per non-empty block, from a worker thread. The batch is
  /// only valid for the duration of the call; the scanner releases it (and
  /// the frozen path's block read lock) when the callback returns.
  using ConsumeFn = std::function<void(size_t block_ordinal, ColumnVectorBatch *batch)>;

  /// \param table table to scan (block list is snapshotted here)
  /// \param txn transaction all hot-path reads resolve through; must be
  ///        read-only for the duration of the scan, since workers share it
  /// \param projection schema column positions, sorted ascending and
  ///        duplicate-free (catalog::Schema::ResolveColumns produces this)
  ParallelTableScanner(catalog::SqlTable *table, transaction::TransactionContext *txn,
                       std::vector<uint16_t> projection);

  DISALLOW_COPY_AND_MOVE(ParallelTableScanner)

  /// \return number of blocks in the snapshot — the ordinal space `consume`
  ///         will see (some ordinals may be skipped: empty blocks produce no
  ///         batch).
  size_t NumBlocks() const { return blocks_.size(); }

  const std::vector<uint16_t> &Projection() const { return projection_; }

  /// \return the batch column index of schema column `schema_pos`.
  uint16_t BatchIndex(uint16_t schema_pos) const {
    return ProjectionIndexOf(projection_, schema_pos);
  }

  /// Run the scan to completion over `pool`'s workers, blocking until every
  /// morsel has been consumed. The pool must be otherwise idle (this call
  /// uses WaitUntilAllFinished, which waits on the whole pool). A null pool,
  /// a pool with zero workers, or one that shuts down mid-submit degrades to
  /// an inline scan on the calling thread — never an error, never a hang.
  void Scan(common::WorkerPool *pool, const ConsumeFn &consume) EXCLUDES(stats_latch_);

  /// Merged statistics of the last Scan. A snapshot by value: workers fold
  /// partials into the merged total under stats_latch_, so a reference would
  /// race if read while a Scan is in flight.
  ScanStats Stats() const EXCLUDES(stats_latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    return stats_;
  }

 private:
  /// Claim morsels from the shared cursor until the table is exhausted.
  void WorkerLoop(const ConsumeFn &consume) EXCLUDES(stats_latch_);

  catalog::SqlTable *table_;
  transaction::TransactionContext *txn_;
  std::vector<uint16_t> projection_;
  std::vector<storage::RawBlock *> blocks_;
  std::atomic<size_t> cursor_{0};
  /// Guards the exiting workers' folds into stats_, plus the driving
  /// thread's reset and post-scan reads.
  mutable common::SpinLatch stats_latch_;
  ScanStats stats_ GUARDED_BY(stats_latch_);
};

}  // namespace mainline::execution
