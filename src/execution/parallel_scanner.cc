#include "execution/parallel_scanner.h"

#include <algorithm>

#include "catalog/schema.h"
#include "metrics/engine_metrics.h"
#include "storage/data_table.h"
#include "transform/arrow_reader.h"

namespace mainline::execution {

ParallelTableScanner::ParallelTableScanner(catalog::SqlTable *table,
                                           transaction::TransactionContext *txn,
                                           std::vector<uint16_t> projection)
    : table_(table),
      txn_(txn),
      projection_(std::move(projection)),
      blocks_(table->UnderlyingTable().Blocks()) {
  MAINLINE_ASSERT(!projection_.empty(), "scan projection must name at least one column");
  MAINLINE_ASSERT(std::is_sorted(projection_.begin(), projection_.end()) &&
                      std::adjacent_find(projection_.begin(), projection_.end()) ==
                          projection_.end(),
                  "scan projection must be sorted ascending and duplicate-free");
  MAINLINE_ASSERT(projection_.back() < table->GetSchema().NumColumns(),
                  "scan projection column out of range");
}

void ParallelTableScanner::Scan(common::WorkerPool *pool, const ConsumeFn &consume) {
  // relaxed: reset before any worker task is submitted; the pool submit
  // publishes it to the workers.
  cursor_.store(0, std::memory_order_relaxed);
  const uint32_t workers = pool == nullptr ? 0 : pool->NumWorkers();
  {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    stats_ = ScanStats{};
  }

  if (workers == 0) {
    // No usable pool: the cursor machinery still hands out morsels, just to
    // this one thread.
    WorkerLoop(consume);
  } else {
    // One long-running task per worker, each draining the shared cursor —
    // morsel dispatch is the atomic fetch_add, not the task queue, so the
    // queue sees O(workers) entries rather than O(blocks).
    for (uint32_t w = 0; w < workers; w++) {
      const bool accepted = pool->SubmitTask([this, &consume] { WorkerLoop(consume); });
      // A pool shut down between NumWorkers() and here rejects the submit;
      // run that worker's share inline instead of losing it.
      if (!accepted) WorkerLoop(consume);
    }
    pool->WaitUntilAllFinished();
  }

  ScanStats total;
  {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    total = stats_;
  }
  metrics::ScanMetrics &scan_metrics = metrics::Scan();
  scan_metrics.morsel_scans->Add(1);
  scan_metrics.rows->Add(total.rows);
  scan_metrics.frozen_blocks->Add(total.frozen_blocks);
  scan_metrics.hot_blocks->Add(total.hot_blocks);
}

void ParallelTableScanner::WorkerLoop(const ConsumeFn &consume) {
  // Accumulate locally and fold into the merged total at loop exit: the
  // worker's contribution lands on *every* path out of this loop, rather
  // than relying on a post-wait sweep on the driving thread.
  ScanStats stats;
  const catalog::Schema &schema = table_->GetSchema();
  storage::DataTable *data_table = &table_->UnderlyingTable();
  while (true) {
    // relaxed: morsel dispatch needs only a unique ordinal per worker; block
    // contents are synchronized by the storage layer, not by this counter.
    const size_t ordinal = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (ordinal >= blocks_.size()) break;
    ColumnVectorBatch batch =
        transform::ArrowReader::ReadBlock(schema, data_table, blocks_[ordinal], txn_, &projection_);
    if (stats.Count(batch)) consume(ordinal, &batch);
  }
  common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
  stats_.Add(stats);
}

}  // namespace mainline::execution
