#pragma once

// Engine wiring and small engine-facing helpers shared by the workloads. The
// driver reaches the engine only through its public entry points.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/sql_table.h"
#include "common/typedefs.h"
#include "execution/column_vector_batch.h"
#include "execution/table_scanner.h"
#include "export/protocols.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "metrics/metrics_registry.h"
#include "storage/block_access_controller.h"
#include "storage/projected_row.h"
#include "storage/storage_defs.h"
#include "trace.h"
#include "transaction/transaction_manager.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"

namespace perfbench {

namespace ml = mainline;

/// One engine instance, optionally with a write-ahead log. Members are
/// destroyed in reverse order: the GC first (while tables are alive), then
/// the transaction manager (which drains the log manager), then the log
/// manager, the catalog's tables and the pools.
struct Engine {
  /// \param log_path WAL file, or empty to run without logging
  explicit Engine(const std::string &log_path)
      : block_store(60000, 1000),
        // A small free-segment cache: it fills to its cap in every run, so
        // the memory it retains does not depend on GC timing.
        buffer_pool(0, 1000),
        catalog(&block_store),
        log_manager(log_path.empty() ? nullptr
                                     : std::make_unique<ml::logging::LogManager>(log_path)),
        txn_manager(&buffer_pool, true, log_manager.get()),
        gc(&txn_manager) {
    if (log_manager != nullptr) {
      log_manager->SetTableResolver([this](ml::catalog::table_oid_t oid) {
        return &catalog.GetTable(oid)->UnderlyingTable();
      });
    }
  }

  ml::storage::BlockStore block_store;
  ml::storage::RecordBufferSegmentPool buffer_pool;
  ml::catalog::Catalog catalog;
  std::unique_ptr<ml::logging::LogManager> log_manager;
  ml::transaction::TransactionManager txn_manager;
  ml::gc::GarbageCollector gc;
};

/// Rows visible to a fresh snapshot, counted through the engine's scanner.
inline uint64_t VisibleRows(ml::catalog::SqlTable *table,
                            ml::transaction::TransactionManager *txn_manager) {
  ml::transaction::TransactionContext *txn = txn_manager->BeginTransaction();
  uint64_t rows = 0;
  {
    ml::execution::TableScanner scanner(table, txn, {0});
    ml::execution::ColumnVectorBatch batch;
    while (scanner.Next(&batch)) {
    }
    rows = scanner.Stats().rows;
  }
  txn_manager->Commit(txn);
  return rows;
}

/// Percentage of `tables`' blocks that are frozen.
inline double FrozenBlockPct(const std::vector<ml::catalog::SqlTable *> &tables) {
  uint64_t frozen = 0, total = 0;
  for (ml::catalog::SqlTable *table : tables) {
    for (ml::storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      total++;
      if (block->controller.GetState() == ml::storage::BlockState::kFrozen) frozen++;
    }
  }
  return total == 0 ? 0 : 100.0 * static_cast<double>(frozen) / static_cast<double>(total);
}

/// Accumulate one set of transform counters into another.
inline void AddTransformStats(ml::transform::TransformStats *into,
                              const ml::transform::TransformStats &from) {
  into->tuples_moved += from.tuples_moved;
  into->blocks_frozen += from.blocks_frozen;
  into->compaction_aborts += from.compaction_aborts;
  into->gather_retries += from.gather_retries;
  into->compaction_us += from.compaction_us;
  into->gather_us += from.gather_us;
}

/// Freeze every block of `tables` with one gather-mode TransformPipeline
/// pass, the GC driven inline (no GC thread may run meanwhile). Adds the
/// pass's counters to `stats` and returns its wall seconds.
inline double FreezeTables(Engine *engine, const std::vector<ml::catalog::SqlTable *> &tables,
                           TraceBuffer *trace, const char *span_name,
                           ml::transform::TransformStats *stats) {
  ml::transform::AccessObserver observer(1);
  ml::transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc,
                                              ml::transform::GatherMode::kVarlenGather);
  ml::transform::TransformPipeline pipeline(&observer, &transformer, 10);
  for (ml::catalog::SqlTable *table : tables) pipeline.EnqueueTable(&table->UnderlyingTable());
  ScopedSpan span(trace, span_name, "transform");
  const uint64_t start = NowNs();
  ml::transform::TransformStats pass;
  pipeline.RunOnce(&pass);
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  AddTransformStats(stats, pass);
  return seconds;
}

/// Write the first tuple of every block of `tables` back with its own value
/// of the table's first fixed-size column, in one transaction. Every block
/// flips back to hot, so the next freeze must gather it again, while every
/// row keeps its contents: query answers and indexes stay as they were.
/// (A varlen column is never rewritten: the copy would share its buffer.)
/// The caller drains the WAL, if any, and runs the GC before freezing.
/// \return false if a write conflicted (the transaction is then aborted)
inline bool ThawTables(Engine *engine, const std::vector<ml::catalog::SqlTable *> &tables) {
  ml::transaction::TransactionContext *txn = engine->txn_manager.BeginTransaction();
  bool ok = true;
  for (ml::catalog::SqlTable *table : tables) {
    const ml::storage::BlockLayout &layout = table->UnderlyingTable().GetLayout();
    uint16_t col = 0;
    while (layout.IsVarlen(ml::storage::col_id_t(col))) col++;
    const ml::storage::ProjectedRowInitializer init = table->InitializerForColumns({col});
    std::vector<ml::byte> bytes(init.ProjectedRowSize() + 8);
    for (ml::storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      ml::storage::ProjectedRow *row = init.InitializeRow(bytes.data());
      const ml::storage::TupleSlot slot(block, 0);
      if (table->Select(txn, slot, row)) ok = ok && table->Update(txn, slot, *row);
    }
  }
  if (ok) {
    engine->txn_manager.Commit(txn);
  } else {
    engine->txn_manager.Abort(txn);
  }
  return ok;
}

/// A client landing zone for exports of `table`, sized at twice its blocks.
/// Enough for the tables exported here (ORDER_LINE, LINEITEM), whose varlen
/// values are short; a table with long strings could need more, and the
/// client buffer's overflow check is compiled out of Release builds.
inline std::unique_ptr<ml::exporter::ClientBuffer> ClientFor(ml::catalog::SqlTable *table) {
  const uint64_t blocks = table->UnderlyingTable().NumBlocks();
  return std::make_unique<ml::exporter::ClientBuffer>((blocks * 2 + 16) << 20);
}

/// Rows the client of `exporter`'s last export received, counted over the
/// batches it landed (not the exporter's own server-side tally).
inline uint64_t ReceivedRows(const ml::exporter::ArrowFlightExporter &exporter) {
  uint64_t rows = 0;
  for (const auto &batch : exporter.ClientBatches()) rows += static_cast<uint64_t>(batch->num_rows());
  return rows;
}

/// Counter delta between two registry snapshots (0 when absent).
inline double CounterDelta(const ml::metrics::MetricsSnapshot &delta, const char *name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : static_cast<double>(it->second);
}

}  // namespace perfbench
