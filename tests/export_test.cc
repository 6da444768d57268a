#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "export/protocols.h"
#include "gc/garbage_collector.h"
#include "metrics/metrics_registry.h"
#include "transform/block_transformer.h"
#include "workload/row_util.h"

namespace mainline {

namespace {

/// Fill `row` (a full-row projection of the export tables' schema) with row
/// number `i`'s values.
void FillRow(storage::ProjectedRow *row, int64_t i) {
  workload::Set<int64_t>(row, 0, i);
  if (i % 5 == 0) {
    row->SetNull(1);
  } else {
    workload::Set<int16_t>(row, 1, static_cast<int16_t>(i % 100));
  }
  workload::Set<double>(row, 2, static_cast<double>(i) * 0.25);
  if (i % 3 == 0) {
    row->SetNull(3);
  } else {
    workload::SetVarchar(row, 3, "note-about-row-number-" + std::to_string(i));
  }
}

catalog::Schema ExportSchema() {
  return catalog::Schema({{"id", catalog::TypeId::kBigInt},
                          {"qty", catalog::TypeId::kSmallInt, true},
                          {"price", catalog::TypeId::kDecimal},
                          {"note", catalog::TypeId::kVarchar, true}});
}

/// Create table `name` and insert rows 0..rows-1 in one transaction.
catalog::SqlTable *LoadTable(catalog::Catalog *catalog,
                             transaction::TransactionManager *txn_manager, const char *name,
                             int64_t rows) {
  catalog::SqlTable *table = catalog->GetTable(catalog->CreateTable(name, ExportSchema()));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager->BeginTransaction();
  for (int64_t i = 0; i < rows; i++) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    FillRow(row, i);
    table->Insert(txn, *row);
  }
  txn_manager->Commit(txn);
  return table;
}

}  // namespace

// All four export mechanisms must deliver the same logical data to the
// client, whether blocks are hot (materialized) or frozen (zero-copy).
class ExportTest : public ::testing::TestWithParam<bool /*frozen*/> {
 protected:
  ExportTest()
      : block_store_(100, 10),
        buffer_pool_(100000, 100),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_) {
    table_ = LoadTable(&catalog_, &txn_manager_, "t", 2000);
    gc_.FullGC();

    if (GetParam()) {
      transform::BlockTransformer transformer(&txn_manager_, &gc_);
      storage::DataTable &dt = table_->UnderlyingTable();
      frozen_blocks_ = transformer.ProcessGroup(&dt, dt.Blocks(), nullptr);
      EXPECT_GT(frozen_blocks_, 0u);
    }
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  catalog::SqlTable *table_;
  uint32_t frozen_blocks_ = 0;
};

TEST_P(ExportTest, FlightDeliversSameDataAsRdmaPathAndWire) {
  exporter::ClientBuffer client(64ull << 20);

  exporter::ArrowFlightExporter flight(&client);
  const auto flight_result = flight.Export(table_, &txn_manager_);
  EXPECT_EQ(flight_result.rows, 2000u);
  EXPECT_EQ(flight_result.frozen_blocks > 0, GetParam());
  ASSERT_FALSE(flight.ClientBatches().empty());

  // Row counts and values, row-major over batches.
  int64_t i = 0;
  double checksum = 0;
  for (const auto &batch : flight.ClientBatches()) {
    for (int64_t r = 0; r < batch->num_rows(); r++, i++) {
      EXPECT_EQ(batch->column(0)->Value<int64_t>(r), i);
      EXPECT_EQ(batch->column(1)->IsNull(r), i % 5 == 0);
      checksum += batch->column(2)->Value<double>(r);
      if (i % 3 != 0) {
        EXPECT_EQ(batch->column(3)->GetString(r),
                  "note-about-row-number-" + std::to_string(i));
      }
    }
  }
  EXPECT_EQ(i, 2000);

  exporter::VectorizedWireExporter vectorized(&client);
  const auto vec_result = vectorized.Export(table_, &txn_manager_);
  EXPECT_EQ(vec_result.rows, 2000u);
  double vec_checksum = 0;
  const auto &vec_batch = vectorized.ClientBatch();
  for (int64_t r = 0; r < vec_batch->num_rows(); r++) {
    vec_checksum += vec_batch->column(2)->Value<double>(r);
  }
  EXPECT_DOUBLE_EQ(vec_checksum, checksum);

  exporter::PostgresWireExporter pg(&client);
  const auto pg_result = pg.Export(table_, &txn_manager_);
  EXPECT_EQ(pg_result.rows, 2000u);
  const auto &pg_batch = pg.ClientBatch();
  EXPECT_EQ(pg_batch->num_rows(), 2000);
  double pg_checksum = 0;
  for (int64_t r = 0; r < pg_batch->num_rows(); r++) {
    EXPECT_EQ(pg_batch->column(1)->IsNull(r), r % 5 == 0);
    pg_checksum += pg_batch->column(2)->Value<double>(r);
  }
  EXPECT_NEAR(pg_checksum, checksum, 1e-3);  // text round-trip rounding

  exporter::RdmaExporter rdma(&client);
  const auto rdma_result = rdma.Export(table_, &txn_manager_);
  EXPECT_EQ(rdma_result.rows, 2000u);
  EXPECT_GT(rdma_result.wire_bytes, 0u);
  // RDMA ships strictly raw buffers: it can never put more on the wire than
  // the framed IPC stream.
  EXPECT_LE(rdma_result.wire_bytes, flight_result.wire_bytes);
  gc_.FullGC();
}

/// Every export reads one snapshot of its table: one transaction per Export
/// however many blocks the table spans, and a constant row count while a
/// concurrent writer moves rows between blocks.
class ExportSnapshotTest : public ::testing::Test {
 protected:
  ExportSnapshotTest()
      : block_store_(100, 10),
        buffer_pool_(1000000, 1000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        client_(64ull << 20),
        rdma_(&client_),
        flight_(&client_),
        vectorized_(&client_),
        pg_(&client_) {}

  static uint32_t SlotsPerBlock() { return ExportSchema().ToBlockLayout().NumSlots(); }

  /// Rows spanning a little over `blocks` blocks.
  static int64_t RowsForBlocks(uint32_t blocks) {
    return static_cast<int64_t>(blocks) * SlotsPerBlock() + SlotsPerBlock() / 2;
  }

  /// Load RowsForBlocks(blocks) rows and freeze the first `frozen` blocks.
  catalog::SqlTable *Load(const char *name, uint32_t blocks, uint32_t frozen) {
    catalog::SqlTable *table = LoadTable(&catalog_, &txn_manager_, name, RowsForBlocks(blocks));
    gc_.FullGC();
    storage::DataTable &dt = table->UnderlyingTable();
    const std::vector<storage::RawBlock *> all = dt.Blocks();
    transform::BlockTransformer transformer(&txn_manager_, &gc_);
    for (uint32_t i = 0; i < frozen; i++) {
      transformer.ProcessGroup(&dt, {all[i]}, nullptr);
      EXPECT_EQ(all[i]->controller.GetState(), storage::BlockState::kFrozen);
    }
    return table;
  }

  /// Rows the client of `e`'s last export received. RDMA lands raw buffers
  /// with no framing to count rows by, so its server-side tally stands in.
  uint64_t ClientRows(const exporter::Exporter *e, const exporter::ExportResult &result) const {
    if (e == &flight_) {
      uint64_t rows = 0;
      for (const auto &batch : flight_.ClientBatches()) {
        rows += static_cast<uint64_t>(batch->num_rows());
      }
      return rows;
    }
    if (e == &vectorized_) return static_cast<uint64_t>(vectorized_.ClientBatch()->num_rows());
    if (e == &pg_) return static_cast<uint64_t>(pg_.ClientBatch()->num_rows());
    return result.rows;
  }

  static uint64_t TxnBegins() {
    return metrics::MetricsRegistry::Global().Snapshot().counters["txn.begins"];
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  exporter::ClientBuffer client_;
  exporter::RdmaExporter rdma_;
  exporter::ArrowFlightExporter flight_;
  exporter::VectorizedWireExporter vectorized_;
  exporter::PostgresWireExporter pg_;
  exporter::Exporter *const exporters_[4] = {&rdma_, &flight_, &vectorized_, &pg_};
};

TEST_F(ExportSnapshotTest, EachExportBeginsOneTransaction) {
  catalog::SqlTable *table = Load("hot", 2, 0);
  ASSERT_GE(table->UnderlyingTable().NumBlocks(), 3u);
  ASSERT_TRUE(metrics::MetricsRegistry::Global().Enabled());
  for (exporter::Exporter *e : exporters_) {
    const uint64_t before = TxnBegins();
    const exporter::ExportResult result = e->Export(table, &txn_manager_);
    EXPECT_EQ(TxnBegins() - before, 1u) << e->Name();
    EXPECT_EQ(result.hot_blocks, table->UnderlyingTable().NumBlocks()) << e->Name();
    EXPECT_EQ(result.rows, static_cast<uint64_t>(RowsForBlocks(2))) << e->Name();
  }
}

/// A mover deletes rows from blocks every export reads early and reinserts
/// them, one transaction per row, into the insertion block at the end. An
/// export that is not one snapshot sees a row moved mid-export twice.
TEST_F(ExportSnapshotTest, ConcurrentRowMovesNeitherDuplicateNorDropRows) {
  constexpr uint32_t kBlocks = 4;
  const auto expect_rows = static_cast<uint64_t>(RowsForBlocks(kBlocks));
  // Hot, then half frozen: the mover's first block flips hot under it, and
  // block 1 stays frozen throughout, so exports read it in place.
  for (const uint32_t frozen : {0u, 2u}) {
    catalog::SqlTable *table = Load(frozen == 0 ? "hot" : "half_frozen", kBlocks, frozen);
    const std::vector<storage::RawBlock *> blocks = table->UnderlyingTable().Blocks();
    std::vector<storage::TupleSlot> sources;
    for (uint32_t i = 0; i < SlotsPerBlock(); i++) {
      sources.emplace_back(blocks[0], i);
      sources.emplace_back(blocks[frozen == 0 ? 1 : frozen], i);
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> moves{0};
    std::thread mover([&] {
      const auto id_init = table->InitializerForColumns({0});
      const auto full_init = table->FullInitializer();
      std::vector<byte> id_buffer(id_init.ProjectedRowSize() + 8);
      std::vector<byte> full_buffer(full_init.ProjectedRowSize() + 8);
      for (size_t next = 0; next < sources.size() && !stop.load(); next++) {
        auto *txn = txn_manager_.BeginTransaction();
        storage::ProjectedRow *id_row = id_init.InitializeRow(id_buffer.data());
        if (!table->Select(txn, sources[next], id_row) || !table->Delete(txn, sources[next])) {
          txn_manager_.Abort(txn);
          continue;
        }
        storage::ProjectedRow *row = full_init.InitializeRow(full_buffer.data());
        FillRow(row, workload::Get<int64_t>(*id_row, 0));
        table->Insert(txn, *row);
        txn_manager_.Commit(txn);
        if (moves.fetch_add(1) % 64 == 63) gc_.PerformGarbageCollection();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });

    for (int round = 0; round < 3; round++) {
      for (exporter::Exporter *e : exporters_) {
        const exporter::ExportResult result = e->Export(table, &txn_manager_);
        EXPECT_EQ(result.rows, expect_rows)
            << e->Name() << ", " << frozen << " frozen blocks, round " << round;
        EXPECT_EQ(ClientRows(e, result), expect_rows)
            << e->Name() << ", " << frozen << " frozen blocks, round " << round;
      }
    }
    stop.store(true);
    mover.join();
    EXPECT_GT(moves.load(), 0u);
    gc_.FullGC();
  }
}

/// Writing past a ClientBuffer's capacity must abort in every build type,
/// not overrun the heap.
TEST(ClientBufferTest, OverflowAbortsInEveryBuild) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    exporter::ClientBuffer client(8);
    const byte payload[16] = {};
    client.Write(payload, 4);
    client.Write(payload, sizeof(payload));
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
      << "the child must die by SIGABRT (wait status " << status << ")";
}

INSTANTIATE_TEST_SUITE_P(HotAndFrozen, ExportTest, ::testing::Bool(),
                         [](const auto &info) { return info.param ? "Frozen" : "Hot"; });

}  // namespace mainline
