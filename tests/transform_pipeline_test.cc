#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "metrics/metrics_registry.h"
#include "transform/access_observer.h"
#include "transform/arrow_reader.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"

namespace mainline {

using storage::BlockState;
using storage::ProjectedRow;
using storage::TupleSlot;
using transform::BlockTransformer;
using transform::GatherMode;

/// End-to-end coverage of the paper's core loop: transactional inserts into a
/// DataTable, cold detection through the GC-fed AccessObserver, background
/// transformation via TransformPipeline, and zero-copy Arrow reads of the
/// frozen result through ArrowReader.
class TransformPipelineTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  TransformPipelineTest()
      : block_store_(1000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        schema_({{"id", catalog::TypeId::kBigInt},
                 {"name", catalog::TypeId::kVarchar, true},
                 {"score", catalog::TypeId::kInteger}}),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(kColdThreshold),
        transformer_(&txn_manager_, &gc_, GetParam()),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
    table_ = catalog_.GetTable(catalog_.CreateTable("t", schema_));
  }

  // Detach the observer before members destruct (in reverse order, the
  // observer dies before the GC — whose own destructor still runs a final
  // collection pass that would feed it).
  ~TransformPipelineTest() { gc_.SetAccessObserver(nullptr); }

  static constexpr uint64_t kColdThreshold = 2;

  /// The deterministic row contents for id `i`; `name` is null for
  /// i % 7 == 0 and out-of-line (longer than the inline limit) otherwise.
  static std::string NameFor(int64_t i) {
    return "row-with-an-out-of-line-name-" + std::to_string(i);
  }

  /// Enough rows to span a little over `blocks` full blocks.
  int64_t RowsForBlocks(int64_t blocks) const {
    const auto slots = static_cast<int64_t>(
        table_->UnderlyingTable().GetLayout().NumSlots());
    return blocks * slots + slots / 2;
  }

  std::vector<TupleSlot> Populate(int64_t n) {
    auto initializer = table_->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    std::vector<TupleSlot> slots;
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < n; i++) {
      ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      if (i % 7 == 0) {
        row->SetNull(1);
      } else {
        workload::SetVarchar(row, 1, NameFor(i));
      }
      workload::Set<int32_t>(row, 2, static_cast<int32_t>(i * 3));
      slots.push_back(table_->Insert(txn, *row));
    }
    txn_manager_.Commit(txn);
    return slots;
  }

  /// A table of `blocks` and a half blocks, wide enough (about 1000 slots a
  /// block) that several compaction groups stay cheap to fill under TSan.
  /// Row i: id = i, name = NameFor(i) (null when i % 7 == 0), score and every
  /// fill column = 3 * i.
  catalog::SqlTable *WideTable(const std::string &name, int64_t blocks) {
    std::vector<catalog::Column> columns = {{"id", catalog::TypeId::kBigInt},
                                            {"name", catalog::TypeId::kVarchar, true},
                                            {"score", catalog::TypeId::kBigInt}};
    for (int i = 0; i < 120; i++) {
      columns.emplace_back("fill" + std::to_string(i), catalog::TypeId::kBigInt);
    }
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable(name, catalog::Schema(columns)));
    const auto slots = static_cast<int64_t>(table->UnderlyingTable().GetLayout().NumSlots());
    const auto initializer = table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < blocks * slots + slots / 2; i++) {
      ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      if (i % 7 == 0) {
        row->SetNull(1);
      } else {
        workload::SetVarchar(row, 1, NameFor(i));
      }
      for (uint16_t c = 2; c < columns.size(); c++) workload::Set<int64_t>(row, c, 3 * i);
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  /// Every frozen block's zero-copy view equals a transactional read of it.
  /// \return the number of frozen blocks
  uint32_t ExpectFrozenBlocksMatchTransactionalReads(catalog::SqlTable *table) {
    storage::DataTable &dt = table->UnderlyingTable();
    uint32_t frozen = 0;
    for (storage::RawBlock *block : dt.Blocks()) {
      if (block->controller.GetState() != BlockState::kFrozen) continue;
      frozen++;
      EXPECT_TRUE(block->controller.TryAcquireRead());
      auto batch = transform::ArrowReader::FromFrozenBlock(table->GetSchema(), dt, block);
      auto *txn = txn_manager_.BeginTransaction();
      auto materialized =
          transform::ArrowReader::MaterializeBlock(table->GetSchema(), &dt, block, txn);
      txn_manager_.Commit(txn);
      EXPECT_TRUE(batch != nullptr && batch->Equals(*materialized));
      batch = nullptr;
      block->controller.ReleaseRead();
    }
    return frozen;
  }

  /// Advance enough GC epochs for every previously written block to be
  /// emitted as a cold candidate on the next observer poll.
  void AdvancePastColdThreshold() {
    for (uint64_t i = 0; i <= kColdThreshold + 1; i++) gc_.PerformGarbageCollection();
  }

  // Destruction order (reverse of declaration): pipeline and GC first, then
  // the transaction manager, then tables.
  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  catalog::Schema schema_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
  catalog::SqlTable *table_;
};

TEST_P(TransformPipelineTest, ColdBlocksFreezeAndReadBackThroughArrow) {
  const int64_t kRows = RowsForBlocks(2);  // spans multiple blocks
  Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  ASSERT_GT(dt.Blocks().size(), 1u);

  // Nothing is cold yet: the pipeline must not touch freshly written blocks.
  gc_.PerformGarbageCollection();
  EXPECT_EQ(pipeline_.RunOnce(), 0u);
  for (storage::RawBlock *block : dt.Blocks()) {
    EXPECT_NE(block->controller.GetState(), BlockState::kFrozen);
  }

  // After the cold threshold passes, one pipeline pass freezes every block.
  AdvancePastColdThreshold();
  const uint32_t frozen = pipeline_.RunOnce();
  EXPECT_GT(frozen, 0u);
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  for (storage::RawBlock *block : blocks) {
    EXPECT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }
  EXPECT_EQ(pipeline_.Stats().blocks_frozen, frozen);

  // Read every frozen block back through the zero-copy Arrow path and check
  // the contents against what was inserted. Compaction may have moved tuples
  // between blocks, so verify the multiset of ids instead of positions.
  std::vector<bool> seen(kRows, false);
  int64_t total_rows = 0;
  for (storage::RawBlock *block : blocks) {
    ASSERT_TRUE(block->controller.TryAcquireRead());
    auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, block);
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->num_columns(), 3);

    // The zero-copy view agrees with a transactional materialization.
    auto *txn = txn_manager_.BeginTransaction();
    auto materialized = transform::ArrowReader::MaterializeBlock(schema_, &dt, block, txn);
    txn_manager_.Commit(txn);
    EXPECT_TRUE(batch->Equals(*materialized));

    const auto &ids = batch->column(0);
    const auto &names = batch->column(1);
    const auto &scores = batch->column(2);
    if (GetParam() == GatherMode::kDictionaryCompression) {
      EXPECT_EQ(names->type(), arrowlite::Type::kDictionary);
    }
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      const int64_t id = ids->Value<int64_t>(i);
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRows);
      EXPECT_FALSE(seen[static_cast<size_t>(id)]) << "duplicate id " << id;
      seen[static_cast<size_t>(id)] = true;
      EXPECT_EQ(scores->Value<int32_t>(i), static_cast<int32_t>(id * 3));
      if (id % 7 == 0) {
        EXPECT_TRUE(names->IsNull(i)) << "id " << id << " must have a null name";
      } else {
        ASSERT_FALSE(names->IsNull(i));
        EXPECT_EQ(std::string(names->GetString(i)), NameFor(id));
      }
    }
    total_rows += batch->num_rows();
    block->controller.ReleaseRead();
  }
  EXPECT_EQ(total_rows, kRows);
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, CompactionReclaimsDeletedSpaceBeforeFreezing) {
  const int64_t kRows = RowsForBlocks(2);
  const std::vector<TupleSlot> slots = Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  const size_t blocks_before = dt.Blocks().size();
  ASSERT_GT(blocks_before, 1u);

  // Delete two thirds so the survivors fit in fewer blocks.
  auto *txn = txn_manager_.BeginTransaction();
  for (size_t i = 0; i < slots.size(); i++) {
    if (i % 3 != 0) {
      ASSERT_TRUE(table_->Delete(txn, slots[i]));
    }
  }
  txn_manager_.Commit(txn);

  AdvancePastColdThreshold();
  EXPECT_GT(pipeline_.RunOnce(), 0u);
  EXPECT_GT(pipeline_.Stats().tuples_moved, 0u);

  // Survivors are all present exactly once in the frozen view.
  std::vector<bool> seen(kRows, false);
  int64_t total_rows = 0;
  for (storage::RawBlock *block : dt.Blocks()) {
    if (block->controller.GetState() != BlockState::kFrozen) continue;
    ASSERT_TRUE(block->controller.TryAcquireRead());
    auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, block);
    ASSERT_NE(batch, nullptr);
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      const int64_t id = batch->column(0)->Value<int64_t>(i);
      EXPECT_EQ(id % 3, 0) << "deleted tuples must not reappear";
      EXPECT_FALSE(seen[static_cast<size_t>(id)]);
      seen[static_cast<size_t>(id)] = true;
    }
    total_rows += batch->num_rows();
    block->controller.ReleaseRead();
  }
  EXPECT_EQ(total_rows, (kRows + 2) / 3);
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, ManualEnqueueFreezesBulkLoadedTable) {
  Populate(1000);
  storage::DataTable &dt = table_->UnderlyingTable();
  gc_.FullGC();

  // A bulk-loaded table whose writes predate the observer never shows up as
  // a cold candidate; EnqueueTable force-feeds its blocks to the pipeline.
  pipeline_.EnqueueTable(&dt);
  EXPECT_GT(pipeline_.RunOnce(), 0u);
  for (storage::RawBlock *block : dt.Blocks()) {
    EXPECT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }

  // An update re-heats its block; the pipeline eventually refreezes it once
  // it cools past the threshold again.
  auto initializer = table_->InitializerForColumns({2});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager_.BeginTransaction();
  ProjectedRow *delta = initializer.InitializeRow(buffer.data());
  workload::Set<int32_t>(delta, 0, -1);
  storage::RawBlock *target = dt.Blocks().front();
  ASSERT_TRUE(table_->Update(txn, TupleSlot(target, 3), *delta));
  txn_manager_.Commit(txn);
  EXPECT_EQ(target->controller.GetState(), BlockState::kHot);

  AdvancePastColdThreshold();
  EXPECT_EQ(pipeline_.RunOnce(), 1u);
  EXPECT_EQ(target->controller.GetState(), BlockState::kFrozen);

  ASSERT_TRUE(target->controller.TryAcquireRead());
  auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, target);
  ASSERT_NE(batch, nullptr);
  bool found_updated = false;
  for (int64_t i = 0; i < batch->num_rows(); i++) {
    if (batch->column(2)->Value<int32_t>(i) == -1) found_updated = true;
  }
  EXPECT_TRUE(found_updated) << "the updated value must survive refreezing";
  target->controller.ReleaseRead();
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, UserDeletedBlocksAreReclaimed) {
  const int64_t kRows = RowsForBlocks(2);
  const std::vector<TupleSlot> slots = Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  const size_t blocks_before = dt.NumBlocks();
  ASSERT_GT(blocks_before, 2u);

  // User transactions (not the compactor) empty every block.
  auto *txn = txn_manager_.BeginTransaction();
  for (const TupleSlot slot : slots) ASSERT_TRUE(table_->Delete(txn, slot));
  txn_manager_.Commit(txn);

  AdvancePastColdThreshold();
  pipeline_.RunOnce();
  gc_.FullGC();  // drains the deferred releases

  // Everything except the insertion block must go back to the block store.
  EXPECT_EQ(dt.NumBlocks(), 1u);
  EXPECT_EQ(dt.FilledSlots(dt.Blocks().front()), 0u);
}

TEST_P(TransformPipelineTest, BackgroundThreadFreezesWithoutManualDriving) {
  Populate(1000);
  storage::DataTable &dt = table_->UnderlyingTable();
  gc_.FullGC();

  pipeline_.Start(std::chrono::milliseconds(1));
  pipeline_.EnqueueTable(&dt);
  // The worker owns all transformation work now; just wait for it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (dt.Blocks().front()->controller.GetState() == BlockState::kFrozen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pipeline_.Stop();
  EXPECT_EQ(dt.Blocks().front()->controller.GetState(), BlockState::kFrozen);
  gc_.FullGC();
}

/// Regression test for the CompactGroup varlen-leak race (the ~1/30 ASan
/// flake of tpcc_demo): the compaction planner counts never-used slots past
/// the insert head as fillable gaps, so CompactGroup's InsertInto can target
/// the very slot a concurrent user Insert claims with Allocate. Before the
/// fix, Insert published its undo record with a blind store that could erase
/// compaction's already-installed record — both transactions then wrote the
/// slot and committed without seeing a conflict, losing one row and leaking
/// whichever row's out-of-line varlen buffers lost the WriteValues race (the
/// compactor's DeepCopyVarlens copies, in the observed flake).
///
/// The interleaving is sub-microsecond, so the test makes it as likely as
/// possible instead of scripting it: each iteration builds a table whose
/// compaction plan moves kContested tuples into the insertion block's
/// never-used region, then races CompactGroup against two inserter threads
/// aimed at the same slots. The row-count and content assertions catch the
/// lost/corrupted rows directly; under ASan the leak itself fails the suite.
/// Iterations are overridable via MAINLINE_RACE_ITERS (default 24 — the
/// sanitizer job's budget; bump it when hunting).
TEST_P(TransformPipelineTest, CompactionNeverRacesUserInsertsOnNeverUsedSlots) {
  // Wide rows keep blocks small enough to roll over cheaply (~1000 slots).
  std::vector<catalog::Column> columns = {{"id", catalog::TypeId::kBigInt},
                                          {"payload", catalog::TypeId::kVarchar}};
  for (int i = 0; i < 120; i++) {
    columns.emplace_back("fill" + std::to_string(i), catalog::TypeId::kBigInt);
  }
  const catalog::Schema schema{columns};

  // 24-byte payloads: out of line (> the 12-byte inline limit), so every row
  // carries an owned buffer — the allocation the original flake leaked.
  const auto payload_for = [](int64_t id) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "payload-%016lld",
                  static_cast<long long>(id));
    return std::string(buffer);
  };
  const auto insert_row = [&](catalog::SqlTable *table,
                              transaction::TransactionContext *txn,
                              const storage::ProjectedRowInitializer &init,
                              std::vector<byte> *buffer, int64_t id) {
    ProjectedRow *row = init.InitializeRow(buffer->data());
    workload::Set<int64_t>(row, 0, id);
    workload::SetVarchar(row, 1, payload_for(id));
    for (uint16_t c = 2; c < schema.NumColumns(); c++) {
      workload::Set<int64_t>(row, c, id);
    }
    table->Insert(txn, *row);
  };

  const char *iters_env = std::getenv("MAINLINE_RACE_ITERS");
  const int iterations = iters_env == nullptr ? 24 : std::atoi(iters_env);
  constexpr uint32_t kContested = 64;   // moves aimed at never-used slots
  constexpr uint32_t kResidents = 80;   // pre-existing rows in the insertion block
  constexpr uint32_t kInserters = 2;

  for (int iter = 0; iter < iterations; iter++) {
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable("race" + std::to_string(iter), schema));
    storage::DataTable &dt = table->UnderlyingTable();
    const auto slots_per_block = static_cast<int64_t>(dt.GetLayout().NumSlots());
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);

    // Roll block 1 over completely, then seed the new insertion block with
    // kResidents rows so the planner picks it as the partial target block.
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < slots_per_block + kResidents; i++) {
      insert_row(table, txn, init, &buffer, i);
    }
    txn_manager_.Commit(txn);
    ASSERT_EQ(dt.NumBlocks(), 2u);

    // Thin block 1 down to kContested survivors: the plan now moves exactly
    // those tuples into the insertion block's gaps — which, because the
    // insertion block holds more tuples than any other block in the group,
    // are its NEVER-USED slots [kResidents, kResidents + kContested).
    std::vector<int64_t> expected_ids;
    txn = txn_manager_.BeginTransaction();
    storage::RawBlock *block1 = dt.Blocks().front();
    for (int64_t i = 0; i < slots_per_block; i++) {
      if (i < kContested) {
        expected_ids.push_back(i);
        continue;
      }
      ASSERT_TRUE(table->Delete(txn, TupleSlot(block1, static_cast<uint32_t>(i))));
    }
    txn_manager_.Commit(txn);
    for (int64_t i = slots_per_block; i < slots_per_block + kResidents; i++) {
      expected_ids.push_back(i);
    }
    gc_.FullGC();

    // Race: CompactGroup moves the survivors while inserter threads claim
    // slots from the same never-used region via Allocate.
    std::atomic<bool> start{false};
    std::vector<std::thread> inserters;
    for (uint32_t t = 0; t < kInserters; t++) {
      inserters.emplace_back([&, t] {
        std::vector<byte> local_buffer(init.ProjectedRowSize() + 8);
        while (!start.load(std::memory_order_acquire)) {
        }
        auto *insert_txn = txn_manager_.BeginTransaction();
        for (uint32_t i = 0; i < kContested / kInserters; i++) {
          insert_row(table, insert_txn, init, &local_buffer,
                     1000000 + iter * 1000 + static_cast<int64_t>(t * 100 + i));
        }
        txn_manager_.Commit(insert_txn);
      });
    }
    for (uint32_t t = 0; t < kInserters; t++) {
      for (uint32_t i = 0; i < kContested / kInserters; i++) {
        expected_ids.push_back(1000000 + iter * 1000 + static_cast<int64_t>(t * 100 + i));
      }
    }
    start.store(true, std::memory_order_release);
    // An abort (a user insert won a contested slot first) is a legal outcome;
    // losing or corrupting a committed row is not.
    transformer_.CompactGroup(&dt, dt.Blocks(), nullptr, nullptr);
    for (std::thread &thread : inserters) thread.join();

    // Every expected row must be visible exactly once, with intact contents.
    const auto read_init = table->InitializerForColumns({0, 1});
    std::vector<byte> read_buffer(read_init.ProjectedRowSize() + 8);
    std::vector<int64_t> visible_ids;
    auto *read_txn = txn_manager_.BeginTransaction();
    for (auto it = table->begin(); !it.Done(); ++it) {
      ProjectedRow *row = read_init.InitializeRow(read_buffer.data());
      if (!table->Select(read_txn, *it, row)) continue;
      const int64_t id = workload::Get<int64_t>(*row, 0);
      EXPECT_EQ(workload::GetVarchar(*row, 1), payload_for(id))
          << "row " << id << " corrupted in iteration " << iter;
      visible_ids.push_back(id);
    }
    txn_manager_.Commit(read_txn);

    std::sort(visible_ids.begin(), visible_ids.end());
    std::sort(expected_ids.begin(), expected_ids.end());
    ASSERT_EQ(visible_ids, expected_ids)
        << "a compaction/insert race lost or duplicated rows in iteration " << iter;
    gc_.FullGC();
  }
}

/// Stop() must return promptly even when the worker is parked in a long
/// sleep: the condition-variable wakeup cuts through the period. Regression
/// test for the old fixed-sleep loop, where Stop() blocked for up to a full
/// period (here: 10 seconds).
TEST_P(TransformPipelineTest, StopReturnsPromptlyMidSleep) {
  pipeline_.Start(std::chrono::seconds(10));
  // Let the worker finish its first (empty) pass and park in the sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto stop_begin = std::chrono::steady_clock::now();
  pipeline_.Stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_begin;
  EXPECT_LT(stop_took, std::chrono::seconds(2))
      << "Stop() must interrupt the sleep, not wait out the period";
}

namespace {

/// The bytes of `size` bytes at the start of `buffer`.
std::string Bytes(const std::shared_ptr<arrowlite::Buffer> &buffer, uint64_t size) {
  return std::string(reinterpret_cast<const char *>(buffer->data()), size);
}

/// Every byte an Arrow reader of a string array sees: offsets and values.
std::string StringBytes(const arrowlite::Array &array) {
  const auto *offsets = array.buffer(0)->data_as<int32_t>();
  return Bytes(array.buffer(0), static_cast<uint64_t>(array.length() + 1) * sizeof(int32_t)) +
         Bytes(array.buffer(1), static_cast<uint64_t>(offsets[array.length()]));
}

/// Every byte an Arrow reader of `array` sees: the validity bitmap plus the
/// values (fixed), offsets and values (string), or indices and dictionary.
std::string ArrowBytes(const arrowlite::Array &array) {
  const auto length = static_cast<uint64_t>(array.length());
  std::string bytes = array.validity() == nullptr ? "" : Bytes(array.validity(), (length + 7) / 8);
  switch (array.type()) {
    case arrowlite::Type::kString:
      return bytes + StringBytes(array);
    case arrowlite::Type::kDictionary:
      return bytes + Bytes(array.buffer(0), length * sizeof(int32_t)) +
             StringBytes(*array.dictionary());
    default:
      return bytes + Bytes(array.buffer(0), length * arrowlite::TypeWidth(array.type()));
  }
}

/// The transform.* counters of a registry delta.
std::map<std::string, uint64_t> TransformCounters(const metrics::MetricsSnapshot &delta) {
  std::map<std::string, uint64_t> counters;
  for (const auto &[name, value] : delta.counters) {
    if (name.rfind("transform.", 0) == 0) counters[name] = value;
  }
  return counters;
}

}  // namespace

/// Gathering on the pipeline's pool must freeze exactly what the inline path
/// freezes: two tables with the same history, one frozen group by group
/// through ProcessGroup on this thread, the other through one pooled pass,
/// end with the same Arrow bytes, the same counters and the same registry
/// deltas (apart from transform.passes, which only a pass counts).
TEST_P(TransformPipelineTest, PooledPassFreezesTheSameBytesAsInlineGroups) {
  constexpr uint32_t kGroupSize = 2;
  catalog::SqlTable *tables[2] = {WideTable("inline", 5), WideTable("pooled", 5)};
  // Halve every block but the last, so compaction moves tuples and each
  // full group empties a block.
  for (catalog::SqlTable *table : tables) {
    auto *txn = txn_manager_.BeginTransaction();
    const std::vector<storage::RawBlock *> blocks = table->UnderlyingTable().Blocks();
    const uint32_t slots = table->UnderlyingTable().GetLayout().NumSlots();
    for (size_t b = 0; b + 1 < blocks.size(); b++) {
      for (uint32_t i = 0; i < slots; i++) {
        if ((i + b) % 2 == 0) {
          ASSERT_TRUE(table->Delete(txn, TupleSlot(blocks[b], i)));
        }
      }
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();
  metrics::MetricsRegistry &registry = metrics::MetricsRegistry::Global();

  storage::DataTable &inline_dt = tables[0]->UnderlyingTable();
  transform::TransformStats inline_stats;
  const metrics::MetricsSnapshot before_inline = registry.Snapshot();
  const std::vector<storage::RawBlock *> inline_blocks = inline_dt.Blocks();
  uint64_t groups_that_froze = 0;
  for (size_t i = 0; i < inline_blocks.size(); i += kGroupSize) {
    const std::vector<storage::RawBlock *> group(
        inline_blocks.begin() + static_cast<long>(i),
        inline_blocks.begin() + static_cast<long>(std::min(inline_blocks.size(), i + kGroupSize)));
    if (transformer_.ProcessGroup(&inline_dt, group, &inline_stats) > 0) groups_that_froze++;
  }
  const auto inline_delta = TransformCounters(registry.Snapshot().Delta(before_inline));

  storage::DataTable &pooled_dt = tables[1]->UnderlyingTable();
  transform::TransformPipeline pipeline(&observer_, &transformer_, kGroupSize);
  pipeline.SetTableFilter([&](storage::DataTable *table) { return table == &pooled_dt; });
  pipeline.EnqueueTable(&pooled_dt);
  transform::TransformStats pooled_stats;
  const metrics::MetricsSnapshot before_pooled = registry.Snapshot();
  pipeline.RunOnce(&pooled_stats);
  const metrics::MetricsSnapshot pooled_snapshot = registry.Snapshot().Delta(before_pooled);
  auto pooled_delta = TransformCounters(pooled_snapshot);
  gc_.FullGC();
  // The pass observes the freeze lag once per group that froze, not per task.
  EXPECT_GT(groups_that_froze, 1u);
  EXPECT_EQ(pooled_snapshot.histograms.at("transform.freeze_lag_us").total, groups_that_froze);

  EXPECT_GT(inline_stats.tuples_moved, 0u);
  EXPECT_GT(inline_stats.blocks_freed, 0u);
  EXPECT_EQ(inline_stats.tuples_moved, pooled_stats.tuples_moved);
  EXPECT_EQ(inline_stats.blocks_freed, pooled_stats.blocks_freed);
  EXPECT_EQ(inline_stats.blocks_frozen, pooled_stats.blocks_frozen);
  EXPECT_EQ(inline_stats.compaction_aborts, pooled_stats.compaction_aborts);
  EXPECT_EQ(inline_stats.gather_retries, pooled_stats.gather_retries);
  EXPECT_EQ(inline_stats.write_set_size, pooled_stats.write_set_size);

  EXPECT_EQ(inline_delta.at("transform.passes"), 0u);
  EXPECT_EQ(pooled_delta.at("transform.passes"), 1u);
  pooled_delta["transform.passes"] = 0;
  EXPECT_EQ(inline_delta, pooled_delta);
  EXPECT_EQ(inline_delta.at("transform.blocks_frozen"), inline_stats.blocks_frozen);

  ASSERT_EQ(inline_dt.Blocks().size(), pooled_dt.Blocks().size());
  for (size_t b = 0; b < inline_dt.Blocks().size(); b++) {
    storage::RawBlock *inline_block = inline_dt.Blocks()[b];
    storage::RawBlock *pooled_block = pooled_dt.Blocks()[b];
    // Compaction may empty the insertion block, which stays attached and
    // cooling; every other block freezes.
    ASSERT_EQ(inline_block->controller.GetState(), pooled_block->controller.GetState());
    if (inline_block->controller.GetState() != BlockState::kFrozen) {
      EXPECT_EQ(inline_dt.FilledSlots(inline_block), 0u);
      continue;
    }
    ASSERT_TRUE(inline_block->controller.TryAcquireRead());
    ASSERT_TRUE(pooled_block->controller.TryAcquireRead());
    auto inline_batch =
        transform::ArrowReader::FromFrozenBlock(tables[0]->GetSchema(), inline_dt, inline_block);
    auto pooled_batch =
        transform::ArrowReader::FromFrozenBlock(tables[1]->GetSchema(), pooled_dt, pooled_block);
    ASSERT_NE(inline_batch, nullptr);
    ASSERT_NE(pooled_batch, nullptr);
    ASSERT_EQ(inline_batch->num_rows(), pooled_batch->num_rows());
    for (int c = 0; c < inline_batch->num_columns(); c++) {
      EXPECT_EQ(ArrowBytes(*inline_batch->column(c)), ArrowBytes(*pooled_batch->column(c)))
          << "block " << b << " column " << c;
    }
    inline_batch = nullptr;
    pooled_batch = nullptr;
    inline_block->controller.ReleaseRead();
    pooled_block->controller.ReleaseRead();
  }
}

/// Pooled passes over two tables of several groups each, raced by a writer
/// that bumps random scores and a reader that sums the scores through
/// ArrowReader::ReadBlock. Every snapshot sum must match the writer's
/// commits, and afterwards every block is frozen with the contents of a
/// transactional read, or hot and handed out again by the observer.
TEST_P(TransformPipelineTest, PooledPassesRaceAWriterAndABlockReader) {
  catalog::SqlTable *tables[2] = {WideTable("s0", 6), WideTable("s1", 6)};
  std::vector<std::vector<TupleSlot>> slots(2);
  int64_t initial_sum = 0;
  for (int t = 0; t < 2; t++) {
    for (auto it = tables[t]->begin(); !it.Done(); ++it) slots[t].push_back(*it);
    const auto rows = static_cast<int64_t>(slots[t].size());
    initial_sum += 3 * rows * (rows - 1) / 2;
  }
  gc_.FullGC();
  // Groups of two: each table spans at least three groups.
  transform::TransformPipeline pipeline(&observer_, &transformer_, /*group_size=*/2);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bad_sums{0};
  std::thread writer([&] {
    std::mt19937_64 random(42);
    const auto score = tables[0]->InitializerForColumns({2});
    std::vector<byte> buffer(score.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      const size_t t = random() % 2;
      const TupleSlot slot = slots[t][random() % slots[t].size()];
      auto *txn = txn_manager_.BeginTransaction();
      ProjectedRow *row = score.InitializeRow(buffer.data());
      if (!tables[t]->Select(txn, slot, row)) {
        txn_manager_.Abort(txn);
        continue;
      }
      workload::Set<int64_t>(row, 0, workload::Get<int64_t>(*row, 0) + 1);
      if (!tables[t]->Update(txn, slot, *row)) {
        txn_manager_.Abort(txn);
        continue;
      }
      txn_manager_.Commit(txn);
      commits.fetch_add(1, std::memory_order_release);
      // A write every half millisecond or so: hot enough to preempt some
      // freezes, cool enough to let others finish even under TSan.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::thread reader([&] {
    const std::vector<uint16_t> projection = {2};
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t commits_before = commits.load(std::memory_order_acquire);
      auto *txn = txn_manager_.BeginTransaction();
      int64_t sum = 0;
      for (catalog::SqlTable *table : tables) {
        storage::DataTable &dt = table->UnderlyingTable();
        for (storage::RawBlock *block : dt.Blocks()) {
          transform::BlockRead read =
              transform::ArrowReader::ReadBlock(table->GetSchema(), &dt, block, txn, &projection);
          for (int64_t i = 0; i < read.NumRows(); i++) sum += read.Column(0).Value<int64_t>(i);
        }
      }
      txn_manager_.Commit(txn);
      const uint64_t commits_after = commits.load(std::memory_order_acquire);
      // The snapshot sees every commit counted before it began, and at most
      // one more than were counted once it ended (the writer counts a commit
      // just after making it).
      const int64_t gained = sum - initial_sum;
      if (gained < static_cast<int64_t>(commits_before) ||
          gained > static_cast<int64_t>(commits_after) + 1) {
        bad_sums.fetch_add(1);
      }
      reads.fetch_add(1, std::memory_order_release);
    }
  });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int passes = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (passes < 6 || reads.load() < 3 || commits.load() < 100 ||
          pipeline.Stats().blocks_frozen == 0)) {
    for (catalog::SqlTable *table : tables) pipeline.EnqueueTable(&table->UnderlyingTable());
    pipeline.RunOnce();
    gc_.PerformGarbageCollection();
    passes++;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  reader.join();
  gc_.FullGC();

  EXPECT_GE(reads.load(), 3u);
  EXPECT_GE(commits.load(), 100u);
  EXPECT_EQ(bad_sums.load(), 0u);
  EXPECT_GT(pipeline.Stats().blocks_frozen, 0u);

  int64_t final_sum = 0;
  auto *txn = txn_manager_.BeginTransaction();
  for (catalog::SqlTable *table : tables) {
    storage::DataTable &dt = table->UnderlyingTable();
    for (storage::RawBlock *block : dt.Blocks()) {
      transform::BlockRead read = transform::ArrowReader::ReadBlock(table->GetSchema(), &dt,
                                                                    block, txn);
      for (int64_t i = 0; i < read.NumRows(); i++) final_sum += read.Column(2).Value<int64_t>(i);
    }
  }
  txn_manager_.Commit(txn);
  EXPECT_EQ(final_sum - initial_sum, static_cast<int64_t>(commits.load()));

  for (catalog::SqlTable *table : tables) {
    ExpectFrozenBlocksMatchTransactionalReads(table);
    for (storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      const BlockState state = block->controller.GetState();
      EXPECT_TRUE(state == BlockState::kFrozen || state == BlockState::kHot);
    }
  }
  // The hot blocks come back through the observer alone: no manual enqueue.
  AdvancePastColdThreshold();
  pipeline.RunOnce();
  for (catalog::SqlTable *table : tables) {
    EXPECT_EQ(ExpectFrozenBlocksMatchTransactionalReads(table),
              table->UnderlyingTable().Blocks().size());
  }
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, TransformPipelineTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
