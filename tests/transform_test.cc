#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "gc/garbage_collector.h"
#include "transform/arrow_reader.h"
#include "transform/block_transformer.h"
#include "transform/compaction_planner.h"
#include "workload/row_util.h"

namespace mainline {

using storage::BlockState;
using storage::ProjectedRow;
using storage::TupleSlot;
using transform::BlockTransformer;
using transform::GatherMode;

class TransformTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  TransformTest()
      : block_store_(1000, 100),
        buffer_pool_(1000000, 1000),
        catalog_(&block_store_),
        schema_({{"id", catalog::TypeId::kBigInt},
                 {"name", catalog::TypeId::kVarchar, true},
                 {"score", catalog::TypeId::kInteger}}),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_) {
    table_ = catalog_.GetTable(catalog_.CreateTable("t", schema_));
  }

  /// Insert `n` rows; returns their slots. Values: id=i, name="value-<i>"
  /// (out-of-line for i % 3 != 0, null for i % 7 == 0), score=i*2.
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
      } else if (i % 3 == 0) {
        workload::SetVarchar(row, 1, "in" + std::to_string(i % 10));  // inlines
      } else {
        workload::SetVarchar(row, 1, "value-with-a-long-suffix-" + std::to_string(i));
      }
      workload::Set<int32_t>(row, 2, static_cast<int32_t>(i * 2));
      slots.push_back(table_->Insert(txn, *row));
    }
    txn_manager_.Commit(txn);
    return slots;
  }

  void DeleteSlots(const std::vector<TupleSlot> &slots) {
    auto *txn = txn_manager_.BeginTransaction();
    for (const TupleSlot slot : slots) ASSERT_TRUE(table_->Delete(txn, slot));
    txn_manager_.Commit(txn);
  }

  /// Read (visible, id, name-or-"<null>", score) for a slot.
  struct Row {
    bool visible;
    int64_t id;
    std::string name;
    int32_t score;
  };
  Row ReadRow(TupleSlot slot) {
    auto initializer = table_->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    ProjectedRow *row = initializer.InitializeRow(buffer.data());
    Row result{};
    result.visible = table_->Select(txn, slot, row);
    if (result.visible) {
      result.id = workload::Get<int64_t>(*row, 0);
      result.name = row->AccessWithNullCheck(1) == nullptr
                        ? "<null>"
                        : std::string(workload::GetVarchar(*row, 1));
      result.score = workload::Get<int32_t>(*row, 2);
    }
    txn_manager_.Commit(txn);
    gc_.FullGC();
    return result;
  }

  // Destruction order (reverse of declaration): GC first, then the
  // transaction manager, then tables — both need tables alive.
  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  catalog::Schema schema_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  catalog::SqlTable *table_;
};

TEST_P(TransformTest, FreezeWithoutGapsPreservesData) {
  Populate(1000);
  gc_.FullGC();
  BlockTransformer transformer(&txn_manager_, &gc_, GetParam());
  storage::DataTable &dt = table_->UnderlyingTable();
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  ASSERT_EQ(blocks.size(), 1u);
  ASSERT_EQ(transformer.ProcessGroup(&dt, blocks, nullptr), 1u);
  EXPECT_EQ(blocks[0]->controller.GetState(), BlockState::kFrozen);

  // Transactional reads still work on the frozen block and see the same data.
  const Row row = ReadRow(TupleSlot(blocks[0], 48));
  EXPECT_TRUE(row.visible);
  EXPECT_EQ(row.id, 48);
  EXPECT_EQ(row.name, "in8");
  EXPECT_EQ(row.score, 96);
  const Row null_row = ReadRow(TupleSlot(blocks[0], 42));  // 42 % 7 == 0 -> null name
  EXPECT_EQ(null_row.name, "<null>");
  const Row varlen_row = ReadRow(TupleSlot(blocks[0], 50));
  EXPECT_EQ(varlen_row.name, "value-with-a-long-suffix-50");

  // The zero-copy Arrow view matches a transactional materialization.
  ASSERT_TRUE(blocks[0]->controller.TryAcquireRead());
  auto frozen_batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, blocks[0]);
  ASSERT_NE(frozen_batch, nullptr);
  EXPECT_EQ(frozen_batch->num_rows(), 1000);
  auto *txn = txn_manager_.BeginTransaction();
  auto materialized = transform::ArrowReader::MaterializeBlock(schema_, &dt, blocks[0], txn);
  txn_manager_.Commit(txn);
  EXPECT_TRUE(frozen_batch->Equals(*materialized));
  blocks[0]->controller.ReleaseRead();
  gc_.FullGC();
}

TEST_P(TransformTest, CompactionFillsGapsAndPreservesTuples) {
  const std::vector<TupleSlot> slots = Populate(1000);
  // Delete every other tuple.
  std::vector<TupleSlot> victims;
  for (size_t i = 0; i < slots.size(); i += 2) victims.push_back(slots[i]);
  DeleteSlots(victims);
  gc_.FullGC();

  BlockTransformer transformer(&txn_manager_, &gc_, GetParam());
  storage::DataTable &dt = table_->UnderlyingTable();
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  transform::TransformStats stats;
  ASSERT_EQ(transformer.ProcessGroup(&dt, blocks, &stats), 1u);
  EXPECT_GT(stats.tuples_moved, 0u);

  // All 500 survivors must be present exactly once, contiguous from slot 0.
  EXPECT_EQ(dt.FilledSlots(blocks[0]), 500u);
  std::vector<bool> seen(1000, false);
  for (uint32_t i = 0; i < 500; i++) {
    const Row row = ReadRow(TupleSlot(blocks[0], i));
    ASSERT_TRUE(row.visible);
    ASSERT_GE(row.id, 0);
    ASSERT_LT(row.id, 1000);
    EXPECT_EQ(row.id % 2, 1) << "deleted tuples must not reappear";
    EXPECT_FALSE(seen[static_cast<size_t>(row.id)]) << "duplicate tuple after compaction";
    seen[static_cast<size_t>(row.id)] = true;
    EXPECT_EQ(row.score, row.id * 2);
  }
}

TEST_P(TransformTest, UpdatePreemptsFrozenBlock) {
  Populate(100);
  gc_.FullGC();
  BlockTransformer transformer(&txn_manager_, &gc_, GetParam());
  storage::DataTable &dt = table_->UnderlyingTable();
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  ASSERT_EQ(transformer.ProcessGroup(&dt, blocks, nullptr), 1u);
  ASSERT_EQ(blocks[0]->controller.GetState(), BlockState::kFrozen);

  // An update flips the block hot and succeeds; the relaxed format is a
  // superset of Arrow, so no transformation is needed to write.
  auto initializer = table_->InitializerForColumns({2});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager_.BeginTransaction();
  ProjectedRow *delta = initializer.InitializeRow(buffer.data());
  workload::Set<int32_t>(delta, 0, 9999);
  ASSERT_TRUE(table_->Update(txn, TupleSlot(blocks[0], 5), *delta));
  txn_manager_.Commit(txn);
  EXPECT_EQ(blocks[0]->controller.GetState(), BlockState::kHot);

  const Row row = ReadRow(TupleSlot(blocks[0], 5));
  EXPECT_EQ(row.score, 9999);

  // Refreezing works after the update cools down again.
  gc_.FullGC();
  ASSERT_EQ(transformer.ProcessGroup(&dt, blocks, nullptr), 1u);
  EXPECT_EQ(blocks[0]->controller.GetState(), BlockState::kFrozen);
  const Row row2 = ReadRow(TupleSlot(blocks[0], 5));
  EXPECT_EQ(row2.score, 9999);
}

TEST_P(TransformTest, GatherYieldsToActiveVersions) {
  const std::vector<TupleSlot> slots = Populate(100);
  // An uncommitted update keeps a version chain alive.
  auto initializer = table_->InitializerForColumns({2});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *writer = txn_manager_.BeginTransaction();
  ProjectedRow *delta = initializer.InitializeRow(buffer.data());
  workload::Set<int32_t>(delta, 0, 1);
  ASSERT_TRUE(table_->Update(writer, slots[0], *delta));

  BlockTransformer transformer(&txn_manager_, &gc_, GetParam());
  storage::DataTable &dt = table_->UnderlyingTable();
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  transaction::timestamp_t commit_ts;
  std::vector<storage::RawBlock *> survivors;
  // Compaction itself conflicts (it has nothing to move here, so it commits),
  // but the gather must refuse to freeze while the version chain exists.
  if (transformer.CompactGroup(&dt, blocks, nullptr, &commit_ts, &survivors)) {
    EXPECT_FALSE(transformer.GatherBlock(&dt, blocks[0], nullptr));
    EXPECT_NE(blocks[0]->controller.GetState(), BlockState::kFrozen);
  }
  txn_manager_.Commit(writer);
  gc_.FullGC();
}

/// A value updated to null must leave zeros behind, not its old bytes: a
/// frozen block hands its value buffers to readers and exporters as they are.
TEST_P(TransformTest, NullUpdateZeroesFrozenValueBytes) {
  const catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                                {"v", catalog::TypeId::kBigInt, true}});
  catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable("nulls", schema));
  constexpr int64_t kPattern = 0x5a5a5a5a5a5a5a5a;
  const auto full = table->FullInitializer();
  std::vector<byte> buffer(full.ProjectedRowSize() + 8);
  std::vector<TupleSlot> slots;
  auto *txn = txn_manager_.BeginTransaction();
  for (int64_t i = 0; i < 100; i++) {
    ProjectedRow *row = full.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, i);
    workload::Set<int64_t>(row, 1, kPattern);
    slots.push_back(table->Insert(txn, *row));
  }
  txn_manager_.Commit(txn);

  const auto only_v = table->InitializerForColumns({1});
  std::vector<byte> delta_buffer(only_v.ProjectedRowSize() + 8);
  txn = txn_manager_.BeginTransaction();
  ProjectedRow *delta = only_v.InitializeRow(delta_buffer.data());
  delta->SetNull(0);
  ASSERT_TRUE(table->Update(txn, slots[10], *delta));
  txn_manager_.Commit(txn);
  gc_.FullGC();

  BlockTransformer transformer(&txn_manager_, &gc_, GetParam());
  storage::DataTable &dt = table->UnderlyingTable();
  storage::RawBlock *block = slots[10].GetBlock();
  ASSERT_EQ(transformer.ProcessGroup(&dt, {block}, nullptr), 1u);
  ASSERT_TRUE(block->controller.TryAcquireRead());
  auto batch = transform::ArrowReader::FromFrozenBlock(schema, dt, block);
  ASSERT_NE(batch, nullptr);
  const int64_t row = slots[10].GetOffset();
  EXPECT_TRUE(batch->column(1)->IsNull(row));
  EXPECT_EQ(batch->column(1)->Value<int64_t>(row), 0) << "stale bytes under a null";
  EXPECT_EQ(batch->column(1)->Value<int64_t>(row + 1), kPattern);
  block->controller.ReleaseRead();
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, TransformTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

TEST(CompactionPlannerTest, ApproximateAndOptimalAccounting) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool pool(100000, 100);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  storage::BlockLayout layout({{8, false}});
  storage::DataTable table(&block_store, layout, storage::layout_version_t(0));
  auto initializer = storage::ProjectedRowInitializer::CreateFull(layout);
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  // Fill 3 blocks, then delete 60% at random.
  const uint32_t slots_per_block = layout.NumSlots();
  auto *txn = txn_manager.BeginTransaction();
  std::vector<storage::TupleSlot> slots;
  for (uint32_t i = 0; i < 3 * slots_per_block; i++) {
    ProjectedRow *row = initializer.InitializeRow(buffer.data());
    *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = i;
    slots.push_back(table.Insert(txn, *row));
  }
  txn_manager.Commit(txn);
  common::Xorshift rng(3);
  auto *deleter = txn_manager.BeginTransaction();
  uint32_t deleted = 0;
  for (const auto slot : slots) {
    if (rng.Uniform(1, 10) <= 6) {
      ASSERT_TRUE(table.Delete(deleter, slot));
      deleted++;
    }
  }
  txn_manager.Commit(deleter);
  gc.FullGC();

  const uint32_t live = 3 * slots_per_block - deleted;
  for (const bool optimal : {false, true}) {
    const transform::CompactionPlan plan =
        transform::CompactionPlanner::Plan(table, table.Blocks(), optimal);
    EXPECT_EQ(plan.total_tuples, live);
    // Logical contiguity math: moves fill exactly the gaps in F and p's
    // prefix, and the emptied blocks hold the sources.
    EXPECT_EQ(plan.target_blocks.size() + plan.emptied_blocks.size(), 3u);
    EXPECT_LE(plan.moves.size(), live);
    // The optimal plan can never require more movements.
    if (optimal) {
      const transform::CompactionPlan approx =
          transform::CompactionPlanner::Plan(table, table.Blocks(), false);
      EXPECT_LE(plan.moves.size(), approx.moves.size());
      // Paper's bound: approximate is within (t mod s) of optimal.
      EXPECT_LE(approx.moves.size() - plan.moves.size(), live % slots_per_block);
    }
  }
}

}  // namespace mainline
