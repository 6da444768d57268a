#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "transaction/recovery_manager.h"
#include "transaction/transaction_manager.h"
#include "workload/row_util.h"

namespace mainline {

namespace {
const char *kLogPath = "/tmp/mainline_test.log";

catalog::Schema TestSchema() {
  return catalog::Schema({{"id", catalog::TypeId::kBigInt},
                          {"name", catalog::TypeId::kVarchar, true},
                          {"score", catalog::TypeId::kInteger}});
}
}  // namespace

TEST(LoggingTest, CommitCallbackFiresAfterFlush) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  logging::LogManager log_manager(kLogPath);
  transaction::TransactionManager logged_manager(&buffer_pool, true, &log_manager);
  log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
    return &catalog.GetTable(oid)->UnderlyingTable();
  });

  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  std::atomic<int> called{0};
  auto *txn = logged_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  workload::Set<int64_t>(row, 0, 7);
  workload::SetVarchar(row, 1, "a varlen value that spills out of line");
  workload::Set<int32_t>(row, 2, 11);
  table->Insert(txn, *row);
  logged_manager.Commit(
      txn, [](void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); }, &called);

  // Not persistent yet: the callback must wait for the flush.
  EXPECT_EQ(called.load(), 0);
  log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 1);
  EXPECT_GT(log_manager.BytesWritten(), 0u);

  // Read-only transactions get a commit record but it is not written.
  const uint64_t bytes_before = log_manager.BytesWritten();
  auto *read_only = logged_manager.BeginTransaction();
  logged_manager.Commit(
      read_only, [](void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); },
      &called);
  log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 2);
  EXPECT_EQ(log_manager.BytesWritten(), bytes_before);
}

/// A log that cannot be written must stop the process before any commit in
/// the failed batch is acknowledged, in every build type. /dev/full accepts
/// the open and fails every write with ENOSPC; the child's durability
/// callback reports through a pipe, so an acknowledgement would be visible
/// to the parent even though the child then dies.
TEST(LoggingTest, FailedLogWriteAbortsBeforeAcknowledgingCommit) {
  int ack_pipe[2];
  ASSERT_EQ(pipe(ack_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ack_pipe[0]);
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    storage::BlockStore block_store(100, 10);
    storage::RecordBufferSegmentPool buffer_pool(100000, 100);
    catalog::Catalog catalog(&block_store);
    logging::LogManager log_manager("/dev/full");
    transaction::TransactionManager logged(&buffer_pool, true, &log_manager);
    log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
      return &catalog.GetTable(oid)->UnderlyingTable();
    });
    auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
    const auto initializer = table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = logged.BeginTransaction();
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, 1);
    row->SetNull(1);
    workload::Set<int32_t>(row, 2, 2);
    table->Insert(txn, *row);
    logged.Commit(
        txn,
        [](void *arg) {
          const char ack = 'y';
          (void)!write(*static_cast<int *>(arg), &ack, 1);
        },
        &ack_pipe[1]);
    log_manager.ForceFlush();
    _exit(0);
  }

  close(ack_pipe[1]);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  char ack = 0;
  const ssize_t acked = read(ack_pipe[0], &ack, 1);
  close(ack_pipe[0]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
      << "the child must die by SIGABRT (wait status " << status << ")";
  EXPECT_EQ(acked, 0) << "a commit whose log write failed was acknowledged";
}

TEST(LoggingTest, RecoveryRebuildsTables) {
  // --- first lifetime: run a workload with logging --------------------------
  {
    storage::BlockStore block_store(100, 10);
    storage::RecordBufferSegmentPool buffer_pool(100000, 100);
    catalog::Catalog catalog(&block_store);
    logging::LogManager log_manager(kLogPath);
    transaction::TransactionManager logged(&buffer_pool, true, &log_manager);
    log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
      return &catalog.GetTable(oid)->UnderlyingTable();
    });
    auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
    const auto initializer = table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

    std::vector<storage::TupleSlot> slots;
    // 50 inserts across two transactions.
    for (int batch = 0; batch < 2; batch++) {
      auto *txn = logged.BeginTransaction();
      for (int64_t i = 0; i < 25; i++) {
        const int64_t id = batch * 25 + i;
        storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
        workload::Set<int64_t>(row, 0, id);
        if (id % 4 == 0) {
          row->SetNull(1);
        } else {
          workload::SetVarchar(row, 1, "row-" + std::string(20, 'x') + std::to_string(id));
        }
        workload::Set<int32_t>(row, 2, static_cast<int32_t>(id * 3));
        slots.push_back(table->Insert(txn, *row));
      }
      logged.Commit(txn);
    }
    // Update some, delete some.
    {
      auto *txn = logged.BeginTransaction();
      auto delta_init = table->InitializerForColumns({2});
      std::vector<byte> delta_buffer(delta_init.ProjectedRowSize() + 8);
      for (int64_t id = 0; id < 10; id++) {
        storage::ProjectedRow *delta = delta_init.InitializeRow(delta_buffer.data());
        workload::Set<int32_t>(delta, 0, static_cast<int32_t>(1000 + id));
        ASSERT_TRUE(table->Update(txn, slots[static_cast<size_t>(id)], *delta));
      }
      for (int64_t id = 40; id < 45; id++) {
        ASSERT_TRUE(table->Delete(txn, slots[static_cast<size_t>(id)]));
      }
      logged.Commit(txn);
    }
    // An aborted transaction must not be replayed.
    {
      auto *txn = logged.BeginTransaction();
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, 999);
      workload::SetVarchar(row, 1, "never committed");
      workload::Set<int32_t>(row, 2, 999);
      table->Insert(txn, *row);
      logged.Abort(txn);
    }
    log_manager.ForceFlush();
    log_manager.Shutdown();
  }

  // --- second lifetime: recover into a fresh engine -------------------------
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));

  transaction::RecoveryManager recovery(catalog.TableMap(), &txn_manager);
  const uint64_t replayed = recovery.Recover(kLogPath);
  EXPECT_EQ(replayed, 3u);  // two insert batches + the update/delete txn

  // Verify contents: 50 - 5 deleted = 45 rows; ids 0..9 have score 1000+id.
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  uint64_t visible = 0;
  for (auto it = table->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (!table->Select(txn, *it, row)) continue;
    visible++;
    const int64_t id = workload::Get<int64_t>(*row, 0);
    EXPECT_NE(id, 999) << "aborted insert must not be recovered";
    EXPECT_FALSE(id >= 40 && id < 45) << "deleted rows must not be recovered";
    const int32_t score = workload::Get<int32_t>(*row, 2);
    if (id < 10) {
      EXPECT_EQ(score, 1000 + id);
    } else {
      EXPECT_EQ(score, id * 3);
    }
    if (id % 4 == 0) {
      EXPECT_EQ(row->AccessWithNullCheck(1), nullptr);
    } else {
      EXPECT_EQ(workload::GetVarchar(*row, 1),
                "row-" + std::string(20, 'x') + std::to_string(id));
    }
  }
  txn_manager.Commit(txn);
  EXPECT_EQ(visible, 45u);
  gc.FullGC();
  std::remove(kLogPath);
}

}  // namespace mainline
