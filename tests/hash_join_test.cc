#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "execution/hash_join.h"
#include "workload/tpch/query_runner.h"
#include "workload/tpch/tpch_queries.h"
#include "gc/garbage_collector.h"
#include "storage/storage_util.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"

namespace mainline {

using execution::ColumnVectorBatch;
using workload::ExecMode;
using execution::JoinEntry;
using execution::JoinHashTable;
using workload::QueryRunner;
using execution::ScanStats;
using storage::BlockState;
using storage::ProjectedRow;
using transform::GatherMode;
namespace q = workload::tpch;
namespace tpch = workload::tpch;

/// Coverage of the morsel-parallel hash join: the JoinHashTable operator
/// itself (duplicates, empty sides, parallel build == inline build) and
/// TPC-H Q12 on top of it — parallel == vectorized == scalar BIT-EXACTLY at
/// every worker count, over hot, mixed, and frozen tables, and under
/// concurrent writers with the transformation pipeline re-freezing blocks.
class HashJoinTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  HashJoinTest()
      : block_store_(2000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(/*cold_threshold=*/2),
        transformer_(&txn_manager_, &gc_, GetParam()),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
  }

  ~HashJoinTest() { gc_.SetAccessObserver(nullptr); }

  /// Rows spanning a little over `blocks` lineitem blocks.
  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

  /// LINEITEM plus an ORDERS table sized so that only some lineitems find a
  /// matching order (orderkeys above `rows / 3` dangle) — the join must not
  /// assume a foreign key always resolves.
  void Generate(uint64_t rows) {
    lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7,
                                       /*batch_size=*/4096);
    orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11,
                                   /*batch_size=*/4096);
    gc_.FullGC();
  }

  /// A tiny build-side table for operator-level tests: (key, payload) pairs.
  catalog::SqlTable *MakeBuildTable(const std::string &name,
                                    const std::vector<JoinEntry> &entries) {
    const catalog::Schema schema{{{"key", catalog::TypeId::kBigInt},
                                  {"payload", catalog::TypeId::kBigInt}}};
    catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable(name, schema));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const JoinEntry &entry : entries) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, entry.key);
      workload::Set<int64_t>(row, 1, static_cast<int64_t>(entry.payload));
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  /// Build a JoinHashTable from a (key, payload) table over `pool`.
  JoinHashTable Build(catalog::SqlTable *table, common::WorkerPool *pool,
                      ScanStats *stats = nullptr) {
    auto *txn = txn_manager_.BeginTransaction();
    JoinHashTable result = JoinHashTable::Build(
        table, txn, {0, 1},
        [](const ColumnVectorBatch &batch, std::vector<JoinEntry> *out) {
          const int64_t *keys = batch.Column(0).buffer(0)->data_as<int64_t>();
          const int64_t *payloads = batch.Column(1).buffer(0)->data_as<int64_t>();
          for (int64_t row = 0; row < batch.NumRows(); row++) {
            out->push_back({keys[row], static_cast<uint64_t>(payloads[row])});
          }
        },
        pool, stats);
    txn_manager_.Commit(txn);
    return result;
  }

  /// Q12 at `num_threads` against the scalar reference and the sequential
  /// vectorized engine, all inside ONE transaction so every engine answers
  /// from the same snapshot.
  void ExpectQ12Agrees(uint32_t num_threads, ScanStats *stats_out = nullptr) {
    common::WorkerPool pool(num_threads);
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats par_stats;
    const auto par = q::RunQ12Parallel(orders_, lineitem_, txn, {}, &pool, &par_stats);
    const auto scalar = q::RunQ12Scalar(orders_, lineitem_, txn, {}, nullptr);
    const auto vec = q::RunQ12(orders_, lineitem_, txn, {}, nullptr);
    txn_manager_.Commit(txn);

    ASSERT_EQ(par.size(), scalar.size()) << num_threads << " threads";
    for (size_t i = 0; i < par.size(); i++) {
      EXPECT_TRUE(par[i] == scalar[i])
          << "parallel Q12 group " << par[i].shipmode
          << " diverged from the scalar reference at " << num_threads << " threads";
      EXPECT_TRUE(par[i] == vec[i])
          << "parallel Q12 diverged from the sequential vectorized engine at " << num_threads
          << " threads";
    }
    if (stats_out != nullptr) *stats_out = par_stats;
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  transform::BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
  catalog::SqlTable *lineitem_ = nullptr;
  catalog::SqlTable *orders_ = nullptr;
};

/// Duplicate build keys: every copy must surface on a probe, in the same
/// deterministic order regardless of how the build was parallelized.
TEST_P(HashJoinTest, BuildSideDuplicateKeysAllMatch) {
  std::vector<JoinEntry> entries;
  for (int64_t k = 0; k < 100; k++) {
    for (uint64_t copy = 0; copy < 1 + static_cast<uint64_t>(k % 4); copy++) {
      entries.push_back({k, static_cast<uint64_t>(k) * 10 + copy});
    }
  }
  catalog::SqlTable *table = MakeBuildTable("dups", entries);

  common::WorkerPool pool(4);
  const JoinHashTable inline_build = Build(table, nullptr);
  const JoinHashTable parallel_build = Build(table, &pool);
  EXPECT_EQ(inline_build.NumEntries(), entries.size());
  EXPECT_EQ(parallel_build.NumEntries(), entries.size());

  for (int64_t k = 0; k < 100; k++) {
    std::vector<uint64_t> inline_matches, parallel_matches;
    inline_build.ForEachMatch(k, [&](uint64_t p) { inline_matches.push_back(p); });
    parallel_build.ForEachMatch(k, [&](uint64_t p) { parallel_matches.push_back(p); });
    ASSERT_EQ(inline_matches.size(), 1 + static_cast<size_t>(k % 4)) << "key " << k;
    EXPECT_EQ(inline_matches, parallel_matches)
        << "parallel build changed the match order for key " << k;
    for (uint64_t copy = 0; copy < inline_matches.size(); copy++) {
      EXPECT_EQ(inline_matches[copy], static_cast<uint64_t>(k) * 10 + copy);
    }
  }
  // Missing keys match nothing.
  parallel_build.ForEachMatch(1000, [](uint64_t) { FAIL() << "matched a missing key"; });
  gc_.FullGC();
}

/// Both table layouts keep duplicate matches in block order: keys repeat in
/// every block of a multi-block build table, over a dense range (buckets are
/// `key - min`) and spread by `k << 40` (too sparse, so hashed). Payloads are
/// insertion sequence numbers, so block order is ascending payload order, and
/// the inline and 4-worker builds must agree on it.
TEST_P(HashJoinTest, BothLayoutsMatchInBlockOrder) {
  const catalog::Schema schema{{{"key", catalog::TypeId::kBigInt},
                                {"payload", catalog::TypeId::kBigInt}}};
  const uint64_t rows = 3 * schema.ToBlockLayout().NumSlots() + 100;
  constexpr int64_t kKeys = 500;
  common::WorkerPool pool(4);
  for (const int shift : {0, 40}) {
    std::vector<JoinEntry> entries;
    std::vector<std::vector<uint64_t>> expected(kKeys);
    for (uint64_t i = 0; i < rows; i++) {
      const auto k = static_cast<int64_t>((i * 7919) % kKeys);
      entries.push_back({k << shift, i});
      expected[static_cast<size_t>(k)].push_back(i);
    }
    catalog::SqlTable *table = MakeBuildTable("spread" + std::to_string(shift), entries);
    ASSERT_GE(table->UnderlyingTable().NumBlocks(), 3u);

    const JoinHashTable inline_build = Build(table, nullptr);
    const JoinHashTable parallel_build = Build(table, &pool);
    EXPECT_EQ(inline_build.DenseKeys(), shift == 0);
    EXPECT_EQ(parallel_build.DenseKeys(), shift == 0);
    EXPECT_EQ(parallel_build.NumEntries(), rows);
    for (int64_t k = 0; k < kKeys; k++) {
      std::vector<uint64_t> inline_matches, parallel_matches;
      inline_build.ForEachMatch(k << shift, [&](uint64_t p) { inline_matches.push_back(p); });
      parallel_build.ForEachMatch(k << shift, [&](uint64_t p) { parallel_matches.push_back(p); });
      ASSERT_EQ(inline_matches, expected[static_cast<size_t>(k)])
          << "key " << k << " shift " << shift << ": not in block order";
      ASSERT_EQ(parallel_matches, inline_matches) << "key " << k << " shift " << shift;
    }
  }
  gc_.FullGC();
}

/// Empty build and probe sides must produce empty (not crashing) joins on
/// every engine.
TEST_P(HashJoinTest, EmptyBuildAndProbeSides) {
  // Operator level: an empty build table.
  catalog::SqlTable *empty = MakeBuildTable("empty", {});
  common::WorkerPool pool(2);
  const JoinHashTable table = Build(empty, &pool);
  EXPECT_TRUE(table.Empty());
  table.ForEachMatch(0, [](uint64_t) { FAIL() << "empty table produced a match"; });

  // Query level: empty ORDERS (no order ever matches), then empty LINEITEM.
  lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, 2000, /*seed=*/7, 0);
  orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, 0);
  gc_.FullGC();
  QueryRunner runner(&txn_manager_, 2);
  for (const ExecMode mode : {ExecMode::kVectorized, ExecMode::kScalar, ExecMode::kParallel}) {
    EXPECT_TRUE(runner.RunQ12(orders_, lineitem_, {}, mode).rows.empty());
  }

  catalog::SqlTable *no_lines =
      catalog_.GetTable(catalog_.CreateTable("lineitem_empty", tpch::LineItemSchema()));
  catalog::SqlTable *some_orders =
      tpch::GenerateOrders(&catalog_, &txn_manager_, 500, 11, 0, "orders_filled");
  gc_.FullGC();
  for (const ExecMode mode : {ExecMode::kVectorized, ExecMode::kScalar, ExecMode::kParallel}) {
    EXPECT_TRUE(runner.RunQ12(some_orders, no_lines, {}, mode).rows.empty());
  }
  gc_.FullGC();
}

/// A duplicated build side must exactly double every join count — checked
/// through full Q12 so duplicates flow through probe and aggregation too.
TEST_P(HashJoinTest, DuplicateOrdersDoubleTheCounts) {
  const uint64_t rows = 4000;
  lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7, 0);
  orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11, 0);
  gc_.FullGC();

  // Clone ORDERS with every row twice (same generator stream, two passes).
  catalog::SqlTable *doubled =
      catalog_.GetTable(catalog_.CreateTable("orders_doubled", tpch::OrdersSchema()));
  {
    const auto read_init = orders_->FullInitializer();
    std::vector<byte> buffer(read_init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int pass = 0; pass < 2; pass++) {
      for (auto it = orders_->begin(); !it.Done(); ++it) {
        ProjectedRow *row = read_init.InitializeRow(buffer.data());
        if (!orders_->Select(txn, *it, row)) continue;
        // Re-own the varlen values: Insert stores the entry verbatim, and two
        // tables must not share one owned buffer.
        storage::StorageUtil::DeepCopyVarlens(doubled->UnderlyingTable().GetLayout(), row);
        doubled->Insert(txn, *row);
      }
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();

  QueryRunner runner(&txn_manager_, 4);
  const auto once = runner.RunQ12(orders_, lineitem_, {}, ExecMode::kParallel);
  const auto twice = runner.RunQ12(doubled, lineitem_, {}, ExecMode::kParallel);
  const auto twice_scalar = runner.RunQ12(doubled, lineitem_, {}, ExecMode::kScalar);
  ASSERT_FALSE(once.rows.empty());
  ASSERT_EQ(once.rows.size(), twice.rows.size());
  EXPECT_TRUE(twice.rows == twice_scalar.rows);
  for (size_t i = 0; i < once.rows.size(); i++) {
    EXPECT_EQ(twice.rows[i].shipmode, once.rows[i].shipmode);
    EXPECT_EQ(twice.rows[i].high_line_count, 2 * once.rows[i].high_line_count);
    EXPECT_EQ(twice.rows[i].low_line_count, 2 * once.rows[i].low_line_count);
  }
  gc_.FullGC();
}

/// The headline agreement matrix: hot, ~50% frozen, and fully frozen tables
/// at 1/2/4 workers — every engine bit-exact, both access paths exercised
/// where the freeze state implies them.
TEST_P(HashJoinTest, MatchesScalarAcrossFreezeStatesAndThreadCounts) {
  Generate(RowsForBlocks(2));
  storage::DataTable &lines = lineitem_->UnderlyingTable();
  storage::DataTable &ords = orders_->UnderlyingTable();
  ASSERT_GT(lines.NumBlocks(), 2u);

  // 0% frozen: every morsel of both scans materializes.
  ScanStats stats;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_EQ(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // ~50% frozen (both tables): morsels mix zero-copy and materialization.
  for (storage::DataTable *dt : {&lines, &ords}) {
    const std::vector<storage::RawBlock *> blocks = dt->Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(dt, {blocks[i]}, nullptr);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // 100% frozen: the build side reads dictionary-or-gathered varlens in
  // place, the probe side streams zero-copy batches.
  for (storage::DataTable *dt : {&lines, &ords}) {
    pipeline_.EnqueueTable(dt);
    pipeline_.RunOnce();
    for (storage::RawBlock *block : dt->Blocks()) {
      ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_EQ(stats.hot_blocks, 0u);
  }
  gc_.FullGC();
}

/// QueryRunner wiring: all three ExecModes agree and stats cover both scans.
TEST_P(HashJoinTest, QueryRunnerRunsQ12InAllModes) {
  Generate(RowsForBlocks(1));
  pipeline_.EnqueueTable(&lineitem_->UnderlyingTable());
  pipeline_.RunOnce();

  QueryRunner runner(&txn_manager_, /*num_threads=*/2);
  const auto vec = runner.RunQ12(orders_, lineitem_);
  const auto scalar = runner.RunQ12(orders_, lineitem_, {}, ExecMode::kScalar);
  const auto par = runner.RunQ12(orders_, lineitem_, {}, ExecMode::kParallel);
  ASSERT_FALSE(vec.rows.empty());
  EXPECT_TRUE(vec.rows == scalar.rows);
  EXPECT_TRUE(par.rows == scalar.rows);
  // Two ship modes, counts bounded by qualifying lineitems.
  EXPECT_LE(vec.rows.size(), 2u);
  // The stats span the ORDERS build scan and the LINEITEM probe scan.
  uint64_t line_rows = 0, order_rows = 0;
  auto *txn = txn_manager_.BeginTransaction();
  const auto count_rows = [&](catalog::SqlTable *table) {
    const auto init = table->InitializerForColumns({0});
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    uint64_t n = 0;
    for (auto it = table->begin(); !it.Done(); ++it) {
      if (table->Select(txn, *it, init.InitializeRow(buffer.data()))) n++;
    }
    return n;
  };
  line_rows = count_rows(lineitem_);
  order_rows = count_rows(orders_);
  txn_manager_.Commit(txn);
  EXPECT_EQ(vec.stats.rows, line_rows + order_rows);
  gc_.FullGC();
}

/// The concurrency scenario: Q12 runs on four scan workers while (a) a
/// writer updates ship modes, deletes, and re-inserts lineitems — re-heating
/// frozen blocks under both scans — and (b) the transformation pipeline
/// keeps re-freezing whatever cools down. Every iteration compares the
/// parallel join against the scalar reference inside the SAME transaction:
/// any MVCC violation on either side of the join shows up as a divergence.
TEST_P(HashJoinTest, Q12ParallelStaysConsistentUnderConcurrentWritesAndTransform) {
  Generate(RowsForBlocks(1));
  storage::DataTable &lines = lineitem_->UnderlyingTable();
  storage::DataTable &ords = orders_->UnderlyingTable();

  for (storage::DataTable *dt : {&lines, &ords}) {
    pipeline_.EnqueueTable(dt);
  }
  pipeline_.RunOnce();

  std::atomic<bool> stop{false};

  // The transform thread owns the GC for the duration (single-consumer).
  std::thread transform_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline_.EnqueueTable(&lines);
      pipeline_.EnqueueTable(&ords);
      pipeline_.RunOnce();
      gc_.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread writer([&] {
    common::Xorshift rng(123);
    static const char *kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
    const auto update_init = lineitem_->InitializerForColumns({tpch::L_SHIPMODE});
    std::vector<byte> update_buf(update_init.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      auto *txn = txn_manager_.BeginTransaction();
      bool ok = true;
      uint32_t visited = 0;
      for (auto it = lineitem_->begin(); !it.Done() && visited < 150 && ok; ++it, ++visited) {
        const uint64_t dice = rng.Uniform(0, 39);
        if (dice == 0) {
          ok = lineitem_->Delete(txn, *it);
        } else if (dice < 8) {
          // Flip the ship mode — the join's group-by column and one of its
          // filters, so writer visibility errors cannot hide.
          ProjectedRow *delta = update_init.InitializeRow(update_buf.data());
          workload::SetVarchar(delta, 0, kModes[rng.Uniform(0, 6)]);
          ok = lineitem_->Update(txn, *it, *delta);
        }
      }
      if (ok) {
        txn_manager_.Commit(txn);
      } else {
        txn_manager_.Abort(txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  common::WorkerPool pool(4);
  ScanStats aggregate;
  int iterations = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (iterations < 25 ||
         ((aggregate.frozen_blocks == 0 || aggregate.hot_blocks == 0) &&
          std::chrono::steady_clock::now() < deadline)) {
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;
    const auto parallel = q::RunQ12Parallel(orders_, lineitem_, txn, {}, &pool, &stats);
    const auto scalar = q::RunQ12Scalar(orders_, lineitem_, txn, {}, nullptr);
    EXPECT_TRUE(parallel == scalar)
        << "parallel Q12 diverged from the scalar reference in the same snapshot "
        << "(iteration " << iterations << ")";
    txn_manager_.Commit(txn);
    aggregate.Add(stats);
    iterations++;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  transform_thread.join();

  // Both access paths must actually have been exercised across the run.
  EXPECT_GT(aggregate.frozen_blocks, 0u) << "no morsel ever took the zero-copy path";
  EXPECT_GT(aggregate.hot_blocks, 0u) << "no morsel ever took the materialization path";
  gc_.FullGC();
}

/// Every match of `key`, in ForEachMatch order.
std::vector<uint64_t> MatchesOf(const JoinHashTable &table, int64_t key) {
  std::vector<uint64_t> matches;
  table.ForEachMatch(key, [&](uint64_t payload) { matches.push_back(payload); });
  return matches;
}

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();

/// Keys at both ends of int64 in one build: the key range wraps to 0 in
/// uint64, which must select the hashed layout rather than a zero-bucket (or
/// 2^64-bucket) dense one. Dense tables touching either end must not wrap a
/// probe from the other end into range.
TEST(JoinHashTableTest, ExtremeKeys) {
  const JoinHashTable both = JoinHashTable::FromOrdinalLists(
      {{{kMinKey, 1}, {kMaxKey, 2}, {0, 3}}, {}, {{kMinKey, 4}}});
  EXPECT_FALSE(both.DenseKeys());
  EXPECT_EQ(both.NumEntries(), 4u);
  EXPECT_EQ(MatchesOf(both, kMinKey), (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(MatchesOf(both, kMaxKey), (std::vector<uint64_t>{2}));
  EXPECT_EQ(MatchesOf(both, 0), (std::vector<uint64_t>{3}));
  for (const int64_t miss : {int64_t{1}, int64_t{-1}, kMinKey + 1, kMaxKey - 1}) {
    EXPECT_TRUE(MatchesOf(both, miss).empty()) << miss;
  }

  const JoinHashTable low = JoinHashTable::FromOrdinalLists({{{kMinKey, 5}, {kMinKey + 1, 6}}});
  EXPECT_TRUE(low.DenseKeys());
  EXPECT_EQ(MatchesOf(low, kMinKey), (std::vector<uint64_t>{5}));
  EXPECT_EQ(MatchesOf(low, kMinKey + 1), (std::vector<uint64_t>{6}));
  for (const int64_t miss : {kMinKey + 2, int64_t{0}, kMaxKey}) {
    EXPECT_TRUE(MatchesOf(low, miss).empty()) << miss;
  }

  const JoinHashTable high = JoinHashTable::FromOrdinalLists({{{kMaxKey - 1, 7}, {kMaxKey, 8}}});
  EXPECT_TRUE(high.DenseKeys());
  EXPECT_EQ(MatchesOf(high, kMaxKey - 1), (std::vector<uint64_t>{7}));
  EXPECT_EQ(MatchesOf(high, kMaxKey), (std::vector<uint64_t>{8}));
  for (const int64_t miss : {kMaxKey - 2, int64_t{0}, kMinKey}) {
    EXPECT_TRUE(MatchesOf(high, miss).empty()) << miss;
  }
}

/// A dense table answers probes below its minimum, above its maximum and
/// into the gaps of its range with no match, and finds every present key.
TEST(JoinHashTableTest, DenseProbesOutsideAndBetweenKeys) {
  const JoinHashTable table = JoinHashTable::FromOrdinalLists(
      {{{20, 1}, {11, 2}}, {{10, 3}, {11, 4}, {13, 5}}, {{20, 6}}});
  ASSERT_TRUE(table.DenseKeys());
  const std::map<int64_t, std::vector<uint64_t>> expected = {
      {10, {3}}, {11, {2, 4}}, {13, {5}}, {20, {1, 6}}};
  for (int64_t key = -5; key <= 30; key++) {
    const auto it = expected.find(key);
    EXPECT_EQ(MatchesOf(table, key), it == expected.end() ? std::vector<uint64_t>{} : it->second)
        << "key " << key;
  }
  EXPECT_TRUE(MatchesOf(table, kMinKey).empty());
  EXPECT_TRUE(MatchesOf(table, kMaxKey).empty());
}

/// A one-entry table (one bucket) matches its key and nothing else.
TEST(JoinHashTableTest, OneEntryTable) {
  const JoinHashTable table = JoinHashTable::FromOrdinalLists({{}, {{42, 7}}});
  EXPECT_EQ(table.NumEntries(), 1u);
  EXPECT_TRUE(table.DenseKeys());
  EXPECT_EQ(MatchesOf(table, 42), (std::vector<uint64_t>{7}));
  for (const int64_t miss : {int64_t{41}, int64_t{43}, int64_t{0}, kMinKey, kMaxKey}) {
    EXPECT_TRUE(MatchesOf(table, miss).empty()) << miss;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HashJoinTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
