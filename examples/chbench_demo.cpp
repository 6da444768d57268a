// CH-benCHmark demo: HTAP under one roof. TPC-C terminals run transactions
// and feed fresh orders into the TPC-H tables while Q1/Q6/Q12/Q14 run
// morsel-parallel over the same snapshot-consistent data and the
// TransformPipeline freezes cold blocks in the background. Every sampled
// analytical answer is cross-checked bit-exactly against a scalar oracle in
// the same snapshot.
//
//   $ ./build/examples/chbench_demo [seconds] [terminals]

#include <cstdio>
#include <cstdlib>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "storage/raw_block.h"
#include "storage/record_buffer.h"
#include "transaction/transaction_manager.h"
#include "workload/chbench/chbench_harness.h"

using namespace mainline;

int main(int argc, char **argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  const auto terminals = static_cast<uint32_t>(argc > 2 ? std::atoi(argv[2]) : 2);

  storage::BlockStore block_store(60000, 1000);
  storage::RecordBufferSegmentPool buffer_pool(0, 10000);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);

  workload::chbench::Config config;
  config.terminals = terminals;
  config.duration_seconds = seconds;
  config.tpcc_scale = workload::tpcc::Config::Scaled(1000, 100);
  config.lineitem_rows = 30000;
  config.part_rows = 2000;

  workload::chbench::ChBenchHarness harness(&catalog, &txn_manager, &gc, config);
  std::printf("loading %u warehouse(s) + TPC-H tables...\n", terminals);
  harness.Setup();
  const workload::chbench::Result result = harness.Run();

  std::printf("\n%.1f K txn/s over %.1f s (%lu TPC-C committed, %lu fresh rows fed)\n",
              result.txns_per_second / 1000.0, result.seconds,
              static_cast<unsigned long>(result.tpcc_committed),
              static_cast<unsigned long>(result.feed_rows));
  for (const auto &query : result.queries) {
    std::printf("  %-4s %4lu runs, p50 %8.0f us, p95 %8.0f us\n", query.name.c_str(),
                static_cast<unsigned long>(query.runs), query.p50_us, query.p95_us);
  }
  std::printf("oracle: %lu checks, %lu mismatches (%s)\n",
              static_cast<unsigned long>(result.oracle_checks),
              static_cast<unsigned long>(result.oracle_mismatches),
              result.BitExact() ? "bit-exact" : "DIVERGED");
  std::printf("freshness: %lu freeze-lag samples, p50 %.1f ms, p95 %.1f ms\n",
              static_cast<unsigned long>(result.freeze_lag_samples),
              result.freeze_lag_p50_us / 1000.0, result.freeze_lag_p95_us / 1000.0);
  std::printf("transform: %lu passes froze %lu blocks (%.1f%% of TPC-H blocks)\n",
              static_cast<unsigned long>(result.transform_passes),
              static_cast<unsigned long>(result.blocks_frozen), result.frozen_pct);
  return result.BitExact() ? 0 : 1;
}
