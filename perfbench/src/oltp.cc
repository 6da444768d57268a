// The `oltp` workload: the TPC-C write path with background transformation
// (the paper's Figure 10 setup). Before the terminals start, fixed-work
// cycles over the freshly loaded tables: each thaws every block (one
// unchanged write per block), freezes all nine tables again and exports the
// frozen ORDER_LINE through Arrow Flight.
//
// Fixed work: each of the two terminals runs the same number of
// transactions whatever the speed, so table growth does not depend on
// throughput. How far the background pipeline gets does depend on timing,
// so nothing timed runs over the mixed state it leaves.

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rand_util.h"
#include "engine.h"
#include "gc/gc_thread.h"
#include "host.h"
#include "trace.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workloads.h"
#include "workload/tpcc/tpcc_db.h"
#include "workload/tpcc/tpcc_workload.h"

namespace perfbench {
namespace {

using ml::workload::tpcc::Database;
using ml::workload::tpcc::Worker;

constexpr int kTerminals = 2;
constexpr int kWarehouses = 2;
/// Timed thaw, freeze and export cycles per second of --seconds, and the
/// untimed ones before them.
constexpr double kCyclesPerSecond = 3.0;
constexpr int kWarmupCycles = 2;
/// Transactions per terminal per second of --seconds.
constexpr uint64_t kTxnsPerTerminalSecond = 8000;
/// How often the coordinator samples process CPU time while the terminals
/// run; cpu_ms_per_op is the median over these intervals.
constexpr uint64_t kCpuIntervalNs = 100000000;

enum Proc { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel, kNumProcs };
constexpr const char *kProcNames[kNumProcs] = {"new_order", "payment", "order_status",
                                               "delivery", "stock_level"};
constexpr const char *kProcSpans[kNumProcs] = {"tpcc.new_order", "tpcc.payment",
                                               "tpcc.order_status", "tpcc.delivery",
                                               "tpcc.stock_level"};

/// The spec's mix, in percent per procedure.
constexpr uint64_t kMixPct[kNumProcs] = {45, 43, 4, 4, 4};

/// The procedure a roll in [1, 100] picks from the mix.
Proc PickProc(uint64_t roll) {
  int p = 0;
  for (uint64_t upper = kMixPct[0]; roll > upper; upper += kMixPct[++p]) {
  }
  return static_cast<Proc>(p);
}

bool RunProc(Worker *worker, Proc proc) {
  switch (proc) {
    case kNewOrder:
      return worker->NewOrderTxn();
    case kPayment:
      return worker->PaymentTxn();
    case kOrderStatus:
      return worker->OrderStatusTxn();
    case kDelivery:
      return worker->DeliveryTxn();
    default:
      return worker->StockLevelTxn();
  }
}

/// One terminal's tallies and per-transaction latencies (microseconds).
struct Terminal {
  uint64_t attempted[kNumProcs] = {};
  uint64_t committed[kNumProcs] = {};
  std::vector<double> latency_us[kNumProcs];
  /// Transactions finished so far, read by the coordinator.
  std::atomic<uint64_t> done{0};
  TraceBuffer *trace = nullptr;
};

/// A fresh engine with its WAL in `log_path` and the loaded TPC-C database.
struct OltpState {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Database> db;

  /// The tables the background pipeline transforms (the paper's setup).
  std::vector<ml::catalog::SqlTable *> ColdTables() const {
    return {db->order, db->order_line, db->history, db->item};
  }

  std::vector<ml::catalog::SqlTable *> AllTables() const {
    return {db->warehouse, db->district, db->customer, db->history, db->new_order,
            db->order,     db->order_line, db->item,   db->stock};
  }
};

OltpState Setup(const std::string &log_path, TraceBuffer *trace) {
  ScopedSpan span(trace, "load.tpcc", "load");
  OltpState state;
  state.engine = std::make_unique<Engine>(log_path);
  Engine &engine = *state.engine;
  // The group-commit flush thread runs during the load, as it would for any
  // client; Shutdown drains and fsyncs the rest so the reading below does not
  // depend on how much the WAL still buffers.
  engine.log_manager->Start();
  ml::workload::tpcc::Config config;
  config.num_warehouses = kWarehouses;
  state.db = std::make_unique<Database>(&engine.catalog, config);
  state.db->Load(&engine.txn_manager, kTerminals);
  engine.log_manager->Shutdown();
  engine.gc.FullGC();
  return state;
}

}  // namespace

void RunOltp(const Args &args, Tracer *tracer, Report *report) {
  TraceBuffer *main_trace = tracer->NewBuffer();
  const uint64_t txns_per_terminal =
      static_cast<uint64_t>(static_cast<double>(kTxnsPerTerminalSecond) * args.seconds + 0.5);

  // --- Set-up.
  const uint64_t setup_start = NowNs();
  OltpState state = Setup(args.scratch + "/wal.log", main_trace);
  report->e2e["setup_s"] = static_cast<double>(NowNs() - setup_start) / 1e9;
  report->e2e["setup_rss_mb"] = ResidentMb();
  report->layers["load.tpcc_s"] = report->e2e["setup_s"];
  Engine &engine = *state.engine;
  Database &db = *state.db;

  const uint64_t orders_before = VisibleRows(db.order, &engine.txn_manager);
  const uint64_t new_orders_before = VisibleRows(db.new_order, &engine.txn_manager);
  const uint64_t history_before = VisibleRows(db.history, &engine.txn_manager);

  // --- Measured: freeze and export cycles over the loaded tables. (After
  // the terminals the physical layout depends on how far the background
  // pipeline got, which depends on timing.) Bulk-loaded data is cold, so the
  // first cycle freezes all of it; every later one first thaws every block
  // with one unchanged write, so each cycle freezes all nine tables in
  // full. No tuple moves (a fresh load has no gaps), so the indexes, which
  // the transform does not maintain, stay valid. The first cycle and
  // kWarmupCycles more are not timed: the first freeze gathers varlens
  // scattered over the heap, and the next few run slower while the
  // allocator settles.
  const int cycles = Scaled(kCyclesPerSecond, args.seconds);
  const std::vector<ml::catalog::SqlTable *> all_tables = state.AllTables();
  std::vector<double> freeze_s;
  uint64_t export_bytes = 0, export_us = 0;
  ml::transform::TransformStats transform_stats;
  ml::exporter::ExportResult last_export;
  const uint64_t order_line_rows = VisibleRows(db.order_line, &engine.txn_manager);
  auto client = ClientFor(db.order_line);
  for (int k = 0; k < 1 + kWarmupCycles + cycles; k++) {
    const bool timed = k > kWarmupCycles;
    if (k > 0) {
      report->attempted++;
      report->Check(ThawTables(&engine, all_tables) && FrozenBlockPct(all_tables) == 0,
                    "thawing left " + std::to_string(FrozenBlockPct(all_tables)) +
                        "% of the TPC-C blocks frozen");
    }
    // The WAL flush thread is stopped outside the terminal phase: drain the
    // thaw's records so the GC may unlink its versions.
    engine.log_manager->ForceFlush();
    engine.gc.FullGC();
    const double seconds =
        FreezeTables(&engine, all_tables, main_trace, "transform.freeze", &transform_stats);
    if (timed) freeze_s.push_back(seconds);
    report->attempted++;
    report->Check(FrozenBlockPct(all_tables) == 100,
                  "a freeze pass left " + std::to_string(100 - FrozenBlockPct(all_tables)) +
                      "% of the TPC-C blocks unfrozen");

    ml::exporter::ArrowFlightExporter exporter(client.get());
    {
      ScopedSpan span(main_trace, "export.order_line", "export", static_cast<uint64_t>(k));
      last_export = exporter.Export(db.order_line, &engine.txn_manager);
    }
    report->attempted++;
    const uint64_t received = ReceivedRows(exporter);
    report->Check(received == order_line_rows && last_export.rows == order_line_rows,
                  "export of ORDER_LINE sent " + std::to_string(last_export.rows) +
                      " rows and the client received " + std::to_string(received) +
                      ", the table has " + std::to_string(order_line_rows));
    if (timed) {
      export_bytes += last_export.wire_bytes;
      export_us += last_export.micros;
    }
  }
  client.reset();
  engine.log_manager->ForceFlush();
  engine.gc.FullGC();

  // --- Measured phase: terminals with background GC, WAL and transform.
  ml::transform::AccessObserver observer(1);
  ml::transform::BlockTransformer transformer(&engine.txn_manager, &engine.gc,
                                              ml::transform::GatherMode::kVarlenGather);
  transformer.SetInlineGCPump(false);
  ml::transform::TransformPipeline pipeline(&observer, &transformer, 10);
  const std::vector<ml::catalog::SqlTable *> cold_tables = state.ColdTables();
  pipeline.SetTableFilter([&](ml::storage::DataTable *table) {
    for (ml::catalog::SqlTable *cold : cold_tables) {
      if (&cold->UnderlyingTable() == table) return true;
    }
    return false;
  });

  std::vector<Terminal> terminals(kTerminals);
  for (Terminal &terminal : terminals) {
    terminal.trace = tracer->NewBuffer();
    for (auto &samples : terminal.latency_us) samples.reserve(txns_per_terminal / 2);
  }
  ml::metrics::Gauge *gc_backlog = ml::metrics::MetricsRegistry::Global().RegisterGauge("gc.backlog");
  int64_t backlog_max = 0;
  double frozen_pct = 0;
  double terminal_s = 0;
  std::vector<double> cpu_ms_per_txn;
  const uint64_t log_bytes_before = engine.log_manager->BytesWritten();
  const uint64_t log_records_before = engine.log_manager->RecordsWritten();
  const auto registry_before = ml::metrics::MetricsRegistry::Global().Snapshot();
  {
    ScopedSpan phase(main_trace, "phase.terminals", "driver");
    engine.log_manager->Start();
    engine.gc.SetAccessObserver(&observer);
    ml::gc::GarbageCollectorThread gc_thread(&engine.gc, std::chrono::milliseconds(10));
    pipeline.Start(std::chrono::milliseconds(10));

    std::atomic<int> running{kTerminals};
    std::vector<std::thread> threads;
    const uint64_t start = NowNs();
    const uint64_t cpu_start = CpuNs();
    for (int t = 0; t < kTerminals; t++) {
      threads.emplace_back([&, t] {
        Terminal &terminal = terminals[static_cast<size_t>(t)];
        Worker worker(&db, &engine.txn_manager, t + 1, DeriveSeed(args.seed, 100 + t));
        ml::common::Xorshift mix(DeriveSeed(args.seed, 200 + t));
        for (uint64_t i = 0; i < txns_per_terminal; i++) {
          const Proc proc = PickProc(mix.Uniform(1, 100));
          const uint64_t request = (static_cast<uint64_t>(t) << 40) | i;
          const uint64_t begin = NowNs();
          bool committed;
          {
            ScopedSpan span(terminal.trace, kProcSpans[proc], "tpcc", request);
            committed = RunProc(&worker, proc);
          }
          terminal.latency_us[proc].push_back(static_cast<double>(NowNs() - begin) / 1e3);
          terminal.attempted[proc]++;
          if (committed) terminal.committed[proc]++;
          // relaxed: a progress count the coordinator samples; no data hangs on it.
          terminal.done.fetch_add(1, std::memory_order_relaxed);
        }
        running.fetch_sub(1);
      });
    }
    // The coordinator only samples while the terminals run: the GC backlog,
    // and every kCpuIntervalNs the CPU time of every thread (the terminals and
    // the engine's log flush, GC and transform threads) per transaction
    // finished in the interval.
    auto finished = [&] {
      uint64_t total = 0;
      for (const Terminal &terminal : terminals) total += terminal.done.load(std::memory_order_relaxed);
      return total;
    };
    uint64_t interval_cpu = cpu_start, interval_txns = 0, interval_start = start;
    auto sample_cpu = [&] {
      const uint64_t cpu = CpuNs(), txns = finished();
      if (txns > interval_txns) {
        cpu_ms_per_txn.push_back(static_cast<double>(cpu - interval_cpu) / 1e6 /
                                 static_cast<double>(txns - interval_txns));
      }
      interval_cpu = cpu;
      interval_txns = txns;
      interval_start = NowNs();
    };
    while (running.load() > 0) {
      backlog_max = std::max(backlog_max, gc_backlog->Value());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (NowNs() - interval_start >= kCpuIntervalNs) sample_cpu();
    }
    for (auto &thread : threads) thread.join();
    terminal_s = static_cast<double>(NowNs() - start) / 1e9;
    sample_cpu();
    // Freshness when writes stop (ITEM is read-only and excluded).
    frozen_pct = FrozenBlockPct({db.order, db.order_line, db.history});
    pipeline.Stop();
    engine.gc.SetAccessObserver(nullptr);
  }
  const auto terminal_delta =
      ml::metrics::MetricsRegistry::Global().Snapshot().Delta(registry_before);
  const double log_bytes = static_cast<double>(engine.log_manager->BytesWritten() - log_bytes_before);
  const double log_records =
      static_cast<double>(engine.log_manager->RecordsWritten() - log_records_before);

  engine.log_manager->Shutdown();
  engine.gc.FullGC();

  // --- Correctness gate (outside the timed regions).
  uint64_t committed[kNumProcs] = {}, attempted[kNumProcs] = {};
  std::vector<double> all_latency;
  double mix_p50_ms = 0;
  for (int p = 0; p < kNumProcs; p++) {
    std::vector<double> samples;
    for (const Terminal &terminal : terminals) {
      committed[p] += terminal.committed[p];
      attempted[p] += terminal.attempted[p];
      samples.insert(samples.end(), terminal.latency_us[p].begin(), terminal.latency_us[p].end());
    }
    report->attempted += attempted[p];
    const double p50 = Quantile(samples, 0.50);
    mix_p50_ms += static_cast<double>(kMixPct[p]) / 100 * p50 / 1e3;
    report->layers[std::string("tpcc.") + kProcNames[p] + "_us_p50"] = p50;
    if (p == kNewOrder || p == kPayment) {
      report->layers[std::string("tpcc.") + kProcNames[p] + "_us_p99"] = Quantile(samples, 0.99);
    }
    all_latency.insert(all_latency.end(), samples.begin(), samples.end());
  }
  // Engine-side agreement: every committed New-Order added one ORDER row and
  // one NEW_ORDER row, every committed Payment one HISTORY row, and every
  // committed Delivery removed one NEW_ORDER row in each of its warehouse's
  // districts (none runs out: each starts with 1000 undelivered orders and
  // gains New-Orders faster than Deliveries take them); aborted ones left
  // nothing.
  const uint64_t orders_added = VisibleRows(db.order, &engine.txn_manager) - orders_before;
  const uint64_t history_added = VisibleRows(db.history, &engine.txn_manager) - history_before;
  report->Check(orders_added == committed[kNewOrder],
                "ORDER grew by " + std::to_string(orders_added) + " rows but " +
                    std::to_string(committed[kNewOrder]) + " New-Orders committed",
                attempted[kNewOrder]);
  report->Check(history_added == committed[kPayment],
                "HISTORY grew by " + std::to_string(history_added) + " rows but " +
                    std::to_string(committed[kPayment]) + " Payments committed",
                attempted[kPayment]);
  const auto new_orders_after = static_cast<int64_t>(VisibleRows(db.new_order, &engine.txn_manager));
  const int64_t new_orders_expected =
      static_cast<int64_t>(new_orders_before + committed[kNewOrder]) -
      static_cast<int64_t>(committed[kDelivery]) * db.config.districts_per_warehouse;
  report->Check(new_orders_after == new_orders_expected,
                "NEW_ORDER holds " + std::to_string(new_orders_after) + " rows but " +
                    std::to_string(committed[kNewOrder]) + " New-Orders and " +
                    std::to_string(committed[kDelivery]) + " Deliveries committed, so " +
                    std::to_string(new_orders_expected) + " were expected",
                attempted[kDelivery]);

  uint64_t total_committed = 0, total_attempted = 0;
  for (int p = 0; p < kNumProcs; p++) {
    total_committed += committed[p];
    total_attempted += attempted[p];
  }
  const auto txns = static_cast<double>(total_attempted);
  // The engine's own tallies over the terminal phase. Besides the terminals,
  // only the transform pipeline ran transactions: its compaction aborts are
  // in its stats, its compaction commits are not reported apart.
  const ml::transform::TransformStats pipeline_stats = pipeline.Stats();
  const auto engine_aborts = static_cast<uint64_t>(CounterDelta(terminal_delta, "txn.aborts"));
  const auto engine_commits = static_cast<uint64_t>(CounterDelta(terminal_delta, "txn.commits"));
  report->Check(engine_aborts == total_attempted - total_committed + pipeline_stats.compaction_aborts,
                "the engine counted " + std::to_string(engine_aborts) + " aborts, the terminals " +
                    std::to_string(total_attempted - total_committed) + " and the pipeline " +
                    std::to_string(pipeline_stats.compaction_aborts),
                total_attempted);
  report->Check(engine_commits >= total_committed,
                "the engine counted " + std::to_string(engine_commits) + " commits, the terminals " +
                    std::to_string(total_committed),
                total_attempted);

  report->e2e["op_p50_mean_ms"] = mix_p50_ms;
  report->e2e["cpu_ms_per_op"] = Median(cpu_ms_per_txn);
  // Bytes over time of all timed exports: a cycle's export runs at one of
  // two speeds, set by the heap its freeze left (the slow one pays for fresh
  // pages), so a median over a few cycles would jump between them.
  report->e2e["export_mb_s"] = static_cast<double>(export_bytes) / static_cast<double>(export_us);
  report->e2e["freeze_s"] = Median(freeze_s);

  report->layers["tpcc.ktps"] = static_cast<double>(total_committed) / terminal_s / 1e3;
  report->layers["tpcc.txn_us_p50"] = Quantile(all_latency, 0.50);
  report->layers["tpcc.txn_us_p99"] = Quantile(all_latency, 0.99);
  report->layers["tpcc.abort_pct"] = 100.0 * static_cast<double>(total_attempted - total_committed) / txns;
  report->layers["txn.commits"] = CounterDelta(terminal_delta, "txn.commits");
  report->layers["txn.aborts"] = CounterDelta(terminal_delta, "txn.aborts");
  report->layers["storage.write_write_conflicts"] =
      CounterDelta(terminal_delta, "storage.write_write_conflicts");
  report->layers["storage.inserts_per_txn"] = CounterDelta(terminal_delta, "storage.inserts") / txns;
  report->layers["storage.updates_per_txn"] = CounterDelta(terminal_delta, "storage.updates") / txns;
  report->layers["storage.varlen_bytes_per_txn"] =
      CounterDelta(terminal_delta, "storage.varlen_bytes") / txns;
  report->layers["log.bytes_per_txn"] = log_bytes / txns;
  report->layers["log.records_per_txn"] = log_records / txns;
  report->layers["gc.txns_unlinked"] = CounterDelta(terminal_delta, "gc.txns_unlinked");
  report->layers["gc.backlog_max"] = static_cast<double>(backlog_max);
  report->layers["transform.frozen_pct"] = frozen_pct;
  AddTransformStats(&transform_stats, pipeline_stats);
  // Plus the cycles' freeze passes.
  RecordTransformStats(transform_stats,
                       CounterDelta(terminal_delta, "transform.passes") +
                           static_cast<double>(freeze_s.size()),
                       report);
  report->layers["export.frozen_block_pct"] =
      100.0 * static_cast<double>(last_export.frozen_blocks) /
      static_cast<double>(last_export.frozen_blocks + last_export.hot_blocks);
  report->layers["export.wire_mb"] = static_cast<double>(last_export.wire_bytes) / 1e6;

  report->facts["tpcc.txns"] = txns;
  report->facts["tpcc.terminals"] = kTerminals;
  report->facts["tpcc.warehouses"] = kWarehouses;
  report->facts["tpcc.terminal_s"] = terminal_s;
  report->facts["tpcc.order_line_rows_exported"] = static_cast<double>(order_line_rows);
  report->facts["tpcc.cycles"] = cycles;
  report->facts["tpcc.cpu_intervals"] = static_cast<double>(cpu_ms_per_txn.size());
}

}  // namespace perfbench
