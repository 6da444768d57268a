// The `olap_frozen` workload: TPC-H Q1/Q6/Q12/Q14/Q3 round-robin over
// LINEITEM, ORDERS, CUSTOMER and PART, each plan run inline and then on a
// two-worker pool, with a LINEITEM Arrow Flight export after every round.
//
// One warm-up round reads the freshly loaded hot blocks (hot
// materialization). Every measured round opens with a full freeze of all
// four tables, so its queries and export read canonical Arrow blocks in
// place.

#include <bit>

#include "common/worker_pool.h"
#include "engine.h"
#include "execution/operators/plan_profile.h"
#include "host.h"
#include "trace.h"
#include "workloads.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"
#include "workload/tpch/tpch_queries.h"

namespace perfbench {
namespace {

namespace tpch = ml::workload::tpch;
using ml::execution::ScanStats;
using ml::execution::op::PlanProfile;

constexpr uint64_t kLineItemRows = 2000000;
/// l_orderkey advances by at most one per row and by about one per three
/// rows, so this many orders covers every lineitem's order.
constexpr uint64_t kOrders = kLineItemRows * 2 / 5;
constexpr uint64_t kCustomers = kOrders / 10;
/// GenerateLineItem draws l_partkey uniformly from [1, 200000].
constexpr uint64_t kParts = 200000;
constexpr uint32_t kPoolWorkers = 2;
/// Measured rounds per second of --seconds (the warm-up round is extra).
constexpr double kRoundsPerSecond = 1.0;

enum Query { kQ1, kQ6, kQ12, kQ14, kQ3, kNumQueries };
constexpr const char *kQueryNames[kNumQueries] = {"q1", "q6", "q12", "q14", "q3"};
constexpr const char *kParallelSpans[kNumQueries] = {"q1.parallel", "q6.parallel",
                                                     "q12.parallel", "q14.parallel",
                                                     "q3.parallel"};

/// How a query runs: its operator plan inline on the calling thread, the
/// same plan morsel-parallel on the worker pool, or the scalar
/// tuple-at-a-time oracle.
enum class Plan { kInline, kParallel, kScalar };

struct Tables {
  ml::catalog::SqlTable *lineitem = nullptr;
  ml::catalog::SqlTable *orders = nullptr;
  ml::catalog::SqlTable *customer = nullptr;
  ml::catalog::SqlTable *part = nullptr;
  std::vector<ml::catalog::SqlTable *> All() const { return {lineitem, orders, customer, part}; }
};

/// One answer per query, compared bit-exactly.
struct Answers {
  std::vector<tpch::Q1Row> q1;
  double q6 = 0;
  std::vector<tpch::Q12Row> q12;
  double q14 = 0;
  std::vector<tpch::Q3Row> q3;
};

bool SameBits(double a, double b) { return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b); }

bool Equal(Query q, const Answers &a, const Answers &b) {
  switch (q) {
    case kQ1:
      return a.q1 == b.q1;
    case kQ6:
      return SameBits(a.q6, b.q6);
    case kQ12:
      return a.q12 == b.q12;
    case kQ14:
      return SameBits(a.q14, b.q14);
    default:
      return a.q3 == b.q3;
  }
}

/// Run query `q` as `plan` (`pool` is used by Plan::kParallel only).
void RunQuery(Query q, Plan plan, const Tables &t, ml::transaction::TransactionContext *txn,
              ml::common::WorkerPool *pool, ScanStats *stats, PlanProfile *profile,
              Answers *out) {
  switch (q) {
    case kQ1:
      out->q1 = plan == Plan::kInline     ? tpch::RunQ1(t.lineitem, txn, {}, stats, profile)
                : plan == Plan::kParallel ? tpch::RunQ1Parallel(t.lineitem, txn, {}, pool, stats,
                                                                profile)
                                          : tpch::RunQ1Scalar(t.lineitem, txn, {});
      return;
    case kQ6:
      out->q6 = plan == Plan::kInline     ? tpch::RunQ6(t.lineitem, txn, {}, stats, profile)
                : plan == Plan::kParallel ? tpch::RunQ6Parallel(t.lineitem, txn, {}, pool, stats,
                                                                profile)
                                          : tpch::RunQ6Scalar(t.lineitem, txn, {});
      return;
    case kQ12:
      out->q12 = plan == Plan::kInline
                     ? tpch::RunQ12(t.orders, t.lineitem, txn, {}, stats, profile)
                 : plan == Plan::kParallel
                     ? tpch::RunQ12Parallel(t.orders, t.lineitem, txn, {}, pool, stats, profile)
                     : tpch::RunQ12Scalar(t.orders, t.lineitem, txn, {});
      return;
    case kQ14:
      out->q14 = plan == Plan::kInline
                     ? tpch::RunQ14(t.lineitem, t.part, txn, {}, stats, profile)
                 : plan == Plan::kParallel
                     ? tpch::RunQ14Parallel(t.lineitem, t.part, txn, {}, pool, stats, profile)
                     : tpch::RunQ14Scalar(t.lineitem, t.part, txn, {});
      return;
    default:
      out->q3 = plan == Plan::kInline
                    ? tpch::RunQ3(t.customer, t.orders, t.lineitem, txn, {}, stats, profile)
                : plan == Plan::kParallel
                    ? tpch::RunQ3Parallel(t.customer, t.orders, t.lineitem, txn, {}, pool, stats,
                                          profile)
                    : tpch::RunQ3Scalar(t.customer, t.orders, t.lineitem, txn, {});
      return;
  }
}

/// Operator times of one profiled query run, in milliseconds of worker time.
struct OpTimes {
  double filter = 0, aggregate = 0, join_build = 0, join_probe = 0, topk = 0;
  /// Worker time inside the scan-phase wall clock that no operator covers:
  /// the scan source (hot materialization or zero-copy binding) plus idle.
  double source = 0;
};

/// \param workers threads that ran the plan (1 for an inline plan)
OpTimes Attribute(const PlanProfile &profile, uint32_t workers) {
  OpTimes times;
  for (const auto &pipeline : profile.pipelines) {
    for (const auto &op : pipeline.operators) {
      const double ms = static_cast<double>(op.exclusive_ns) / 1e6;
      if (op.label == "Filter") times.filter += ms;
      if (op.label == "Aggregate") times.aggregate += ms;
      if (op.label == "HashJoinBuild") times.join_build += ms;
      if (op.label == "HashJoinProbe") times.join_probe += ms;
      if (op.label == "TopK") times.topk += ms;
    }
    if (pipeline.operators.empty()) continue;
    const double scan_ns = static_cast<double>(pipeline.wall_ns - pipeline.finish_ns) * workers;
    const double covered = static_cast<double>(pipeline.operators.front().inclusive_ns);
    times.source += std::max(0.0, scan_ns - covered) / 1e6;
  }
  return times;
}

/// A fresh engine with the four TPC-H tables generated from `seed`.
struct OlapState {
  std::unique_ptr<Engine> engine;
  Tables tables;
  double load_s[4] = {};
};

OlapState Setup(uint64_t seed, TraceBuffer *trace) {
  OlapState state;
  state.engine = std::make_unique<Engine>("");
  Engine &e = *state.engine;
  auto timed = [&](int slot, const char *span_name, auto &&load) {
    ScopedSpan span(trace, span_name, "load");
    const uint64_t start = NowNs();
    ml::catalog::SqlTable *table = load();
    state.load_s[slot] = static_cast<double>(NowNs() - start) / 1e9;
    return table;
  };
  state.tables.lineitem = timed(0, "load.lineitem", [&] {
    return tpch::GenerateLineItem(&e.catalog, &e.txn_manager, kLineItemRows, DeriveSeed(seed, 1));
  });
  state.tables.orders = timed(1, "load.orders", [&] {
    return tpch::GenerateOrders(&e.catalog, &e.txn_manager, kOrders, DeriveSeed(seed, 2), 10000,
                                "orders", kCustomers);
  });
  state.tables.customer = timed(2, "load.customer", [&] {
    return tpch::GenerateCustomer(&e.catalog, &e.txn_manager, kCustomers, DeriveSeed(seed, 3));
  });
  state.tables.part = timed(3, "load.part", [&] {
    return tpch::GeneratePart(&e.catalog, &e.txn_manager, kParts, DeriveSeed(seed, 4));
  });
  e.gc.FullGC();
  return state;
}

}  // namespace

void RunOlap(const Args &args, Tracer *tracer, Report *report) {
  TraceBuffer *main_trace = tracer->NewBuffer();
  const int rounds = Scaled(kRoundsPerSecond, args.seconds);

  // --- Set-up.
  const uint64_t setup_start = NowNs();
  OlapState state = Setup(args.seed, main_trace);
  report->e2e["setup_s"] = static_cast<double>(NowNs() - setup_start) / 1e9;
  report->e2e["setup_rss_mb"] = ResidentMb();
  Engine &engine = *state.engine;
  const Tables &tables = state.tables;
  const char *load_names[4] = {"load.lineitem_s", "load.orders_s", "load.customer_s",
                               "load.part_s"};
  for (int slot = 0; slot < 4; slot++) report->layers[load_names[slot]] = state.load_s[slot];
  const uint64_t lineitem_rows = VisibleRows(tables.lineitem, &engine.txn_manager);
  report->facts["tpch.lineitem_rows"] = static_cast<double>(lineitem_rows);
  report->facts["tpch.lineitem_blocks"] =
      static_cast<double>(tables.lineitem->UnderlyingTable().NumBlocks());

  ml::common::WorkerPool pool(kPoolWorkers);
  auto client = ClientFor(tables.lineitem);

  // --- Warm-up round over the freshly loaded, still hot blocks: each
  // parallel plan is timed (the hot.* per-layer metrics: hot
  // materialization) and its answer checked bit-exactly against its scalar
  // oracle in the same snapshot. From here on no writer changes a value (the thaws below write
  // values back unchanged), so every later snapshot must reproduce these
  // answers exactly.
  Answers oracle;
  double hot_source_ms = 0;
  for (int q = 0; q < kNumQueries; q++) {
    ml::transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
    Answers answer;
    PlanProfile profile;
    const uint64_t start = NowNs();
    {
      ScopedSpan span(main_trace, kQueryNames[q], "execution");
      RunQuery(static_cast<Query>(q), Plan::kParallel, tables, txn, &pool, nullptr,
               tracer->Enabled() ? &profile : nullptr, &answer);
    }
    report->layers[std::string("hot.") + kQueryNames[q] + "_ms"] =
        static_cast<double>(NowNs() - start) / 1e6;
    if (tracer->Enabled()) hot_source_ms += Attribute(profile, kPoolWorkers).source;
    RunQuery(static_cast<Query>(q), Plan::kScalar, tables, txn, nullptr, nullptr, nullptr,
             &oracle);
    engine.txn_manager.Commit(txn);
    report->attempted++;
    report->Check(Equal(static_cast<Query>(q), answer, oracle),
                  std::string(kQueryNames[q]) + ": plan answer differs from the scalar oracle");
  }
  report->layers["hot.source_ms"] = hot_source_ms;
  engine.gc.PerformGarbageCollection();

  // --- Measured phase. It opens by freezing all four tables (the bulk
  // load's first freeze, not timed: it gathers varlens scattered over the
  // heap). Every round then thaws every block (one unchanged write each)
  // and freezes all four tables again, so each round times one full
  // freeze, and the round's queries and export read frozen blocks only.
  const auto registry_before = ml::metrics::MetricsRegistry::Global().Snapshot();
  std::vector<double> freeze_s;
  ml::transform::TransformStats freeze_stats;
  uint64_t freezes = 0;
  auto freeze_all = [&] {
    const double seconds =
        FreezeTables(&engine, tables.All(), main_trace, "transform.freeze", &freeze_stats);
    if (freezes++ > 0) freeze_s.push_back(seconds);
    engine.gc.FullGC();
    report->attempted++;
    report->Check(FrozenBlockPct(tables.All()) == 100,
                  "a freeze pass left " +
                      std::to_string(100 - FrozenBlockPct(tables.All())) +
                      "% of the blocks unfrozen");
  };
  freeze_all();

  std::vector<double> latency_ms[kNumQueries], cpu_ms[kNumQueries], parallel_ms[kNumQueries];
  std::vector<OpTimes> op_times[kNumQueries];
  uint64_t export_bytes = 0, export_us = 0;
  ml::exporter::ExportResult last_export;
  ScanStats scan;
  uint64_t mismatches[kNumQueries] = {};
  int64_t backlog_max = 0;
  ml::metrics::Gauge *gc_backlog = ml::metrics::MetricsRegistry::Global().RegisterGauge("gc.backlog");
  uint64_t request = 0;
  for (int r = 0; r < rounds; r++) {
    ScopedSpan round_span(main_trace, "round", "driver", request);
    report->attempted++;
    report->Check(ThawTables(&engine, tables.All()) && FrozenBlockPct(tables.All()) == 0,
                  "thawing left " + std::to_string(FrozenBlockPct(tables.All())) +
                      "% of the TPC-H blocks frozen");
    engine.gc.FullGC();
    freeze_all();
    // Each query runs its plan inline (the end-to-end latency: no thread
    // handoff, whose wake-ups a busy host delays), then the same plan on
    // the pool (the pool layer's metrics), in one snapshot.
    for (int q = 0; q < kNumQueries; q++) {
      PlanProfile profile;
      Answers inline_answer, parallel_answer;
      ml::transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
      const uint64_t start = NowNs();
      const uint64_t cpu_start = CpuNs();
      {
        ScopedSpan span(main_trace, kQueryNames[q], "execution", ++request);
        RunQuery(static_cast<Query>(q), Plan::kInline, tables, txn, nullptr, &scan,
                 tracer->Enabled() ? &profile : nullptr, &inline_answer);
      }
      latency_ms[q].push_back(static_cast<double>(NowNs() - start) / 1e6);
      cpu_ms[q].push_back(static_cast<double>(CpuNs() - cpu_start) / 1e6);
      const uint64_t parallel_start = NowNs();
      {
        ScopedSpan span(main_trace, kParallelSpans[q], "execution", ++request);
        RunQuery(static_cast<Query>(q), Plan::kParallel, tables, txn, &pool, nullptr, nullptr,
                 &parallel_answer);
      }
      parallel_ms[q].push_back(static_cast<double>(NowNs() - parallel_start) / 1e6);
      engine.txn_manager.Commit(txn);
      if (tracer->Enabled()) op_times[q].push_back(Attribute(profile, 1));
      report->attempted += 2;
      if (!Equal(static_cast<Query>(q), inline_answer, oracle)) mismatches[q]++;
      if (!Equal(static_cast<Query>(q), parallel_answer, oracle)) mismatches[q]++;
    }
    ml::exporter::ArrowFlightExporter exporter(client.get());
    {
      ScopedSpan span(main_trace, "export.lineitem", "export", ++request);
      last_export = exporter.Export(tables.lineitem, &engine.txn_manager);
    }
    report->attempted++;
    const uint64_t received = ReceivedRows(exporter);
    report->Check(received == lineitem_rows && last_export.rows == lineitem_rows,
                  "export of LINEITEM sent " + std::to_string(last_export.rows) +
                      " rows and the client received " + std::to_string(received) +
                      ", the table has " + std::to_string(lineitem_rows));
    export_bytes += last_export.wire_bytes;
    export_us += last_export.micros;
    backlog_max = std::max(backlog_max, gc_backlog->Value());
    engine.gc.PerformGarbageCollection();
  }
  const auto delta = ml::metrics::MetricsRegistry::Global().Snapshot().Delta(registry_before);
  for (int q = 0; q < kNumQueries; q++) {
    report->Check(mismatches[q] == 0,
                  std::string(kQueryNames[q]) + ": " + std::to_string(mismatches[q]) +
                      " measured answers differ from the snapshot-checked answer",
                  mismatches[q]);
  }

  // --- Metrics: medians over the rounds.
  double latency_sum_ms = 0, cpu_sum_ms = 0, parallel_sum_ms = 0;
  for (int q = 0; q < kNumQueries; q++) {
    const double median = Median(latency_ms[q]);
    latency_sum_ms += median;
    cpu_sum_ms += Median(cpu_ms[q]);
    parallel_sum_ms += Median(parallel_ms[q]);
    report->layers[std::string(kQueryNames[q]) + "_ms"] = median;
  }
  report->layers["pool.op_p50_mean_ms"] = parallel_sum_ms / static_cast<double>(kNumQueries);
  report->e2e["op_p50_mean_ms"] = latency_sum_ms / static_cast<double>(kNumQueries);
  report->e2e["cpu_ms_per_op"] = cpu_sum_ms / static_cast<double>(kNumQueries);
  // Bytes over time of all exports, as on oltp.
  report->e2e["export_mb_s"] = static_cast<double>(export_bytes) / static_cast<double>(export_us);
  report->e2e["freeze_s"] = Median(freeze_s);
  RecordTransformStats(freeze_stats, static_cast<double>(freezes), report);

  auto median_of = [&](Query q, double OpTimes::*field) {
    std::vector<double> values;
    for (const OpTimes &times : op_times[q]) values.push_back(times.*field);
    return Median(values);
  };
  report->layers["q1.filter_ms"] = median_of(kQ1, &OpTimes::filter);
  report->layers["q1.aggregate_ms"] = median_of(kQ1, &OpTimes::aggregate);
  report->layers["q6.filter_ms"] = median_of(kQ6, &OpTimes::filter);
  for (const Query q : {kQ12, kQ14, kQ3}) {
    report->layers[std::string(kQueryNames[q]) + ".join_build_ms"] =
        median_of(q, &OpTimes::join_build);
    report->layers[std::string(kQueryNames[q]) + ".join_probe_ms"] =
        median_of(q, &OpTimes::join_probe);
  }
  report->layers["q3.topk_ms"] = median_of(kQ3, &OpTimes::topk);
  for (int q = 0; q < kNumQueries; q++) {
    report->layers[std::string(kQueryNames[q]) + ".source_ms"] =
        median_of(static_cast<Query>(q), &OpTimes::source);
  }
  report->layers["scan.frozen_block_pct"] =
      100.0 * static_cast<double>(scan.frozen_blocks) /
      static_cast<double>(scan.frozen_blocks + scan.hot_blocks);
  report->layers["pool.queue_wait_us_p50"] = delta.ValueAtQuantile("pool.queue_wait_us", 0.5);
  report->layers["pool.tasks_run"] = CounterDelta(delta, "pool.tasks_run");
  report->layers["txn.commits"] = CounterDelta(delta, "txn.commits");
  report->layers["gc.txns_unlinked"] = CounterDelta(delta, "gc.txns_unlinked");
  report->layers["gc.backlog_max"] = static_cast<double>(backlog_max);
  report->layers["export.frozen_block_pct"] =
      100.0 * static_cast<double>(last_export.frozen_blocks) /
      static_cast<double>(last_export.frozen_blocks + last_export.hot_blocks);
  report->layers["export.wire_mb"] = static_cast<double>(last_export.wire_bytes) / 1e6;

  report->facts["tpch.rounds"] = rounds;
  report->facts["tpch.pool_workers"] = kPoolWorkers;
  report->facts["tpch.rss_end_mb"] = ResidentMb();
}

}  // namespace perfbench
