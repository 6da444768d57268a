// Figure 12: transformation throughput (blocks/s) when migrating blocks from
// the relaxed format to canonical Arrow, varying the fraction of empty slots.
//
//   12a: 50% varlen layout — Hybrid-Gather vs Snapshot vs Transactional
//        In-Place vs Hybrid-Compress
//   12b: phase breakdown (compaction vs gather vs dictionary), with the
//        gather split into its version/contiguity check, varlen copy and
//        null counts
//   12c: all fixed-length columns
//   12d: all varlen columns
//
// Expected shape (paper): Hybrid-Gather fastest when blocks are nearly full
// (sub-ms per block); throughput dips as emptiness grows (tuple movement)
// and recovers past ~50%; In-Place worst (version maintenance);
// Hybrid-Compress an order of magnitude slower than Hybrid-Gather.

#include "bench_util.h"
#include "transform/baselines.h"
#include "transform/arrow_reader.h"

namespace mainline::bench {
namespace {

using transform::BlockTransformer;
using transform::GatherMode;

template <typename T>
void DoNotOptimize(T &&value) {
  asm volatile("" : : "g"(value) : "memory");
}

catalog::Schema FixedOnlySchema() {
  return catalog::Schema({{"a", catalog::TypeId::kBigInt}, {"b", catalog::TypeId::kBigInt}});
}
catalog::Schema VarlenOnlySchema() {
  return catalog::Schema({{"p", catalog::TypeId::kVarchar}, {"q", catalog::TypeId::kVarchar}});
}

struct Result {
  double hybrid_gather = 0, snapshot = 0, in_place = 0, hybrid_compress = 0;
  double compaction_us = 0, gather_us = 0, dict_us = 0;
  double check_us = 0, copy_us = 0, null_us = 0;  // gather_us's phases
};

Result RunOne(const catalog::Schema &schema, uint32_t num_blocks, uint32_t percent_empty) {
  Result result;

  // Hybrid-Gather and Hybrid-Compress (fresh engine per mode so state resets).
  for (const GatherMode mode : {GatherMode::kVarlenGather, GatherMode::kDictionaryCompression}) {
    Engine engine;
    auto *table = engine.catalog.GetTable(engine.catalog.CreateTable("t", schema));
    PopulateMicroTable(&engine, table, num_blocks, percent_empty);
    BlockTransformer transformer(&engine.txn_manager, &engine.gc, mode);
    transform::TransformStats stats;
    auto blocks = table->UnderlyingTable().Blocks();
    const double secs = TimeSeconds([&] {
      transformer.ProcessGroup(&table->UnderlyingTable(), blocks, &stats);
    });
    const double throughput = static_cast<double>(num_blocks) / secs;
    if (mode == GatherMode::kVarlenGather) {
      result.hybrid_gather = throughput;
      result.compaction_us = static_cast<double>(stats.compaction_us) / num_blocks;
      result.gather_us = static_cast<double>(stats.gather_us) / num_blocks;
      result.check_us = static_cast<double>(stats.gather_check_us) / num_blocks;
      result.copy_us = static_cast<double>(stats.gather_copy_us) / num_blocks;
      result.null_us = static_cast<double>(stats.gather_null_us) / num_blocks;
    } else {
      result.hybrid_compress = throughput;
      result.dict_us = static_cast<double>(stats.gather_us) / num_blocks;
    }
  }

  // Snapshot: read each block transactionally and copy into fresh Arrow
  // buffers through the builder API.
  {
    Engine engine;
    auto *table = engine.catalog.GetTable(engine.catalog.CreateTable("t", schema));
    PopulateMicroTable(&engine, table, num_blocks, percent_empty);
    auto blocks = table->UnderlyingTable().Blocks();
    const double secs = TimeSeconds([&] {
      for (auto *block : blocks) {
        auto *txn = engine.txn_manager.BeginTransaction();
        auto batch = transform::ArrowReader::MaterializeBlock(
            table->GetSchema(), &table->UnderlyingTable(), block, txn);
        engine.txn_manager.Commit(txn);
        DoNotOptimize(batch);
      }
    });
    result.snapshot = static_cast<double>(num_blocks) / secs;
  }

  // Transactional In-Place: the whole transformation as ordinary updates.
  {
    Engine engine;
    auto *table = engine.catalog.GetTable(engine.catalog.CreateTable("t", schema));
    PopulateMicroTable(&engine, table, num_blocks, percent_empty);
    auto blocks = table->UnderlyingTable().Blocks();
    const double secs = TimeSeconds([&] {
      for (auto *block : blocks) {
        transform::InPlaceTransform(&engine.txn_manager, &table->UnderlyingTable(), block);
        engine.gc.FullGC();
      }
    });
    result.in_place = static_cast<double>(num_blocks) / secs;
  }
  return result;
}

void RunSeries(const char *title, const catalog::Schema &schema, uint32_t num_blocks,
               bool breakdown) {
  std::printf("\n== %s (%u blocks) ==\n", title, num_blocks);
  std::printf("%-8s %14s %12s %12s %16s\n", "%empty", "hybrid-gather", "snapshot",
              "in-place", "hybrid-compress");
  std::vector<Result> results;
  const uint32_t empties[] = {0, 1, 5, 10, 20, 40, 60, 80};
  for (const uint32_t e : empties) {
    const Result r = RunOne(schema, num_blocks, e);
    results.push_back(r);
    std::printf("%-8u %14.1f %12.1f %12.1f %16.1f   (blocks/s)\n", e, r.hybrid_gather,
                r.snapshot, r.in_place, r.hybrid_compress);
  }
  if (breakdown) {
    std::printf("\n-- Figure 12b: per-block phase breakdown (us/block) --\n");
    std::printf("%-8s %12s %14s %8s %8s %8s %12s\n", "%empty", "compaction", "varlen-gather",
                "check", "copy", "nulls", "dict");
    for (size_t i = 0; i < results.size(); i++) {
      const Result &r = results[i];
      std::printf("%-8u %12.1f %14.1f %8.1f %8.1f %8.1f %12.1f\n", empties[i], r.compaction_us,
                  r.gather_us, r.check_us, r.copy_us, r.null_us, r.dict_us);
    }
  }
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline::bench;
  const auto num_blocks = static_cast<uint32_t>(EnvInt("MAINLINE_F12_BLOCKS", 64));
  RunSeries("Figure 12a: 50% varlen columns", MicroSchema(), num_blocks, true);
  RunSeries("Figure 12c: all fixed-length columns", FixedOnlySchema(), num_blocks, false);
  RunSeries("Figure 12d: all varlen columns", VarlenOnlySchema(), num_blocks, false);
  return 0;
}
