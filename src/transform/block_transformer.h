#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/typedefs.h"
#include "gc/garbage_collector.h"
#include "storage/arrow_block_metadata.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::transform {

/// What the gathering phase emits for variable-length columns (Section 4.4).
enum class GatherMode : uint8_t {
  /// Contiguous Arrow varbinary buffers (values + int32 offsets).
  kVarlenGather = 0,
  /// Parquet/ORC-style dictionary compression (sorted dictionary + codes).
  kDictionaryCompression,
};

/// Counters reported by the transformation pipeline, used by the Figure 12-14
/// benchmarks.
///
/// `gather_us` and its three Figure 12b phases are summed over gathers. A
/// TransformPipeline pass gathers blocks on its worker pool, so in a pass's
/// stats they are summed over the pool's tasks and can exceed the pass's
/// wall time.
struct TransformStats {
  uint64_t tuples_moved = 0;
  /// Blocks emptied by compaction and scheduled for release. The deferred
  /// release re-validates and can decline (insertion block, concurrent
  /// refill), so in racy schedules this may overcount actual frees by the
  /// number of declined blocks.
  uint64_t blocks_freed = 0;
  uint64_t blocks_frozen = 0;
  uint64_t compaction_aborts = 0;
  uint64_t gather_retries = 0;
  /// Operations in compaction transactions (each move = delete + insert).
  uint64_t write_set_size = 0;
  uint64_t compaction_us = 0;
  uint64_t gather_us = 0;
  /// Gather phase: the version-pointer scan and the contiguity check.
  uint64_t gather_check_us = 0;
  /// Gather phase: the varlen copy, or the dictionary build.
  uint64_t gather_copy_us = 0;
  /// Gather phase: the null counts of the fixed-length columns.
  uint64_t gather_null_us = 0;

  /// Add every counter of `other` to this one.
  void Add(const TransformStats &other) {
    tuples_moved += other.tuples_moved;
    blocks_freed += other.blocks_freed;
    blocks_frozen += other.blocks_frozen;
    compaction_aborts += other.compaction_aborts;
    gather_retries += other.gather_retries;
    write_set_size += other.write_set_size;
    compaction_us += other.compaction_us;
    gather_us += other.gather_us;
    gather_check_us += other.gather_check_us;
    gather_copy_us += other.gather_copy_us;
    gather_null_us += other.gather_null_us;
  }
};

/// The two-phase relaxed-Arrow-to-canonical-Arrow transformation of
/// Section 4.3:
///
/// **Phase 1 (compaction)** runs one transaction per compaction group that
/// shuffles tuples (delete + insert pairs) to make the group's tuples
/// logically contiguous, marks the group's blocks *cooling* before
/// committing, and registers emptied blocks for recycling.
///
/// **Phase 2 (gathering)** waits until every transaction that overlapped the
/// compaction transaction has finished (closing the check-and-miss race of
/// Figure 9), verifies that no version chains remain, takes the *freezing*
/// exclusive lock, copies variable-length values into contiguous Arrow
/// buffers (or builds dictionaries), computes Arrow metadata, and marks the
/// block *frozen*.
///
/// Replaced buffers are reclaimed through the GC's deferred actions, so
/// in-flight readers never observe freed memory.
///
/// PrepareGroup runs phase 1 and the phase boundary on the calling thread,
/// which is the only one that may pump the GC. After it, each GatherBlock
/// touches only its own block, so GatherBlock may run on several threads at
/// once, one block each. Compaction and gathering feed the transform.*
/// counters of the metrics registry, whoever drives them.
class BlockTransformer {
 public:
  /// Callback invoked after each successful tuple movement (for index
  /// maintenance); receives (from, to, compaction transaction).
  using MoveCallback = std::function<void(storage::TupleSlot, storage::TupleSlot,
                                          transaction::TransactionContext *)>;

  BlockTransformer(transaction::TransactionManager *txn_manager, gc::GarbageCollector *gc,
                   GatherMode mode = GatherMode::kVarlenGather, bool optimal_planner = false)
      : txn_manager_(txn_manager), gc_(gc), mode_(mode), optimal_planner_(optimal_planner) {}

  DISALLOW_COPY_AND_MOVE(BlockTransformer)

  /// Run phase 1 on a compaction group.
  /// \param table owning table
  /// \param group blocks to compact together
  /// \param stats accumulates counters (may be nullptr)
  /// \param commit_ts_out receives the compaction transaction's commit
  ///        timestamp (gate for phase 2); may be nullptr
  /// \param survivors_out receives the blocks still holding tuples after
  ///        compaction (the candidates for gathering); may be nullptr.
  ///        Emptied blocks are scheduled for recycling and must not be
  ///        touched again.
  /// \return true if compaction committed, false if it aborted on a conflict
  ///         with user transactions (requeue the group).
  bool CompactGroup(storage::DataTable *table, const std::vector<storage::RawBlock *> &group,
                    TransformStats *stats, transaction::timestamp_t *commit_ts_out,
                    std::vector<storage::RawBlock *> *survivors_out = nullptr);

  /// Run phase 1 and the phase boundary: compact the group, wait until every
  /// transaction that overlapped the compaction has finished, and clear the
  /// survivors' version chains (pumping the GC, or waiting for its thread).
  /// \return the survivors ready to gather: still cooling, no versions left.
  ///         Empty if compaction aborted.
  std::vector<storage::RawBlock *> PrepareGroup(storage::DataTable *table,
                                                const std::vector<storage::RawBlock *> &group,
                                                TransformStats *stats);

  /// Run phase 2 on one block (state must be cooling). Safe to call for
  /// distinct blocks on several threads at once.
  /// \return true if the block is now frozen; false if a user transaction
  ///         preempted or residual versions were found (requeue).
  bool GatherBlock(storage::DataTable *table, storage::RawBlock *block,
                   TransformStats *stats) const;

  /// PrepareGroup, then GatherBlock on every ready block, all on the calling
  /// thread. Blocking; used by tests and by the single-threaded benchmarks.
  /// \return number of blocks frozen.
  uint32_t ProcessGroup(storage::DataTable *table,
                        const std::vector<storage::RawBlock *> &group, TransformStats *stats);

  void SetMoveCallback(MoveCallback callback) { move_callback_ = std::move(callback); }

  /// Whether PrepareGroup may drive the garbage collector itself while
  /// waiting for version chains to clear between phases (default). Disable
  /// when a dedicated GC thread owns the collector — GC state is
  /// single-consumer — in which case PrepareGroup waits for that thread to
  /// prune instead.
  void SetInlineGCPump(bool pump) { pump_gc_ = pump; }

  GatherMode Mode() const { return mode_; }

 private:
  static void GatherVarlen(storage::DataTable *table, storage::RawBlock *block,
                           uint32_t num_records, storage::ArrowBlockMetadata *metadata,
                           std::vector<const byte *> *old_buffers);
  static void GatherDictionary(storage::DataTable *table, storage::RawBlock *block,
                               uint32_t num_records, storage::ArrowBlockMetadata *metadata,
                               std::vector<const byte *> *old_buffers);

  transaction::TransactionManager *txn_manager_;
  gc::GarbageCollector *gc_;
  GatherMode mode_;
  bool optimal_planner_;
  bool pump_gc_ = true;
  MoveCallback move_callback_;
};

}  // namespace mainline::transform
