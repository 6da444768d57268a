#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "common/worker_pool.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"

namespace mainline::transform {

/// The background transformation pipeline of Figure 8: pulls cold-block
/// candidates from the access observer, groups them per table into compaction
/// groups, and runs the two-phase transformer over each group. Runs either on
/// a dedicated thread (Start/Stop) or cooperatively (RunOnce).
///
/// A pass prepares each group on the calling thread (compaction, the phase
/// boundary and, if enabled, GC pumping) and gathers the group's ready blocks
/// on a worker pool the pipeline owns, one task per block, sized at the
/// hardware concurrency. The next group's compaction overlaps the previous
/// groups' gathers; the pass waits for every gather before it returns.
class TransformPipeline {
 public:
  /// \param observer source of cold-block candidates (fed by the GC)
  /// \param transformer two-phase compact+gather engine
  /// \param group_size blocks per compaction group (Figure 14's knob)
  TransformPipeline(AccessObserver *observer, BlockTransformer *transformer,
                    uint32_t group_size)
      : observer_(observer),
        transformer_(transformer),
        group_size_(group_size),
        gather_pool_(std::max(1u, std::thread::hardware_concurrency())) {}

  DISALLOW_COPY_AND_MOVE(TransformPipeline)

  ~TransformPipeline() { Stop(); }

  /// Restrict transformation to tables for which `filter` returns true
  /// (the paper targets only the tables that generate cold data).
  void SetTableFilter(std::function<bool(storage::DataTable *)> filter) {
    table_filter_ = std::move(filter);
  }

  /// Manually enqueue every current block of `table` as a cold candidate
  /// (e.g. a bulk-loaded, read-mostly table whose writes predate the
  /// observer).
  void EnqueueTable(storage::DataTable *table) EXCLUDES(manual_latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&manual_latch_);
    for (storage::RawBlock *block : table->Blocks()) manual_queue_.emplace_back(block, table);
  }

  /// One pass: collect cold blocks, form groups, transform them. Each pass
  /// also feeds the engine metrics registry (transform.passes, the observer
  /// queue-depth gauge, and the pass/freeze-lag histograms; the transformer
  /// feeds the other transform.* counters). Not reentrant: one caller at a
  /// time, which is the background thread while it runs.
  /// \param pass_stats when non-null, receives this pass's TransformStats
  ///        alone (the lifetime accumulation stays available via Stats()).
  /// \return number of blocks frozen in this pass.
  uint32_t RunOnce(TransformStats *pass_stats = nullptr) EXCLUDES(manual_latch_, stats_latch_);

  /// Spawn the background transformation thread: one pass, then a sleep of
  /// `period`, until Stop().
  void Start(std::chrono::milliseconds period = std::chrono::milliseconds(10))
      EXCLUDES(sleep_mutex_);

  /// Join the background thread. Returns promptly even mid-sleep: the loop
  /// waits on a condition variable this notifies, so shutdown latency does
  /// not scale with the period.
  void Stop() EXCLUDES(sleep_mutex_);

  /// Lifetime accumulation over every pass this pipeline has run. Returns a
  /// snapshot by value: when the pipeline runs on its background thread
  /// (Start), a reference into stats_ would race with the accumulation at
  /// the end of each concurrent RunOnce.
  TransformStats Stats() const EXCLUDES(stats_latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    return stats_;
  }

 private:
  AccessObserver *observer_;
  BlockTransformer *transformer_;
  uint32_t group_size_;
  std::function<bool(storage::DataTable *)> table_filter_;
  mutable common::SpinLatch stats_latch_;
  TransformStats stats_ GUARDED_BY(stats_latch_);
  common::SpinLatch manual_latch_;
  std::vector<std::pair<storage::RawBlock *, storage::DataTable *>> manual_queue_
      GUARDED_BY(manual_latch_);
  /// Runs the gathers of a pass; idle between passes.
  common::WorkerPool gather_pool_;

  /// The background loop body.
  void Run() EXCLUDES(manual_latch_, stats_latch_, sleep_mutex_);

  std::thread worker_;
  std::atomic<bool> run_{false};
  /// Written by Start before the worker spawns; the std::thread constructor
  /// publishes it, and only the worker reads it afterwards.
  std::chrono::milliseconds period_{10};
  /// The inter-pass sleep. Stop() cannot signal through `run_` alone: the
  /// loop's "still running?" check and its wait must be one atomic step
  /// under a mutex, or a notify landing between them is lost and Stop blocks
  /// a full period — exactly the latency this cv exists to remove.
  common::Mutex sleep_mutex_;
  common::ConditionVariable sleep_cv_;
  bool wake_ GUARDED_BY(sleep_mutex_) = false;
};

}  // namespace mainline::transform
