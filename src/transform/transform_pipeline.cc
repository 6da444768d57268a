#include "transform/transform_pipeline.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <unordered_set>

#include "common/timer.h"
#include "metrics/engine_metrics.h"
#include "storage/block_access_controller.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"

namespace mainline::transform {

uint32_t TransformPipeline::RunOnce(TransformStats *pass_stats) {
  const common::Timer pass_timer;
  // Group candidates per table, validating that each block still belongs to
  // the table we observed (it may have been recycled since).
  std::unordered_map<storage::DataTable *, std::vector<storage::RawBlock *>> per_table;
  std::vector<std::pair<storage::RawBlock *, storage::DataTable *>> candidates;
  {
    common::SpinLatch::ScopedSpinLatch guard(&manual_latch_);
    candidates.swap(manual_queue_);
  }
  for (auto &[block, table] : observer_->CollectColdBlocks()) candidates.emplace_back(block, table);
  // The same block can arrive through both the manual queue and the observer;
  // a duplicate inside one compaction group would make the planner count its
  // tuples twice and compact the block onto itself.
  std::unordered_set<storage::RawBlock *> dedup;
  for (auto &[block, table] : candidates) {
    if (block->data_table != table || table == nullptr) continue;
    if (table_filter_ && !table_filter_(table)) continue;
    if (block->controller.GetState() == storage::BlockState::kFrozen) continue;
    if (!dedup.insert(block).second) continue;
    per_table[table].push_back(block);
  }

  metrics::TransformMetrics &transform_metrics = metrics::Transform();
  // Freshness lag is measured from this pass's cold-collection point to each
  // group reaching frozen, that is to the end of its last successful gather
  // (the watch set holds no per-block timestamps, so the epochs a block
  // waited before collection are not included).
  const common::Timer collect_timer;
  // One task per ready block, each with its own stats. A deque keeps every
  // task in place while later groups append theirs and workers fill them.
  struct GatherTask {
    size_t group;
    TransformStats stats;
    bool frozen = false;
    uint64_t done_us = 0;
  };
  std::deque<GatherTask> tasks;
  TransformStats pass;
  size_t num_groups = 0;
  for (auto &[table, blocks] : per_table) {
    for (size_t i = 0; i < blocks.size(); i += group_size_) {
      const size_t end = std::min(blocks.size(), i + group_size_);
      const std::vector<storage::RawBlock *> group(blocks.begin() + static_cast<long>(i),
                                                   blocks.begin() + static_cast<long>(end));
      for (storage::RawBlock *block : transformer_->PrepareGroup(table, group, &pass)) {
        GatherTask *task = &tasks.emplace_back(GatherTask{num_groups, {}});
        std::function<void()> gather = [this, table = table, block, task, &collect_timer] {
          task->frozen = transformer_->GatherBlock(table, block, &task->stats);
          task->done_us = collect_timer.Elapsed<>();
        };
        // The pool shuts down only with the pipeline, so this never runs
        // inline in practice.
        if (!gather_pool_.SubmitTask(gather)) gather();
      }
      num_groups++;
    }
  }
  gather_pool_.WaitUntilAllFinished();

  uint32_t frozen = 0;
  std::map<size_t, uint64_t> lag_us_by_group;  // only groups that froze a block
  for (const GatherTask &task : tasks) {
    pass.Add(task.stats);
    if (!task.frozen) continue;
    frozen++;
    uint64_t &lag_us = lag_us_by_group[task.group];
    lag_us = std::max(lag_us, task.done_us);
  }
  for (const auto &group : lag_us_by_group) transform_metrics.freeze_lag_us->Observe(group.second);

  {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    stats_.Add(pass);
  }
  if (pass_stats != nullptr) *pass_stats = pass;

  transform_metrics.passes->Add(1);
  transform_metrics.observer_queue_depth->Set(
      static_cast<int64_t>(observer_->WatchedBlocks()));
  transform_metrics.pass_us->Observe(pass_timer.Elapsed<>());
  return frozen;
}

void TransformPipeline::Run() {
  while (run_.load(std::memory_order_acquire)) {
    RunOnce();
    common::MutexGuard guard(&sleep_mutex_);
    // Deliberately not a predicate loop: `wake_` only cuts the sleep short
    // for shutdown, and a spurious wakeup merely runs the next pass early.
    // What matters is that the wake_ check and the wait are under one
    // mutex, so Stop's notify cannot land between them and be lost.
    if (!wake_) sleep_cv_.WaitFor(&guard, period_);
  }
}

void TransformPipeline::Start(std::chrono::milliseconds period) {
  // ordering: seq_cst exchange on the once-per-lifetime start path — the
  // full fence is free here and exactly one caller observes the transition.
  if (run_.exchange(true)) return;
  period_ = period;
  {
    common::MutexGuard guard(&sleep_mutex_);
    wake_ = false;
  }
  worker_ = std::thread([this] { Run(); });
}

void TransformPipeline::Stop() {
  // ordering: seq_cst exchange, mirror of Start — cold path; the winner of
  // the transition is the one caller that joins the worker.
  if (!run_.exchange(false)) return;
  {
    common::MutexGuard guard(&sleep_mutex_);
    wake_ = true;
  }
  sleep_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

}  // namespace mainline::transform
