#pragma once

#include <atomic>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/pool_telemetry.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace mainline::common {

/// A fixed-size pool of worker threads consuming a shared task queue. Used
/// by morsel-parallel scans, hash-join builds and operator plans, and by
/// TransformPipeline, whose pool gathers a pass's blocks. Every task feeds
/// the process-wide pool.* metrics through PoolTelemetry.
class WorkerPool {
 public:
  explicit WorkerPool(uint32_t num_workers) {
    for (uint32_t i = 0; i < num_workers; i++) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  DISALLOW_COPY_AND_MOVE(WorkerPool)

  ~WorkerPool() { Shutdown(); }

  /// Enqueue a task for execution.
  /// \return true if the task was accepted; false if the pool has shut down.
  ///         A task enqueued after Shutdown would never run (the workers are
  ///         gone), so a later WaitUntilAllFinished would block forever —
  ///         rejecting it here is what keeps that call deadlock-free.
  bool SubmitTask(std::function<void()> task) EXCLUDES(mutex_) {
    {
      MutexGuard lock(&mutex_);
      if (shutdown_) return false;
      tasks_.push(Task{Timer(), std::move(task)});
      outstanding_++;
    }
    task_cv_.NotifyOne();
    return true;
  }

  /// Block until every submitted task has finished.
  void WaitUntilAllFinished() EXCLUDES(mutex_) {
    MutexGuard lock(&mutex_);
    while (outstanding_ != 0) done_cv_.Wait(&lock);
  }

  /// Stop accepting tasks and join all workers. Pending tasks are drained.
  void Shutdown() EXCLUDES(mutex_) {
    {
      MutexGuard lock(&mutex_);
      if (shutdown_) return;
      shutdown_ = true;
    }
    task_cv_.NotifyAll();
    for (auto &w : workers_) w.join();
    workers_.clear();
  }

  uint32_t NumWorkers() const { return static_cast<uint32_t>(workers_.size()); }

 private:
  void WorkerLoop() EXCLUDES(mutex_) {
    while (true) {
      Task task;
      {
        MutexGuard lock(&mutex_);
        while (!shutdown_ && tasks_.empty()) task_cv_.Wait(&lock);
        if (tasks_.empty()) {
          if (shutdown_) return;
          continue;
        }
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      PoolTelemetry::TaskStarted(task.enqueued.Elapsed<>());
      task.fn();
      {
        // Notify while still holding the mutex: a waiter between its
        // predicate check and its sleep also holds it, so the decrement and
        // the notification cannot slip into that gap and strand the waiter.
        MutexGuard lock(&mutex_);
        outstanding_--;
        done_cv_.NotifyAll();
      }
    }
  }

  /// A queued task remembers when it was submitted so the worker that
  /// dequeues it can report the submit → start latency (pool.queue_wait_us).
  struct Task {
    Timer enqueued;
    std::function<void()> fn;
  };

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<Task> tasks_ GUARDED_BY(mutex_);
  ConditionVariable task_cv_;
  ConditionVariable done_cv_;
  uint64_t outstanding_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

}  // namespace mainline::common
