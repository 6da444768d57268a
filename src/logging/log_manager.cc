#include "logging/log_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/typedefs.h"
#include "storage/block_layout.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/varlen_entry.h"

namespace mainline::logging {

namespace {
/// Fail-stop on a log I/O error, in every build: once a write or fsync has
/// failed, what reached the disk is unknown, so no commit after it may be
/// acknowledged. Called before any durability callback of the batch runs.
[[noreturn]] void LogIoFailure(const char *operation, const std::string &path) {
  std::fprintf(stderr, "FATAL: log %s failed on \"%s\": %s\n", operation, path.c_str(),
               std::strerror(errno));
  std::abort();
}
}  // namespace

LogManager::LogManager(std::string log_file_path)
    : log_file_path_(std::move(log_file_path)) {
  fd_ = open(log_file_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) LogIoFailure("open", log_file_path_);
}

LogManager::~LogManager() {
  Shutdown();
  if (fd_ >= 0) close(fd_);
}

void LogManager::Start() {
  // ordering: seq_cst exchange on a once-per-process-lifetime control path;
  // the full fence costs nothing here and makes Start/Shutdown races trivial
  // to reason about (exactly one exchange observes the transition).
  if (run_flush_thread_.exchange(true)) return;
  flush_thread_ = std::thread([this] { FlushLoop(); });
}

void LogManager::Shutdown() {
  // ordering: seq_cst exchange, mirror of Start — cold path, and exactly one
  // caller wins the transition and joins the thread.
  if (run_flush_thread_.exchange(false)) {
    flush_cv_.NotifyAll();
    flush_thread_.join();
  }
  ForceFlush();
}

void LogManager::Submit(const LogSubmission &submission) {
  {
    common::MutexGuard lock(&queue_latch_);
    flush_queue_.push_back(submission);
  }
  flush_cv_.NotifyOne();
}

void LogManager::FlushLoop() {
  while (run_flush_thread_.load(std::memory_order_acquire)) {
    {
      common::MutexGuard lock(&queue_latch_);
      // Bounded wait (group-commit batching window): on timeout we flush
      // whatever accumulated rather than sleeping until the next enqueue.
      while (flush_queue_.empty() && run_flush_thread_.load(std::memory_order_acquire)) {
        if (!flush_cv_.WaitFor(&lock, std::chrono::milliseconds(5))) break;
      }
    }
    ForceFlush();
  }
}

void LogManager::ForceFlush() {
  std::vector<LogSubmission> batch;
  {
    common::MutexGuard lock(&queue_latch_);
    batch.swap(flush_queue_);
  }
  if (batch.empty()) return;

  std::vector<std::pair<CommitRecord::DurabilityCallback, void *>> callbacks;
  for (const LogSubmission &submission : batch) ProcessSubmission(submission, &callbacks);
  FlushAndSync();
  // Group commit: only after fsync do the transactions' results become
  // publishable to clients.
  for (auto &[callback, arg] : callbacks) {
    if (callback != nullptr) callback(arg);
  }
  // Now that the records are serialized, report each submission upward (the
  // transaction layer forwards it to the GC, which may then reclaim its
  // buffers).
  if (finished_callback_ != nullptr) {
    for (const LogSubmission &submission : batch) {
      finished_callback_(finished_context_, submission.handle);
    }
  }
}

void LogManager::ProcessSubmission(
    const LogSubmission &submission,
    std::vector<std::pair<CommitRecord::DurabilityCallback, void *>> *callbacks) {
  for (const LogRecord *record : *submission.records) {
    if (record->RecordType() == LogRecordType::kCommit) {
      const auto *commit = record->GetUnderlyingRecordBodyAs<CommitRecord>();
      callbacks->emplace_back(commit->Callback(), commit->CallbackArg());
      // The log manager skips writing read-only commit records to disk after
      // processing the callback (Section 3.4).
      if (commit->IsReadOnly()) continue;
    }
    SerializeRecord(*record);
  }
}

void LogManager::SerializeRecord(const LogRecord &record) {
  WriteValue(static_cast<uint8_t>(record.RecordType()));
  WriteValue(record.TxnBegin());
  switch (record.RecordType()) {
    case LogRecordType::kRedo: {
      const auto *redo = record.GetUnderlyingRecordBodyAs<RedoRecord>();
      MAINLINE_ASSERT(table_resolver_ != nullptr, "table resolver required for redo records");
      const storage::DataTable *table = table_resolver_(redo->TableOid());
      const storage::BlockLayout &layout = table->GetLayout();
      WriteValue(redo->TableOid().UnderlyingValue());
      WriteValue(static_cast<uint64_t>(redo->Slot().RawBytes()));
      WriteValue(static_cast<uint8_t>(redo->IsInsert() ? 1 : 0));
      const storage::ProjectedRow *delta = redo->Delta();
      WriteValue(delta->NumColumns());
      for (uint16_t i = 0; i < delta->NumColumns(); i++) {
        WriteValue(delta->ColumnIds()[i].UnderlyingValue());
      }
      // Values are serialized by content; varlen contents are inlined so the
      // log is self-contained across restarts.
      for (uint16_t i = 0; i < delta->NumColumns(); i++) {
        const storage::col_id_t col = delta->ColumnIds()[i];
        const byte *value = delta->AccessWithNullCheck(i);
        WriteValue(static_cast<uint8_t>(value == nullptr ? 0 : 1));
        if (value == nullptr) continue;
        if (layout.IsVarlen(col)) {
          const auto *entry = reinterpret_cast<const storage::VarlenEntry *>(value);
          WriteValue(entry->Size());
          WriteBytes(entry->Content(), entry->Size());
        } else {
          WriteBytes(value, layout.AttrSize(col));
        }
      }
      break;
    }
    case LogRecordType::kDelete: {
      const auto *del = record.GetUnderlyingRecordBodyAs<DeleteRecord>();
      WriteValue(del->TableOid().UnderlyingValue());
      WriteValue(static_cast<uint64_t>(del->Slot().RawBytes()));
      break;
    }
    case LogRecordType::kCommit: {
      const auto *commit = record.GetUnderlyingRecordBodyAs<CommitRecord>();
      WriteValue(commit->CommitTime());
      break;
    }
    case LogRecordType::kAbort:
      break;
  }
  // relaxed: monotonic statistic read by tests and monitors; readers need a
  // current-ish value, not ordering against the serialized bytes.
  records_written_.fetch_add(1, std::memory_order_relaxed);
}

void LogManager::FlushAndSync() {
  // write() may return short or be interrupted; resume until every byte is
  // handed to the kernel.
  size_t offset = 0;
  while (offset < out_buffer_.size()) {
    const ssize_t written = write(fd_, out_buffer_.data() + offset, out_buffer_.size() - offset);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) LogIoFailure("write", log_file_path_);
    offset += static_cast<size_t>(written);
  }
  // relaxed: same as records_written_ — a monitoring tally, no ordering.
  bytes_written_.fetch_add(out_buffer_.size(), std::memory_order_relaxed);
  out_buffer_.clear();
  if (fsync(fd_) != 0) LogIoFailure("fsync", log_file_path_);
}

}  // namespace mainline::logging
