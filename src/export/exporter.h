#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "arrowlite/io.h"
#include "catalog/schema.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_manager.h"

namespace mainline::exporter {

/// Outcome of one bulk export.
struct ExportResult {
  uint64_t rows = 0;
  /// Bytes that crossed the (simulated) wire.
  uint64_t wire_bytes = 0;
  /// End-to-end time from request to the client being able to start
  /// analysis, matching Figure 15's measurement.
  uint64_t micros = 0;
  /// Blocks served zero-copy (frozen) vs. transactionally materialized.
  uint64_t frozen_blocks = 0;
  uint64_t hot_blocks = 0;
};

/// A bulk data-export mechanism (Section 5). Each Export reads one snapshot
/// of the table: it begins one transaction and reads every block through
/// transform::ArrowReader::ReadBlock, which serves a frozen block in place
/// under its read lock and materializes a hot one through that transaction.
class Exporter {
 public:
  virtual ~Exporter() = default;

  /// Export the entire table to the client.
  virtual ExportResult Export(catalog::SqlTable *table,
                              transaction::TransactionManager *txn_manager) = 0;

  /// \return a short protocol name for reports.
  virtual const char *Name() const = 0;
};

/// Simulated client memory region for one-sided transfers (the RDMA path)
/// and a landing zone for the other protocols' wire bytes.
class ClientBuffer final : public arrowlite::ByteSink {
 public:
  explicit ClientBuffer(uint64_t capacity)
      : data_(std::make_unique<byte[]>(capacity)), capacity_(capacity) {}

  /// Overflow aborts in every build: an undersized buffer would otherwise
  /// be overrun on the heap.
  void Write(const byte *data, uint64_t size) override {
    if (size > capacity_ - size_) {
      std::fprintf(stderr, "FATAL: client buffer overflow (%llu + %llu > %llu bytes)\n",
                   static_cast<unsigned long long>(size_), static_cast<unsigned long long>(size),
                   static_cast<unsigned long long>(capacity_));
      std::abort();
    }
    std::memcpy(data_.get() + size_, data, size);
    size_ += size;
  }

  void Reset() { size_ = 0; }
  const byte *data() const { return data_.get(); }
  uint64_t size() const { return size_; }

 private:
  std::unique_ptr<byte[]> data_;
  uint64_t capacity_;
  uint64_t size_ = 0;
};

}  // namespace mainline::exporter
