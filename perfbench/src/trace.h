#pragma once

// Spans the driver records around each of its calls into an engine layer
// (a TPC-C procedure, a query, a freeze pass, an export, a table load). Each
// thread appends to its own in-memory buffer; nothing is written until the
// run ends. With tracing off every span is a null check.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char *name;   ///< what was called, e.g. "tpcc.new_order", "q1"
  const char *layer;  ///< the layer it belongs to, e.g. "tpcc", "execution"
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;    ///< index of the enclosing span in the same buffer, or -1
  uint64_t request;  ///< spans of one request share this id
};

/// One thread's spans. Spans nest strictly within a buffer (the driver's
/// calls are synchronous), so the enclosing span is the top of `open_`.
class TraceBuffer {
 public:
  explicit TraceBuffer(uint32_t thread_id) : thread_id_(thread_id) { spans_.reserve(1 << 16); }

  size_t Open(const char *name, const char *layer, uint64_t request) {
    const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, layer, NowNs(), 0, parent, request});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  uint32_t ThreadId() const { return thread_id_; }
  const std::vector<Span> &Spans() const { return spans_; }

 private:
  uint32_t thread_id_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Owns every thread's buffer. Buffers are handed out before the threads
/// start, so recording needs no synchronization.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool Enabled() const { return enabled_; }

  /// A fresh buffer for one thread, or nullptr when tracing is off.
  TraceBuffer *NewBuffer() {
    if (!enabled_) return nullptr;
    buffers_.push_back(std::make_unique<TraceBuffer>(static_cast<uint32_t>(buffers_.size())));
    return buffers_.back().get();
  }

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part its child spans cover, summed by layer.
  std::map<std::string, double> SelfTimeMs() const;

  /// Span count per layer.
  std::map<std::string, uint64_t> SpanCounts() const;

  /// Write every span as Chrome trace-event JSON (viewable in Perfetto).
  bool WriteChromeTrace(const std::string &path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// RAII span; a no-op when `buffer` is null.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer *buffer, const char *name, const char *layer, uint64_t request = 0)
      : buffer_(buffer), index_(buffer == nullptr ? 0 : buffer->Open(name, layer, request)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

 private:
  TraceBuffer *buffer_;
  size_t index_;
};

}  // namespace perfbench
