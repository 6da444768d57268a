#include "trace.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, double> Tracer::SelfTimeMs() const {
  std::map<std::string, double> self_ms;
  for (const auto &buffer : buffers_) {
    const std::vector<Span> &spans = buffer->Spans();
    // Children of one span never overlap (one thread, synchronous calls), so
    // the covered part is the sum of the children's durations.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span &span : spans) {
      if (span.parent >= 0) child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const uint64_t duration = spans[i].end_ns - spans[i].start_ns;
      const uint64_t self = duration > child_ns[i] ? duration - child_ns[i] : 0;
      self_ms[spans[i].layer] += static_cast<double>(self) / 1e6;
    }
  }
  return self_ms;
}

std::map<std::string, uint64_t> Tracer::SpanCounts() const {
  std::map<std::string, uint64_t> counts;
  for (const auto &buffer : buffers_) {
    for (const Span &span : buffer->Spans()) counts[span.layer]++;
  }
  return counts;
}

bool Tracer::WriteChromeTrace(const std::string &path) const {
  std::FILE *out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto &buffer : buffers_) {
    for (const Span &span : buffer->Spans()) origin = std::min(origin, span.start_ns);
  }
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const auto &buffer : buffers_) {
    const std::vector<Span> &spans = buffer->Spans();
    for (size_t i = 0; i < spans.size(); i++) {
      const Span &span = spans[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                   "\"request\":%llu}}",
                   first ? "" : ",", span.name, span.layer, buffer->ThreadId(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                   static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
