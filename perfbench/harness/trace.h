// In-memory span recording for the traced run. Spans are taken only in the
// benchmark's own code, around client calls and around direct calls into a
// layer's public functions; nothing inside deddb is instrumented.
#ifndef DEDDB_PERFBENCH_TRACE_H_
#define DEDDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval. `parent` indexes the same buffer (kNoParent for a
/// root); `request` ties every span of one request together.
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
};

/// Spans of one thread, nested by a stack of open spans. A disabled buffer
/// records nothing, so the untraced run pays one branch per span site.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  uint32_t Begin(const char* name, uint64_t request);
  void End(uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op on a disabled buffer.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, uint64_t request)
      : buffer_(buffer),
        index_(buffer->enabled() ? buffer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (buffer_->enabled()) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  uint32_t index_;
};

/// Per root-span name ("op.query", "served.query", ...): for each layer name
/// under it, one self-time sample (µs) per root, and the root spans' own
/// durations. Self time is a span's duration minus its children's.
struct SelfTimes {
  std::vector<double> root_us;
  std::map<std::string, std::vector<double>> layer_us;
  /// Layer names in first-seen order, for stable table rows.
  std::vector<std::string> layer_order;
};

std::map<std::string, SelfTimes> AggregateSelfTimes(
    const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one tab-separated line (buffer, index, parent,
/// request, name, start_ns, end_ns) to `path`. Returns false on I/O failure.
bool WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                const std::string& path);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_TRACE_H_
