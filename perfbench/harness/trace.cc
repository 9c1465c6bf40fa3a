#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

uint32_t TraceBuffer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.start_ns = NowNs();
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void TraceBuffer::End(uint32_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SelfTimes> AggregateSelfTimes(
    const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, SelfTimes> out;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // Children are recorded after their parent, so one backward pass
    // accumulates each span's children time before the span is visited.
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<uint32_t> root_of(spans.size(), Span::kNoParent);
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint32_t parent = spans[i].parent;
      root_of[i] = parent == Span::kNoParent ? static_cast<uint32_t>(i)
                                             : root_of[parent];
    }
    for (size_t i = spans.size(); i-- > 0;) {
      if (spans[i].parent != Span::kNoParent) {
        child_ns[spans[i].parent] += spans[i].end_ns - spans[i].start_ns;
      }
    }
    // Per root: sum self time by layer name.
    std::map<uint32_t, std::map<std::string, double>> per_root;
    for (size_t i = 0; i < spans.size(); ++i) {
      const double self_us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              child_ns[i]) /
          1000.0;
      if (spans[i].parent == Span::kNoParent) {
        SelfTimes& agg = out[spans[i].name];
        agg.root_us.push_back(
            static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1000.0);
        per_root[static_cast<uint32_t>(i)];
        continue;
      }
      per_root[root_of[i]][spans[i].name] += self_us;
    }
    for (const auto& [root, layers] : per_root) {
      SelfTimes& agg = out[spans[root].name];
      for (const auto& [name, us] : layers) {
        if (agg.layer_us.find(name) == agg.layer_us.end()) {
          agg.layer_order.push_back(name);
        }
        agg.layer_us[name].push_back(us);
      }
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "buffer\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", b, i,
                   s.parent == Span::kNoParent ? -1LL
                                               : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
