// Sampled spans, recorded only in the benchmark's own code around each
// call into a layer. Every span of one request shares the request's op id;
// a child names its parent span. Spans stay in per-thread memory and are
// written out as one JSON file when the run ends.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClientOp,     // one request, as the client sees it (due/submit → ready)
  kServeSubmit,  // inside BasicServeSession::submit (includes help-pumping)
  kServeWait,    // last submit of the window → this op observed ready
  kServePoll,    // a poll() that ran a batch
  kWirePipeline, // one WireClient::pipeline call
  kCcSolve,      // one cc_caslt solve
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kClientOp: return "client.op";
    case SpanKind::kServeSubmit: return "serve.submit";
    case SpanKind::kServeWait: return "serve.wait";
    case SpanKind::kServePoll: return "serve.poll";
    case SpanKind::kWirePipeline: return "wire.pipeline";
    case SpanKind::kCcSolve: return "cc.solve";
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kClientOp;
};

/// One thread's span buffer. Sampling is by op id (1 in 2^shift), so all
/// spans of a sampled request are kept together. A disabled buffer (the
/// untraced runs) records nothing and costs one branch per call site.
class SpanBuffer {
 public:
  SpanBuffer() = default;
  SpanBuffer(std::uint32_t thread, unsigned sample_shift, std::size_t capacity)
      : enabled_(true), thread_(thread), mask_((std::uint64_t{1} << sample_shift) - 1) {
    spans_.reserve(capacity);
  }

  [[nodiscard]] bool sampled(std::uint64_t op_id) const noexcept {
    return enabled_ && (op_id & mask_) == 0;
  }

  /// Records a span and returns its id (0 when the buffer is full).
  std::uint64_t add(SpanKind kind, std::uint64_t op_id, std::uint64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
    if (!enabled_ || spans_.size() == spans_.capacity()) return 0;
    const std::uint64_t id = (std::uint64_t{thread_ + 1} << 40) | (spans_.size() + 1);
    spans_.push_back(Span{id, parent, op_id, start_ns, end_ns, kind});
    return id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  std::uint32_t thread_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<Span> spans_;
};

/// Writes every span as one JSON array (times relative to `origin_ns`).
inline void write_spans(const std::string& path, const std::vector<const SpanBuffer*>& bufs,
                        std::uint64_t origin_ns) {
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (const SpanBuffer* b : bufs) {
    for (const Span& s : b->spans()) {
      out << (first ? "" : ",\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op_id << ",\"name\":\"" << span_name(s.kind)
          << "\",\"start_ns\":" << (s.start_ns - origin_ns)
          << ",\"end_ns\":" << (s.end_ns - origin_ns) << "}";
      first = false;
    }
  }
  out << "\n]\n";
}

}  // namespace perfbench
