// Spans recorded by the benchmark around its own calls into each layer.
//
// A span has a name ("<layer>.<call>"), start and end on the monotonic
// clock, the span that encloses it on the same thread, and the id of the
// operation it belongs to (one edit, one request). Spans stay in memory and
// are written out once, at the end of the run. Recording is off unless the
// run is traced; a disabled Scope costs one branch and no clock reads.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list; -1 = root
  std::uint64_t op_id = 0;
  std::uint32_t thread = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; returns its index (-1 when off).
  std::int64_t open(const char* name, std::uint64_t op_id);
  void close(std::int64_t index);

  std::vector<Span> spans() const;
  /// Self time per layer [s]: each span's duration minus the time its child
  /// spans cover, summed by the name's prefix before the first '.'.
  static std::map<std::string, double> self_seconds(
      const std::vector<Span>& spans);
  /// Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev).
  bool write_json(const std::string& path) const;
  void clear();

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint32_t next_thread_ = 0;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(const char* name, std::uint64_t op_id = 0)
      : index_(SpanRecorder::instance().enabled()
                   ? SpanRecorder::instance().open(name, op_id)
                   : -1) {}
  ~Scope() {
    if (index_ >= 0) SpanRecorder::instance().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
