#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadState {
  std::vector<std::int64_t> stack;  ///< open spans, innermost last
  std::int64_t thread = -1;         ///< recorder-assigned id; -1 = unset
};

thread_local ThreadState t_state;

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t SpanRecorder::open(const char* name, std::uint64_t op_id) {
  Span s;
  s.name = name;
  s.op_id = op_id;
  s.parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  std::int64_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (t_state.thread < 0) t_state.thread = next_thread_++;
    s.thread = static_cast<std::uint32_t>(t_state.thread);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start_ns = now_ns();
  }
  t_state.stack.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  if (!t_state.stack.empty() && t_state.stack.back() == index) {
    t_state.stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::map<std::string, double> SpanRecorder::self_seconds(
    const std::vector<Span>& spans) {
  // Children of one span run on its thread and nest inside it, so the time
  // they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const std::int64_t own =
        std::max<std::int64_t>(0, (s.end_ns - s.start_ns) - child_ns[i]);
    self[layer] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << (i ? ",\n" : "") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
      << ", \"ts\": " << static_cast<double>(s.start_ns - t0) * 1e-3
      << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op_id << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
