// Request admission control: the service's overload story.
//
// The daemon never rejects analysis work with an error while it is up —
// the run governor gives it a better tool. Every admitted request carries
// a RunBudget; when the request queue is deeper than the configured soft
// threshold, admission *clamps* the budget (tighter deadline and/or
// waveform-calc cap) so overloaded requests finish early with a provably
// conservative anytime result instead of queueing unboundedly or failing.
// Load sheds itself: the deeper the queue, the cheaper each admitted run.
//
// Determinism note: admission changes *budgets*, never inputs — a clamped
// run is exactly the run a one-shot CLI invocation with the same (clamped)
// budget would produce, so the bitwise service-vs-local contract holds for
// truncated results too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/run_governor.hpp"

namespace xtalk::service {

struct AdmissionConfig {
  /// Queue depth (requests waiting at pickup time) beyond which budgets
  /// are clamped. 0 = clamp whenever anything is waiting.
  std::size_t soft_queue = 8;
  /// Overload clamps; 0 disables the respective clamp. Applied as a min
  /// with the request's own (or the server default) budget.
  double overload_deadline_ms = 0.0;
  std::size_t overload_max_calcs = 50000;
};

/// Thread-safe (executors admit concurrently); all counters are totals
/// since construction.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  /// Admit a request picked up with `queue_depth` requests still waiting.
  /// Merges the server default into zero fields of *budget, then applies
  /// overload clamps when the queue is past the soft threshold. Returns
  /// true when the budget was tightened (the request is "degraded").
  bool admit(std::size_t queue_depth, const util::RunBudget& server_default,
             util::RunBudget* budget);

  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  std::uint64_t queue_peak() const {
    return queue_peak_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionConfig config_;
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> queue_peak_{0};
};

}  // namespace xtalk::service
