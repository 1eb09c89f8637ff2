#include "service/admission.hpp"

namespace xtalk::service {

namespace {

/// min() treating 0 as "unlimited" on either side.
double min_limit(double a, double b) {
  if (a <= 0.0) return b;
  if (b <= 0.0) return a;
  return a < b ? a : b;
}

std::size_t min_limit(std::size_t a, std::size_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return a < b ? a : b;
}

}  // namespace

bool AdmissionController::admit(std::size_t queue_depth,
                                const util::RunBudget& server_default,
                                util::RunBudget* budget) {
  admitted_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (queue_depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, queue_depth,
                                            std::memory_order_relaxed)) {
  }

  // Server defaults fill fields the request left unlimited; the request may
  // always ask for *less* than the default.
  budget->deadline_ms = min_limit(budget->deadline_ms, server_default.deadline_ms);
  budget->max_waveform_calcs =
      min_limit(budget->max_waveform_calcs, server_default.max_waveform_calcs);

  if (queue_depth <= config_.soft_queue) return false;

  // Overload: tighten toward the clamps; the truncation surfaces as a
  // conservative anytime result, never as an error.
  const double clamped_deadline =
      min_limit(budget->deadline_ms, config_.overload_deadline_ms);
  const std::size_t clamped_calcs =
      min_limit(budget->max_waveform_calcs, config_.overload_max_calcs);
  const bool tightened = clamped_deadline != budget->deadline_ms ||
                         clamped_calcs != budget->max_waveform_calcs;
  budget->deadline_ms = clamped_deadline;
  budget->max_waveform_calcs = clamped_calcs;
  if (tightened) degraded_.fetch_add(1, std::memory_order_relaxed);
  return tightened;
}

}  // namespace xtalk::service
