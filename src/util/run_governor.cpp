#include "util/run_governor.hpp"

namespace xtalk::util {

const char* budget_reason_name(BudgetReason reason) {
  switch (reason) {
    case BudgetReason::kNone: return "none";
    case BudgetReason::kDeadline: return "deadline";
    case BudgetReason::kWaveformCalcs: return "waveform-calcs";
    case BudgetReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

void RunGovernor::start() {
  if (started_) return;
  t0_ = std::chrono::steady_clock::now();
  started_ = true;
  checks_ = 0;
  reason_ = BudgetReason::kNone;
}

double RunGovernor::elapsed_seconds() const {
  if (!started_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

BudgetReason RunGovernor::checkpoint(std::size_t work_done) {
  ++checks_;
  // Sticky: once exhausted, later checkpoints report the same reason so
  // every caller truncates at one consistent point.
  if (reason_ != BudgetReason::kNone) return reason_;
  if (external_ != nullptr && external_->cancelled()) {
    reason_ = BudgetReason::kCancelled;
  } else if (budget_.max_waveform_calcs > 0 &&
             work_done >= budget_.max_waveform_calcs) {
    reason_ = BudgetReason::kWaveformCalcs;
  } else if (budget_.deadline_ms > 0.0 &&
             elapsed_seconds() * 1e3 >= budget_.deadline_ms) {
    reason_ = BudgetReason::kDeadline;
  }
  return reason_;
}

}  // namespace xtalk::util
