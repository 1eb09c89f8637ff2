// Run governance: one soft budget (deadline, waveform-calculation cap) and
// cooperative cancellation.
//
// The iterative algorithm is an *anytime* computation — each coupling pass
// only tightens the upper bound of the one-step analysis — so a run stopped
// between level buckets still returns a provably conservative answer
// instead of failing. That soft truncation is the only budget behaviour:
// the level in flight always completes, which keeps anytime results
// bitwise reproducible.
//
// The pieces:
//   RunBudget    — declarative limits: wall-clock deadline and
//                  waveform-calculation cap.
//   CancelToken  — cooperative cancellation flag an external owner (the
//                  service's drain) sets from another thread; observed at
//                  the same serial points as the budget.
//   RunGovernor  — per-run enforcement: checkpoint() is called at level
//                  boundaries of the parallel engine, between iterative
//                  passes and in IncrementalSta's early-activity update.
//                  All checkpoint sites are serial, so the decision to
//                  truncate is a deterministic function of (budget, elapsed
//                  state) and — for the calc cap — independent of thread
//                  count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace xtalk::util {

/// Why a run was truncated (StaResult::budget.reason). Bench JSON reports
/// key on the names.
enum class BudgetReason {
  kNone,           ///< budget not exhausted
  kDeadline,       ///< wall-clock deadline passed
  kWaveformCalcs,  ///< waveform-calculation budget spent
  kCancelled,      ///< external CancelToken requested cancellation
};

const char* budget_reason_name(BudgetReason reason);

/// Declarative per-run limits. Zero means unlimited for both fields, so a
/// default-constructed budget changes nothing (and the engine's checkpoint
/// degenerates to pure reads on the hot path). On exhaustion the run
/// finishes the level in flight and returns the anytime result.
struct RunBudget {
  /// Wall-clock deadline for the whole run [ms]. Soft: the level in flight
  /// when it passes still completes.
  double deadline_ms = 0.0;
  /// Cap on waveform calculations (the unit of work of the engine).
  /// Checked at serial points only, so truncation is bitwise thread-count
  /// invariant. Counts calculations actually performed: gates an iterative
  /// pass carries from the previous pass, or copies from an incremental
  /// baseline, cost nothing, so a capped run truncates later and refines
  /// further for the same cap. The anytime guarantee is unaffected.
  std::size_t max_waveform_calcs = 0;

  bool unlimited() const {
    return deadline_ms <= 0.0 && max_waveform_calcs == 0;
  }
};

/// Cooperative cancellation flag. The owner calls request() from any
/// thread; the analysis observes it at governor checkpoints and truncates
/// anytime-style. Reusable across runs via reset(); lock-free.
class CancelToken {
 public:
  void request() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-run budget enforcement. Serial: every member is called from the
/// thread that drives the run (checkpoints sit between level dispatches),
/// so no state here is shared with the pool's workers.
class RunGovernor {
 public:
  explicit RunGovernor(const RunBudget& budget,
                       const CancelToken* external = nullptr)
      : budget_(budget), external_(external) {}

  /// (Re)start the run clock and clear the exhaustion state. Idempotent
  /// until finish(): a caller that pre-starts the governor (IncrementalSta
  /// charges its early-activity update against the same deadline) keeps
  /// its epoch when the engine calls start() again.
  void start();
  /// Mark the run finished; the next start() begins a new epoch.
  void finish() { started_ = false; }

  /// Budget check. Records the first exhausted condition and sticks to it
  /// (a run truncates for exactly one reason). Returns the sticky reason,
  /// kNone while within budget. With an unlimited budget and no external
  /// token this is a handful of pure reads.
  BudgetReason checkpoint(std::size_t work_done);

  bool exhausted() const { return reason_ != BudgetReason::kNone; }
  BudgetReason reason() const { return reason_; }
  /// Checkpoints seen this run; bitwise thread-count invariant, since every
  /// checkpoint site is serial.
  std::uint64_t checks() const { return checks_; }
  double elapsed_seconds() const;

 private:
  RunBudget budget_;
  const CancelToken* external_;  ///< borrowed; may be null
  std::chrono::steady_clock::time_point t0_;
  bool started_ = false;
  std::uint64_t checks_ = 0;
  BudgetReason reason_ = BudgetReason::kNone;
};

}  // namespace xtalk::util
