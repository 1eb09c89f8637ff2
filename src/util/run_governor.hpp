// Run governance: deadlines, memory budgets, cooperative cancellation.
//
// A production STA service must bound every run in time and memory, not
// just survive solver faults. The iterative algorithm is an *anytime*
// computation — each coupling pass only tightens the upper bound of the
// one-step analysis — so a run interrupted between level buckets can still
// return a provably conservative answer instead of failing.
//
// The pieces:
//   RunBudget    — declarative limits (wall-clock deadline, soft/hard RSS
//                  caps, waveform-calculation cap) plus the exhaustion
//                  policy (anytime truncation vs. strict throw).
//   CancelToken  — cooperative cancellation flag an external owner (RPC
//                  handler, scheduler) can set; checked at the same
//                  serial points as the budget.
//   RunGovernor  — per-run enforcement: checkpoint() is called at level
//                  boundaries of the parallel engine, between iterative
//                  passes, in IncrementalSta's early-activity update, and
//                  in the transient solver's outer loop. All checkpoint
//                  sites are serial, so the decision to truncate is a
//                  deterministic function of (budget, elapsed state) and —
//                  for count-based budgets — independent of thread count.
//   GovernorHook — test-only observer invoked at every checkpoint; lets a
//                  test burn wall-clock time at a deterministic point so
//                  deadline truncation reproduces bitwise at any thread
//                  count.
//
// Hard conditions (hard RSS cap, hard external cancel) additionally raise
// an abort flag that the thread pool polls between loop indices, so a run
// about to be killed stops claiming work mid-level instead of finishing
// the bucket first. Soft conditions never abandon a level: the current
// level always completes, which is what keeps anytime results bitwise
// reproducible.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace xtalk::util {

/// Why a run was truncated (StaResult::budget.reason). Append only — bench
/// JSON reports key on the names.
enum class BudgetReason {
  kNone,           ///< budget not exhausted
  kDeadline,       ///< wall-clock deadline passed
  kSoftMemory,     ///< resident set exceeded the soft cap
  kHardMemory,     ///< resident set exceeded the hard cap (always throws)
  kWaveformCalcs,  ///< waveform-calculation budget spent
  kCancelled,      ///< external CancelToken requested cancellation
};

const char* budget_reason_name(BudgetReason reason);

/// What to do when a budget is exhausted.
enum class BudgetPolicy {
  /// Finish the current level bucket, then return the anytime result: the
  /// last completed coupling pass (or the partial first pass with untimed
  /// endpoints explicitly marked). The default.
  kAnytime,
  /// Throw util::DiagError (code kBudgetExhausted) at the first exhausted
  /// checkpoint instead of returning a partial result.
  kStrictBudget,
};

const char* budget_policy_name(BudgetPolicy policy);

/// Declarative per-run limits. Zero means unlimited for every field, so a
/// default-constructed budget changes nothing (and the engine's checkpoint
/// degenerates to pure reads on the hot path).
struct RunBudget {
  /// Wall-clock deadline for the whole run [ms]. Soft: the level in flight
  /// when it passes still completes.
  double deadline_ms = 0.0;
  /// Resident-set-size caps [bytes], polled at checkpoints (and, for the
  /// hard cap, by a background watchdog). Soft truncates anytime-style;
  /// hard aborts the level in flight and throws regardless of policy.
  /// No-ops on platforms without /proc/self/statm.
  std::size_t soft_memory_bytes = 0;
  std::size_t hard_memory_bytes = 0;
  /// Cap on waveform calculations (the unit of work of the engine; the
  /// transient solver counts accepted time steps instead). Checked at
  /// serial points only, so truncation is bitwise thread-count invariant.
  /// Counts calculations actually performed: gates an iterative pass
  /// carries from the previous pass, or copies from an incremental
  /// baseline, cost nothing, so a capped run truncates later and refines
  /// further for the same cap. The anytime guarantee is unaffected.
  std::size_t max_waveform_calcs = 0;
  BudgetPolicy policy = BudgetPolicy::kAnytime;

  bool unlimited() const {
    return deadline_ms <= 0.0 && soft_memory_bytes == 0 &&
           hard_memory_bytes == 0 && max_waveform_calcs == 0;
  }
};

/// Cooperative cancellation flag. The owner (an RPC handler, a scheduler,
/// a Ctrl-C handler) calls request(); the analysis observes it at governor
/// checkpoints and truncates anytime-style (hard = true additionally stops
/// the thread pool from claiming new work). Reusable across runs via
/// reset(); all operations are lock-free.
class CancelToken {
 public:
  void request(bool hard = false) {
    cancelled_.store(true, std::memory_order_relaxed);
    if (hard) hard_.store(true, std::memory_order_relaxed);
  }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  bool hard() const { return hard_.load(std::memory_order_relaxed); }
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    hard_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> hard_{false};
};

/// Test-only checkpoint observer (StaOptions::governor_hook). `check_index`
/// counts checkpoints of the current run; `work_done` is the engine's
/// waveform-calculation counter (or the transient solver's step counter)
/// at the checkpoint. Both are deterministic across thread counts because
/// every checkpoint site is serial.
class GovernorHook {
 public:
  virtual ~GovernorHook() = default;
  virtual void on_checkpoint(std::uint64_t check_index,
                             std::size_t work_done) = 0;
};

/// Per-run budget enforcement. Not copyable (owns the watchdog thread).
/// Thread-safety: checkpoint() must be called from serial points only (it
/// is not reentrant); exhausted()/abort_flag() may be read from anywhere.
class RunGovernor {
 public:
  explicit RunGovernor(const RunBudget& budget,
                       CancelToken* external = nullptr,
                       GovernorHook* hook = nullptr);
  ~RunGovernor();

  RunGovernor(const RunGovernor&) = delete;
  RunGovernor& operator=(const RunGovernor&) = delete;

  /// (Re)start the run clock and clear the exhaustion state. Idempotent
  /// until finish(): a caller that pre-starts the governor (IncrementalSta
  /// charges its early-activity update against the same deadline) keeps
  /// its epoch when the engine calls start() again.
  void start();
  /// Mark the run finished; the next start() begins a new epoch.
  void finish();

  /// Serial budget check. Records the first exhausted condition and sticks
  /// to it (a run truncates for exactly one reason). Returns the sticky
  /// reason, kNone while within budget. With an unlimited budget and no
  /// external token this is a handful of pure reads.
  BudgetReason checkpoint(std::size_t work_done);

  // Reason/hard reads are acquire to pair with the release stores in
  // exhaust(): the watchdog thread may raise the condition, and a reader
  // (worker observing the abort flag, engine deciding how to truncate)
  // must see the sticky reason and hard bit that were written before it.
  bool exhausted() const {
    return reason_.load(std::memory_order_acquire) != BudgetReason::kNone;
  }
  BudgetReason reason() const {
    return reason_.load(std::memory_order_acquire);
  }
  /// True when the exhausted condition is hard (hard RSS cap or hard
  /// cancel): the run must abort rather than return an anytime result.
  bool hard_exhausted() const {
    return hard_.load(std::memory_order_acquire);
  }
  /// Raised on hard conditions; the thread pool polls it with acquire
  /// ordering between work items (both dispatch modes) so an aborting run
  /// stops claiming work mid-level and sees the reason/hard stores that
  /// preceded the flag.
  const std::atomic<bool>& abort_flag() const { return abort_; }

  /// Checkpoints seen this run. Readable from any thread (tests, metrics
  /// snapshots) while checkpoints are still being taken; the count itself
  /// only ever advances from serial checkpoint sites, so it is bitwise
  /// thread-count invariant.
  std::uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }
  double elapsed_seconds() const;
  const RunBudget& budget() const { return budget_; }

  /// Current resident set size [bytes] from /proc/self/statm; 0 when the
  /// platform does not expose it (memory caps are then inert).
  static std::size_t current_rss_bytes();

 private:
  void exhaust(BudgetReason reason, bool hard);
  void watchdog_main();

  RunBudget budget_;
  CancelToken* external_;  ///< borrowed; may be null
  GovernorHook* hook_;     ///< borrowed; may be null (test-only)
  std::chrono::steady_clock::time_point t0_;
  bool started_ = false;
  // Relaxed atomic: bumped only at serial checkpoints, but read concurrently
  // by result aggregation and watchdog-adjacent observers — a plain integer
  // here is a data race under TSan even though the value could not tear.
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<BudgetReason> reason_{BudgetReason::kNone};
  std::atomic<bool> hard_{false};
  std::atomic<bool> abort_{false};

  // Watchdog (only spawned when a hard condition can fire asynchronously:
  // hard memory cap or an external token that may request hard cancel).
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
};

}  // namespace xtalk::util
