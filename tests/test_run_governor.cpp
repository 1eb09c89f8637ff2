// Run governance: deadlines, waveform-calc caps, cooperative cancellation
// and the *anytime* contract. A truncated run must (a) be bitwise identical at
// any thread count — the governor only decides at serial checkpoints —,
// (b) never report an endpoint arrival below the fully-converged arrival
// of the same mode, and (c) list every endpoint it could not time instead
// of carrying stale numbers. An unlimited budget must change nothing.
#include "util/run_governor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/incremental/incremental_sta.hpp"

namespace xtalk::sta {
namespace {

const core::Design& governed_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("gov", 77, 400, 12));
  return d;
}

StaOptions governed_options(AnalysisMode mode, int threads) {
  StaOptions opt;
  opt.mode = mode;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.num_threads = threads;
  return opt;
}

void expect_identical(const StaResult& a, const StaResult& b) {
  // Bitwise equality: truncation decisions happen at serial checkpoints
  // only, so the same budget must cut the same levels at any thread count.
  EXPECT_EQ(a.longest_path_delay, b.longest_path_delay);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.waveform_calculations, b.waveform_calculations);
  EXPECT_EQ(a.critical.net, b.critical.net);
  EXPECT_EQ(a.critical.arrival, b.critical.arrival);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    EXPECT_EQ(a.endpoints[i].net, b.endpoints[i].net);
    EXPECT_EQ(a.endpoints[i].rising, b.endpoints[i].rising);
    EXPECT_EQ(a.endpoints[i].arrival, b.endpoints[i].arrival);
  }
  ASSERT_EQ(a.timing.size(), b.timing.size());
  for (std::size_t n = 0; n < a.timing.size(); ++n) {
    for (const bool rising : {true, false}) {
      const NetEvent& ea = a.timing[n].event(rising);
      const NetEvent& eb = b.timing[n].event(rising);
      ASSERT_EQ(ea.valid, eb.valid) << "net " << n;
      if (!ea.valid) continue;
      EXPECT_EQ(ea.arrival, eb.arrival) << "net " << n;
      EXPECT_EQ(ea.settle_time, eb.settle_time) << "net " << n;
    }
  }
  EXPECT_EQ(a.budget.exhausted, b.budget.exhausted);
  EXPECT_EQ(a.budget.reason, b.budget.reason);
  EXPECT_EQ(a.budget.completed_passes, b.budget.completed_passes);
  EXPECT_EQ(a.budget.completed_levels, b.budget.completed_levels);
  EXPECT_EQ(a.budget.untimed_endpoints, b.budget.untimed_endpoints);
}

using ArrivalMap = std::map<std::pair<netlist::NetId, bool>, double>;

ArrivalMap arrival_map(const StaResult& r) {
  ArrivalMap m;
  for (const EndpointArrival& ep : r.endpoints) {
    m[{ep.net, ep.rising}] = ep.arrival;
  }
  return m;
}

/// The anytime guarantee: every endpoint the truncated run reports is at
/// least as late as the converged run's arrival for the same (net, edge),
/// and endpoints it never reached are explicitly untimed.
void expect_conservative(const StaResult& truncated, const StaResult& full) {
  const ArrivalMap converged = arrival_map(full);
  for (const EndpointArrival& ep : truncated.endpoints) {
    const auto it = converged.find({ep.net, ep.rising});
    ASSERT_NE(it, converged.end()) << "net " << ep.net;
    EXPECT_GE(ep.arrival, it->second) << "net " << ep.net;
  }
  const std::set<netlist::NetId> untimed(
      truncated.budget.untimed_endpoints.begin(),
      truncated.budget.untimed_endpoints.end());
  std::set<netlist::NetId> timed;
  for (const EndpointArrival& ep : truncated.endpoints) timed.insert(ep.net);
  for (const netlist::NetId net : untimed) {
    EXPECT_EQ(timed.count(net), 0u) << "net " << net << " both timed and untimed";
  }
  // Every endpoint of the full run is accounted for: timed or untimed.
  for (const EndpointArrival& ep : full.endpoints) {
    EXPECT_TRUE(timed.count(ep.net) == 1 || untimed.count(ep.net) == 1)
        << "net " << ep.net << " vanished from the truncated result";
  }
}

// ---------------------------------------------------------------------------
// RunGovernor unit behaviour
// ---------------------------------------------------------------------------

TEST(RunGovernor, UnlimitedBudgetNeverExhausts) {
  util::RunBudget budget;
  EXPECT_TRUE(budget.unlimited());
  util::RunGovernor gov(budget);
  gov.start();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gov.checkpoint(1u << 20), util::BudgetReason::kNone);
  }
  EXPECT_FALSE(gov.exhausted());
  EXPECT_EQ(gov.checks(), 100u);
}

TEST(RunGovernor, CalcCapIsStickyFirstReasonWins) {
  util::RunBudget budget;
  budget.max_waveform_calcs = 10;
  util::CancelToken token;
  util::RunGovernor gov(budget, &token);
  gov.start();
  EXPECT_EQ(gov.checkpoint(9), util::BudgetReason::kNone);
  EXPECT_EQ(gov.checkpoint(10), util::BudgetReason::kWaveformCalcs);
  // A later condition must not rewrite the recorded reason.
  token.request();
  EXPECT_EQ(gov.checkpoint(10), util::BudgetReason::kWaveformCalcs);
  EXPECT_EQ(gov.reason(), util::BudgetReason::kWaveformCalcs);
}

TEST(RunGovernor, StartIsIdempotentUntilFinish) {
  util::RunBudget budget;
  budget.max_waveform_calcs = 1;
  util::RunGovernor gov(budget);
  gov.start();
  gov.checkpoint(5);
  EXPECT_TRUE(gov.exhausted());
  gov.start();  // same epoch: exhaustion must stick
  EXPECT_TRUE(gov.exhausted());
  gov.finish();
  gov.start();  // new epoch: state cleared
  EXPECT_FALSE(gov.exhausted());
  EXPECT_EQ(gov.checks(), 0u);
}

TEST(RunGovernor, DeadlineFiresOnceTheClockPassesIt) {
  util::RunBudget budget;
  budget.deadline_ms = 1.0;
  util::RunGovernor gov(budget);
  gov.start();
  // Wait on the governor's own clock (a condition, not a sleep).
  while (gov.elapsed_seconds() * 1e3 < budget.deadline_ms) {
  }
  EXPECT_EQ(gov.checkpoint(0), util::BudgetReason::kDeadline);
  EXPECT_EQ(gov.checkpoint(0), util::BudgetReason::kDeadline);
  EXPECT_EQ(gov.checks(), 2u);
}

TEST(RunGovernor, ReasonNamesAreStable) {
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kNone), "none");
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kDeadline),
               "deadline");
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kWaveformCalcs),
               "waveform-calcs");
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kCancelled),
               "cancelled");
}

// ---------------------------------------------------------------------------
// Engine integration: unlimited budgets change nothing
// ---------------------------------------------------------------------------

TEST(GovernedSta, UnlimitedBudgetIsBitwiseIdenticalToUngoverned) {
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    const StaResult plain = governed_design().run(governed_options(mode, 1));
    StaOptions opt = governed_options(mode, 4);
    util::CancelToken token;  // present but never requested
    opt.cancel = &token;
    const StaResult governed = governed_design().run(opt);
    expect_identical(plain, governed);
    EXPECT_FALSE(governed.budget.exhausted);
    EXPECT_EQ(governed.budget.reason, util::BudgetReason::kNone);
    EXPECT_EQ(governed.budget.completed_passes, governed.passes);
    EXPECT_EQ(governed.budget.completed_levels, governed.budget.total_levels);
    EXPECT_GT(governed.budget.governor_checks, 0u);
    EXPECT_TRUE(governed.budget.untimed_endpoints.empty());
  }
}

TEST(GovernedSta, InvalidBudgetsAreRejected) {
  StaOptions opt = governed_options(AnalysisMode::kOneStep, 1);
  opt.budget.deadline_ms = -1.0;
  EXPECT_THROW(governed_design().run(opt), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Anytime truncation: calc budget (count-based, so exactly reproducible)
// ---------------------------------------------------------------------------

TEST(GovernedSta, CalcBudgetTruncationIsConservativeAndThreadInvariant) {
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    const StaResult full = governed_design().run(governed_options(mode, 1));
    ASSERT_GT(full.waveform_calculations, 10u);

    StaOptions capped1 = governed_options(mode, 1);
    capped1.budget.max_waveform_calcs = full.waveform_calculations / 3;
    const StaResult t1 = governed_design().run(capped1);

    StaOptions capped4 = governed_options(mode, 4);
    capped4.budget.max_waveform_calcs = full.waveform_calculations / 3;
    const StaResult t4 = governed_design().run(capped4);

    EXPECT_TRUE(t1.budget.exhausted);
    EXPECT_EQ(t1.budget.reason, util::BudgetReason::kWaveformCalcs);
    EXPECT_LT(t1.waveform_calculations, full.waveform_calculations);
    expect_identical(t1, t4);
    expect_conservative(t1, full);
  }
}

TEST(GovernedSta, SweepingTheCalcBudgetStaysConservative) {
  // Property sweep: every truncation point along the budget axis must obey
  // the anytime contract against the converged iterative run.
  const StaResult full =
      governed_design().run(governed_options(AnalysisMode::kIterative, 1));
  for (const std::size_t denom : {8u, 4u, 2u}) {
    StaOptions opt = governed_options(AnalysisMode::kIterative, 2);
    opt.budget.max_waveform_calcs = full.waveform_calculations / denom;
    const StaResult truncated = governed_design().run(opt);
    EXPECT_TRUE(truncated.budget.exhausted) << "denom " << denom;
    expect_conservative(truncated, full);
  }
}

// ---------------------------------------------------------------------------
// Deadline: one already past at the first checkpoint truncates before any
// level runs, at every thread count. Truncation at a later level goes
// through the same checkpoint and is covered by the calc-cap tests above.
// ---------------------------------------------------------------------------

TEST(GovernedSta, DeadlineTruncationIsDeterministicAcrossThreadCounts) {
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    std::vector<StaResult> results;
    for (const int threads : {1, 4}) {
      StaOptions opt = governed_options(mode, threads);
      // Any elapsed time at all exceeds the smallest positive deadline.
      opt.budget.deadline_ms = std::numeric_limits<double>::min();
      results.push_back(governed_design().run(opt));
      const StaResult& r = results.back();
      EXPECT_TRUE(r.budget.exhausted);
      EXPECT_EQ(r.budget.reason, util::BudgetReason::kDeadline);
      EXPECT_EQ(r.budget.completed_passes, 0);
      EXPECT_EQ(r.budget.completed_levels, 0u);
      EXPECT_EQ(r.waveform_calculations, 0u);
      EXPECT_TRUE(r.endpoints.empty());
      EXPECT_FALSE(r.budget.untimed_endpoints.empty());
    }
    expect_identical(results[0], results[1]);
    const StaResult full = governed_design().run(governed_options(mode, 1));
    expect_conservative(results[0], full);
  }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(GovernedSta, SoftCancelReturnsEmptyAnytimeResult) {
  StaOptions opt = governed_options(AnalysisMode::kIterative, 2);
  util::CancelToken token;
  token.request();  // cancelled before the run even starts
  opt.cancel = &token;
  const StaResult r = governed_design().run(opt);
  EXPECT_TRUE(r.budget.exhausted);
  EXPECT_EQ(r.budget.reason, util::BudgetReason::kCancelled);
  EXPECT_EQ(r.budget.completed_passes, 0);
  EXPECT_EQ(r.budget.completed_levels, 0u);
  EXPECT_TRUE(r.endpoints.empty());
  EXPECT_FALSE(r.budget.untimed_endpoints.empty());
  // Untimed is the honest answer: no stale arrivals survive on the gate
  // outputs (primary-input nets keep their seeded ramp events).
  for (const netlist::NetId net : r.budget.untimed_endpoints) {
    EXPECT_FALSE(r.timing[net].event(true).valid) << "net " << net;
    EXPECT_FALSE(r.timing[net].event(false).valid) << "net " << net;
  }
}

// ---------------------------------------------------------------------------
// Incremental STA: truncated runs match scratch and never seed the cache
// ---------------------------------------------------------------------------

TEST(GovernedSta, IncrementalTruncationMatchesScratchAndDropsBaseline) {
  const StaResult full =
      governed_design().run(governed_options(AnalysisMode::kIterative, 2));
  StaOptions opt = governed_options(AnalysisMode::kIterative, 2);
  opt.budget.max_waveform_calcs = full.waveform_calculations / 2;

  const StaResult scratch = governed_design().run(opt);
  ASSERT_TRUE(scratch.budget.exhausted);

  incremental::DesignEditor editor = governed_design().make_editor();
  incremental::IncrementalSta inc(editor, opt);
  const StaResult first = inc.run();
  expect_identical(scratch, first);
  expect_conservative(first, full);

  // A truncated run must not become the reuse baseline: the next run (no
  // edits) is again a full run producing the same truncated numbers, not a
  // replay of the partial pass.
  const StaResult second = inc.run();
  EXPECT_TRUE(inc.stats().full_run);
  EXPECT_EQ(second.gates_reused, 0u);
  expect_identical(first, second);
}

}  // namespace
}  // namespace xtalk::sta
