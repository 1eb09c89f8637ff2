// Run governance: deadlines, memory budgets, cooperative cancellation and
// the *anytime* contract. A truncated run must (a) be bitwise identical at
// any thread count — the governor only decides at serial checkpoints —,
// (b) never report an endpoint arrival below the fully-converged arrival
// of the same mode, and (c) list every endpoint it could not time instead
// of carrying stale numbers. An unlimited budget must change nothing.
#include "util/run_governor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sim/transient.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "util/diag.hpp"

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
  EXPECT_TRUE(truncated.budget.conservative);
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
  EXPECT_FALSE(gov.hard_exhausted());
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

TEST(RunGovernor, HardCancelRaisesAbortFlag) {
  util::CancelToken token;
  util::RunGovernor gov(util::RunBudget{}, &token);
  gov.start();
  EXPECT_EQ(gov.checkpoint(0), util::BudgetReason::kNone);
  token.request(/*hard=*/true);
  EXPECT_EQ(gov.checkpoint(0), util::BudgetReason::kCancelled);
  EXPECT_TRUE(gov.hard_exhausted());
  EXPECT_TRUE(gov.abort_flag().load());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(RunGovernor, ReasonAndPolicyNamesAreStable) {
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kDeadline),
               "deadline");
  EXPECT_STREQ(util::budget_reason_name(util::BudgetReason::kWaveformCalcs),
               "waveform-calcs");
  EXPECT_STREQ(util::budget_policy_name(util::BudgetPolicy::kAnytime),
               "anytime");
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
  opt.budget.deadline_ms = 0.0;
  opt.budget.soft_memory_bytes = 2048;
  opt.budget.hard_memory_bytes = 1024;
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
// Deadline: a hook burns wall-clock time at a fixed checkpoint, so the
// deadline fires at the same serial point regardless of thread count.
// ---------------------------------------------------------------------------

class BurnHook : public util::GovernorHook {
 public:
  explicit BurnHook(std::uint64_t fire_at) : fire_at_(fire_at) {}
  void on_checkpoint(std::uint64_t check_index, std::size_t) override {
    if (check_index == fire_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  }

 private:
  std::uint64_t fire_at_;
};

TEST(GovernedSta, DeadlineTruncationIsDeterministicAcrossThreadCounts) {
  std::vector<StaResult> results;
  for (const int threads : {1, 4}) {
    StaOptions opt = governed_options(AnalysisMode::kOneStep, threads);
    opt.budget.deadline_ms = 400.0;
    BurnHook hook(/*fire_at=*/3);
    opt.governor_hook = &hook;
    results.push_back(governed_design().run(opt));
    const StaResult& r = results.back();
    EXPECT_TRUE(r.budget.exhausted);
    EXPECT_EQ(r.budget.reason, util::BudgetReason::kDeadline);
    EXPECT_LT(r.budget.completed_levels, r.budget.total_levels);
  }
  expect_identical(results[0], results[1]);
  const StaResult full =
      governed_design().run(governed_options(AnalysisMode::kOneStep, 1));
  expect_conservative(results[0], full);
}

// ---------------------------------------------------------------------------
// Policy and cancellation semantics
// ---------------------------------------------------------------------------

TEST(GovernedSta, StrictPolicyThrowsInsteadOfTruncating) {
  StaOptions opt = governed_options(AnalysisMode::kOneStep, 2);
  opt.budget.max_waveform_calcs = 1;
  opt.budget.policy = util::BudgetPolicy::kStrictBudget;
  try {
    governed_design().run(opt);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kBudgetExhausted);
    EXPECT_EQ(e.diagnostic().severity, util::Severity::kError);
  }
}

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

// Arms a one-shot timer at a fixed serial checkpoint that requests a hard
// cancel from another thread a few milliseconds later — while worker
// threads are busy inside a dispatch. The governor's watchdog (10 ms poll)
// turns it into the abort flag the pool polls between items, so this
// exercises the full hard-abort publication chain concurrently with
// running workers: CancelToken -> watchdog exhaust() (release stores) ->
// pool abort poll (acquire) -> engine throw. The ThreadSanitizer smoke
// preset (tsan-smoke) runs this under race detection.
class HardCancelTimerHook : public util::GovernorHook {
 public:
  HardCancelTimerHook(util::CancelToken* token, std::uint64_t fire_at)
      : token_(token), fire_at_(fire_at) {}
  ~HardCancelTimerHook() override {
    if (timer_.joinable()) timer_.join();
  }
  void on_checkpoint(std::uint64_t check_index, std::size_t) override {
    if (check_index != fire_at_ || timer_.joinable()) return;
    timer_ = std::thread([token = token_] {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      token->request(/*hard=*/true);
    });
  }

 private:
  util::CancelToken* token_;
  std::uint64_t fire_at_;
  std::thread timer_;
};

TEST(GovernedSta, HardCancelMidDispatchAborts) {
  StaOptions opt = governed_options(AnalysisMode::kIterative, 4);
  util::CancelToken token;
  HardCancelTimerHook hook(&token, /*fire_at=*/2);
  opt.cancel = &token;
  opt.governor_hook = &hook;
  try {
    governed_design().run(opt);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kBudgetExhausted);
    EXPECT_EQ(e.diagnostic().severity, util::Severity::kError);
  }
}

TEST(GovernedSta, HardCancelAlwaysThrows) {
  StaOptions opt = governed_options(AnalysisMode::kOneStep, 2);
  util::CancelToken token;
  token.request(/*hard=*/true);
  opt.cancel = &token;
  try {
    governed_design().run(opt);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kBudgetExhausted);
  }
}

// ---------------------------------------------------------------------------
// Memory budgets (RSS polling; inert where /proc/self/statm is missing)
// ---------------------------------------------------------------------------

TEST(GovernedSta, TinySoftMemoryCapTruncatesAnytimeStyle) {
  if (util::RunGovernor::current_rss_bytes() == 0) {
    GTEST_SKIP() << "platform exposes no RSS; memory caps are inert";
  }
  StaOptions opt = governed_options(AnalysisMode::kOneStep, 2);
  opt.budget.soft_memory_bytes = 1;  // any live process exceeds this
  const StaResult r = governed_design().run(opt);
  EXPECT_TRUE(r.budget.exhausted);
  EXPECT_EQ(r.budget.reason, util::BudgetReason::kSoftMemory);
  EXPECT_EQ(r.budget.completed_levels, 0u);
}

TEST(GovernedSta, TinyHardMemoryCapThrows) {
  if (util::RunGovernor::current_rss_bytes() == 0) {
    GTEST_SKIP() << "platform exposes no RSS; memory caps are inert";
  }
  StaOptions opt = governed_options(AnalysisMode::kOneStep, 2);
  opt.budget.hard_memory_bytes = 1;
  EXPECT_THROW(governed_design().run(opt), util::DiagError);
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

// ---------------------------------------------------------------------------
// Transient solver: the same governor bounds the inner simulator
// ---------------------------------------------------------------------------

sim::Circuit rc_circuit(sim::NodeId* out_node) {
  sim::Circuit ckt;
  const sim::NodeId in = ckt.add_node("in");
  const sim::NodeId out = ckt.add_node("out");
  ckt.add_vsource(in, util::Pwl::step(0.1e-9, 0.0, 1.0, 1e-12));
  ckt.add_resistor(in, out, 1000.0);
  ckt.add_capacitor(out, ckt.ground(), 100e-15);
  *out_node = out;
  return ckt;
}

TEST(GovernedTransient, SoftCancelTruncatesTheSimulation) {
  sim::NodeId out = 0;
  const sim::Circuit ckt = rc_circuit(&out);
  util::CancelToken token;
  token.request();
  util::RunGovernor gov(util::RunBudget{}, &token);
  gov.start();
  util::DiagSink sink;
  sim::TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 0.5e-12;
  opt.governor = &gov;
  opt.sink = &sink;
  const sim::TransientResult r =
      sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt);
  ASSERT_GE(r.num_steps(), 1u);  // the DC point is always recorded
  EXPECT_LT(r.times().back(), opt.tstop / 2);
  std::size_t budget_diags = 0;
  for (const util::Diagnostic& d : sink.snapshot()) {
    if (d.code == util::DiagCode::kBudgetExhausted) ++budget_diags;
  }
  EXPECT_GE(budget_diags, 1u);
}

TEST(GovernedTransient, StrictPolicyThrowsOnExhaustion) {
  sim::NodeId out = 0;
  const sim::Circuit ckt = rc_circuit(&out);
  util::RunBudget budget;
  budget.policy = util::BudgetPolicy::kStrictBudget;
  util::CancelToken token;
  token.request();
  util::RunGovernor gov(budget, &token);
  gov.start();
  sim::TransientOptions opt;
  opt.tstop = 1e-9;
  opt.governor = &gov;
  EXPECT_THROW(sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt),
               util::DiagError);
}

}  // namespace
}  // namespace xtalk::sta
