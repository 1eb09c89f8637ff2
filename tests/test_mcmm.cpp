// MCMM property suite (the ISSUE 10 determinism contract): every scenario
// of a multi-corner/multi-scenario invocation must be bitwise identical to
// a standalone single-scenario run with the same effective options — for
// any thread count — because the cross-scenario sharing (netlist,
// parasitics, levelization, worker pool, per-corner device tables and NLDM
// characterization) only removes redundant construction, never changes a
// computed value. Corners span both axes: process (slow/fast) and V/T.
//
// Also covered here: the merged worst-scenario slack report (elementwise
// minimum over per-scenario slacks), governor-truncated multi-scenario
// runs staying conservative per scenario, scenario validation, and the
// device-table seam of the corner axis (grid vmax, the kTableRange
// warning, per-corner regridding).
#include "sta/mcmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "device/device_table.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/report.hpp"
#include "sta/scenario.hpp"
#include "util/diag.hpp"

namespace xtalk::sta {
namespace {

const core::Design& mcmm_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("mcmm", 77, 350, 12));
  return d;
}

/// Two V/T corners, one of them analyzed twice (plain + derated), a
/// mode-override scenario, a process corner at nominal V/T, and a process
/// corner on the fast V/T point with a coupling derate (a distinct corner
/// from "fast": the process is part of CornerKey) — every axis of the
/// Scenario struct exercised.
std::vector<Scenario> corner_set() {
  std::vector<Scenario> s(6);
  s[0].name = "nominal";
  s[1].name = "fast";
  s[1].vdd_scale = 1.1;
  s[1].temperature_c = -40.0;
  s[2].name = "fast_derated";
  s[2].vdd_scale = 1.1;
  s[2].temperature_c = -40.0;
  s[2].coupling_derate = 1.2;
  s[3].name = "slow_doubled";
  s[3].vdd_scale = 0.9;
  s[3].temperature_c = 125.0;
  s[3].override_mode = true;
  s[3].mode = AnalysisMode::kStaticDoubled;
  s[4].name = "process_slow";
  s[4].process = device::ProcessCorner::kSlow;
  s[5].name = "process_fast_derated";
  s[5].process = device::ProcessCorner::kFast;
  s[5].vdd_scale = 1.1;
  s[5].temperature_c = -40.0;
  s[5].coupling_derate = 1.2;
  return s;
}

StaOptions base_options(int threads = 1) {
  StaOptions opt;
  opt.mode = AnalysisMode::kOneStep;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.num_threads = threads;
  return opt;
}

/// What N separate invocations would each pay: fresh corner context +
/// unshared engine run with the scenario's effective options.
StaResult standalone(const StaOptions& base, const Scenario& s) {
  const DesignView view = mcmm_design().view();
  const auto ctx = ScenarioContext::make(
      view, s, base.delay_model == DelayModel::kNldm);
  return run_sta(ctx->view(view), apply_scenario(base, s));
}

/// Bitwise equality of results: arrivals, waveforms, endpoints, scalars.
void expect_identical(const StaResult& a, const StaResult& b) {
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
    EXPECT_TRUE(net_timing_identical(a.timing[n], b.timing[n])) << "net " << n;
  }
}

// ---------------------------------------------------------------------------
// Bitwise equivalence to standalone runs
// ---------------------------------------------------------------------------

TEST(Mcmm, ScenariosBitwiseEqualStandaloneAcrossThreads) {
  // The standalone reference per scenario is computed once (serial):
  // complete runs are bitwise invariant across thread counts, so every
  // MCMM run must match it at every width.
  const std::vector<Scenario> scenarios = corner_set();
  std::vector<StaResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(standalone(base_options(), s));
  }
  // The corners genuinely differ — sharing must not blur them.
  EXPECT_NE(reference[0].longest_path_delay, reference[1].longest_path_delay);
  EXPECT_NE(reference[1].longest_path_delay, reference[2].longest_path_delay);
  EXPECT_NE(reference[0].longest_path_delay, reference[4].longest_path_delay);
  EXPECT_NE(reference[2].longest_path_delay, reference[5].longest_path_delay);

  for (const int threads : {1, 2, 4}) {
    const McmmResult m =
        run_mcmm(mcmm_design().view(), base_options(threads), scenarios);
    ASSERT_EQ(m.runs.size(), scenarios.size());
    // nominal, fast, slow, process_slow, process_fast_derated
    EXPECT_EQ(m.unique_corners, 5u);
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
      SCOPED_TRACE(scenarios[i].name + " threads " + std::to_string(threads));
      expect_identical(m.runs[i].result, reference[i]);
    }
  }
}

TEST(Mcmm, EmptyScenarioListRunsImplicitNominalBitwiseEqualToPlainRun) {
  const StaOptions opt = base_options();
  const StaResult plain = run_sta(mcmm_design().view(), opt);
  const McmmResult m = run_mcmm(mcmm_design().view(), opt, {});
  ASSERT_EQ(m.runs.size(), 1u);
  EXPECT_EQ(m.runs[0].scenario.name, "nominal");
  EXPECT_FALSE(m.runs[0].shared_corner);
  expect_identical(m.runs[0].result, plain);
}

TEST(Mcmm, SameCornerScenariosShareOneContext) {
  const McmmResult m =
      run_mcmm(mcmm_design().view(), base_options(), corner_set());
  ASSERT_EQ(m.runs.size(), 6u);
  EXPECT_EQ(m.unique_corners, 5u);
  // fast_derated rides on fast's corner: no second table build.
  EXPECT_FALSE(m.runs[1].shared_corner);
  EXPECT_TRUE(m.runs[2].shared_corner);
  EXPECT_EQ(m.runs[2].prep_seconds, 0.0);
  EXPECT_FALSE(m.runs[3].shared_corner);
  // A process corner is its own corner, also on fast's V/T bits.
  EXPECT_FALSE(m.runs[4].shared_corner);
  EXPECT_FALSE(m.runs[5].shared_corner);
}

TEST(Mcmm, NldmCornersRecharacterizeAndStayBitwise) {
  // The NLDM model is characterized against the corner's regridded tables;
  // sharing the characterization between same-corner scenarios must keep
  // every result bitwise its standalone run.
  const core::Design d =
      core::Design::generate(netlist::scaled_spec("mcmm-nldm", 78, 120, 8));
  StaOptions opt;
  opt.mode = AnalysisMode::kOneStep;
  opt.delay_model = DelayModel::kNldm;
  opt.num_threads = 1;
  std::vector<Scenario> scenarios(3);
  scenarios[0].name = "nominal";
  scenarios[1].name = "fast";
  scenarios[1].vdd_scale = 1.1;
  scenarios[1].temperature_c = -40.0;
  scenarios[2].name = "fast_derated";
  scenarios[2].vdd_scale = 1.1;
  scenarios[2].temperature_c = -40.0;
  scenarios[2].coupling_derate = 1.25;

  const McmmResult m = run_mcmm(d.view(), opt, scenarios);
  ASSERT_EQ(m.runs.size(), 3u);
  EXPECT_EQ(m.unique_corners, 2u);
  EXPECT_TRUE(m.runs[2].shared_corner);
  for (std::size_t i = 0; i < m.runs.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    const auto ctx =
        ScenarioContext::make(d.view(), scenarios[i], /*need_nldm=*/true);
    const StaResult ref =
        run_sta(ctx->view(d.view()), apply_scenario(opt, scenarios[i]));
    EXPECT_EQ(m.runs[i].result.longest_path_delay, ref.longest_path_delay);
    ASSERT_EQ(m.runs[i].result.timing.size(), ref.timing.size());
    for (std::size_t n = 0; n < ref.timing.size(); ++n) {
      EXPECT_TRUE(
          net_timing_identical(m.runs[i].result.timing[n], ref.timing[n]))
          << "net " << n;
    }
  }
  // A supply shift must actually move the answer — the corner axis is not
  // cosmetic.
  EXPECT_NE(m.runs[0].result.longest_path_delay,
            m.runs[1].result.longest_path_delay);
}

// ---------------------------------------------------------------------------
// Merged worst-scenario slack report
// ---------------------------------------------------------------------------

TEST(Mcmm, WorstSlackIsElementwiseMinOverScenarios) {
  const McmmResult m =
      run_mcmm(mcmm_design().view(), base_options(), corner_set());

  double worst_delay = 0.0;
  for (const ScenarioRun& run : m.runs) {
    worst_delay = std::max(worst_delay, run.result.longest_path_delay);
  }
  const double required = 1.05 * worst_delay;
  const McmmSlackReport rep = merge_worst_slack(m, required);
  ASSERT_EQ(rep.scenarios.size(), m.runs.size());
  ASSERT_FALSE(rep.endpoints.empty());
  EXPECT_EQ(rep.untimed_pairs, 0u);  // nothing truncated

  // Independent per-scenario arrival maps to verify against.
  std::vector<std::map<std::pair<netlist::NetId, bool>, double>> arrivals(
      m.runs.size());
  for (std::size_t si = 0; si < m.runs.size(); ++si) {
    for (const EndpointArrival& e : m.runs[si].result.endpoints) {
      arrivals[si][{e.net, e.rising}] = e.arrival;
    }
  }

  for (const McmmEndpointSlack& ep : rep.endpoints) {
    ASSERT_EQ(ep.slack.size(), m.runs.size());
    double expect_min = std::numeric_limits<double>::infinity();
    std::size_t expect_owner = 0;
    for (std::size_t si = 0; si < m.runs.size(); ++si) {
      const auto it = arrivals[si].find({ep.net, ep.rising});
      ASSERT_NE(it, arrivals[si].end());  // complete runs time every endpoint
      const double slack = required - it->second;
      EXPECT_EQ(ep.slack[si], slack);
      if (slack < expect_min) {
        expect_min = slack;
        expect_owner = si;
      }
    }
    EXPECT_EQ(ep.worst_slack, expect_min);
    EXPECT_EQ(ep.worst_scenario, expect_owner);
  }

  // Most-critical-first, ties on (net, edge): a pure function of the data.
  for (std::size_t i = 1; i < rep.endpoints.size(); ++i) {
    const McmmEndpointSlack& a = rep.endpoints[i - 1];
    const McmmEndpointSlack& b = rep.endpoints[i];
    EXPECT_TRUE(a.worst_slack < b.worst_slack ||
                (a.worst_slack == b.worst_slack &&
                 (a.net < b.net || (a.net == b.net && a.rising < b.rising))));
  }

  // The human-readable table renders without throwing and names the
  // scenario set.
  const std::string text = format_mcmm_slack(rep, 5);
  EXPECT_NE(text.find("worst slack over 6 scenario(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Governor truncation stays conservative per scenario
// ---------------------------------------------------------------------------

TEST(Mcmm, GovernorTruncatedScenariosRemainConservativePerScenario) {
  StaOptions opt = base_options();
  opt.budget.max_waveform_calcs = 300;  // cuts the 350-gate design mid-run
  const McmmResult m = run_mcmm(mcmm_design().view(), opt, corner_set());
  ASSERT_EQ(m.runs.size(), 6u);

  for (std::size_t i = 0; i < m.runs.size(); ++i) {
    SCOPED_TRACE(m.runs[i].scenario.name);
    const StaResult& truncated = m.runs[i].result;
    const StaResult full = standalone(base_options(), m.runs[i].scenario);
    // Every reported arrival is at least the converged arrival (anytime
    // contract), independently per scenario.
    std::map<std::pair<netlist::NetId, bool>, double> converged;
    for (const EndpointArrival& e : full.endpoints) {
      converged[{e.net, e.rising}] = e.arrival;
    }
    for (const EndpointArrival& e : truncated.endpoints) {
      const auto it = converged.find({e.net, e.rising});
      ASSERT_NE(it, converged.end());
      EXPECT_GE(e.arrival, it->second) << "net " << e.net;
    }
    // Every endpoint the truncation cut off carries no arrival.
    for (const netlist::NetId net : truncated.budget.untimed_endpoints) {
      for (const EndpointArrival& e : truncated.endpoints) {
        EXPECT_NE(e.net, net) << "untimed net " << net << " has an arrival";
      }
    }
  }
  // The tiny budget actually bites at least one scenario — otherwise this
  // test proves nothing.
  bool any_exhausted = false;
  for (const ScenarioRun& run : m.runs) {
    any_exhausted |= run.result.budget.exhausted;
  }
  EXPECT_TRUE(any_exhausted);

  // Truncation surfaces as NaN (untimed), never as a fabricated slack.
  const McmmSlackReport rep = merge_worst_slack(m, 1e-8);
  std::size_t nan_slacks = 0;
  for (const McmmEndpointSlack& ep : rep.endpoints) {
    for (const double s : ep.slack) nan_slacks += std::isnan(s) ? 1 : 0;
  }
  EXPECT_EQ(nan_slacks, rep.untimed_pairs);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(Mcmm, MalformedScenariosThrow) {
  const DesignView view = mcmm_design().view();
  StaOptions opt;
  std::vector<Scenario> scenarios(1);

  scenarios[0] = Scenario{};
  scenarios[0].name.clear();
  EXPECT_THROW(run_mcmm(view, opt, scenarios), std::invalid_argument);

  scenarios[0] = Scenario{};
  scenarios[0].vdd_scale = 0.0;
  EXPECT_THROW(run_mcmm(view, opt, scenarios), std::invalid_argument);

  scenarios[0] = Scenario{};
  scenarios[0].vdd_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_mcmm(view, opt, scenarios), std::invalid_argument);

  scenarios[0] = Scenario{};
  scenarios[0].temperature_c = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_mcmm(view, opt, scenarios), std::invalid_argument);

  scenarios[0] = Scenario{};
  scenarios[0].coupling_derate = -0.5;
  EXPECT_THROW(run_mcmm(view, opt, scenarios), std::invalid_argument);

  StaOptions bad_derate;
  bad_derate.coupling_derate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_sta(view, bad_derate), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Device-table seam: V/T corners and the grid-range warning
// ---------------------------------------------------------------------------

TEST(Mcmm, TechnologyScalingIsIdentityAtNominalAndMovesOtherwise) {
  const device::Technology& base = device::Technology::half_micron();
  const device::Technology same =
      base.scaled(device::ProcessCorner::kTypical, 1.0, base.temperature_c);
  EXPECT_EQ(same.vdd, base.vdd);
  EXPECT_EQ(same.beta_n, base.beta_n);
  EXPECT_EQ(same.beta_p, base.beta_p);
  EXPECT_EQ(same.vth_n, base.vth_n);
  EXPECT_EQ(same.vth_p, base.vth_p);
  EXPECT_EQ(same.temperature_c, base.temperature_c);

  const device::Technology hot =
      base.scaled(device::ProcessCorner::kTypical, 0.9, 125.0);
  EXPECT_EQ(hot.vdd, 0.9 * base.vdd);
  EXPECT_LT(hot.beta_n, base.beta_n);   // mobility ~T^-1.5
  EXPECT_LT(hot.vth_n, base.vth_n);     // -2 mV/K
  const device::Technology cold =
      base.scaled(device::ProcessCorner::kTypical, 1.1, -40.0);
  EXPECT_GT(cold.beta_n, base.beta_n);
  EXPECT_GT(cold.vth_n, base.vth_n);
  // Geometry and model shape are operating-point invariant.
  EXPECT_EQ(hot.alpha, base.alpha);
  EXPECT_EQ(hot.model_vth, base.model_vth);
}

TEST(Mcmm, ScenarioContextRegridsTablesToTheCornerSupply) {
  const DesignView view = mcmm_design().view();
  Scenario fast;
  fast.name = "fast";
  fast.vdd_scale = 1.2;
  fast.temperature_c = -40.0;
  const auto ctx = ScenarioContext::make(view, fast, /*need_nldm=*/false);
  EXPECT_FALSE(ctx->shares_base_tables());
  const double scaled_vdd = view.tables->tech().vdd * 1.2;
  EXPECT_DOUBLE_EQ(ctx->tables().tech().vdd, scaled_vdd);
  // The regridded tables cover the corner's own overshoot headroom, so the
  // engine's kTableRange warning stays silent at every corner.
  EXPECT_DOUBLE_EQ(ctx->tables().nmos().vmax(), 1.25 * scaled_vdd);
  EXPECT_DOUBLE_EQ(ctx->tables().pmos().vmax(), 1.25 * scaled_vdd);

  Scenario nominal;
  const auto id = ScenarioContext::make(view, nominal, /*need_nldm=*/false);
  EXPECT_TRUE(id->shares_base_tables());
  EXPECT_EQ(&id->tables(), view.tables);

  // A process corner at nominal V/T is not the identity corner: it builds
  // its own tables at the base supply.
  Scenario slow;
  slow.name = "process_slow";
  slow.process = device::ProcessCorner::kSlow;
  const auto ps = ScenarioContext::make(view, slow, /*need_nldm=*/false);
  EXPECT_FALSE(ps->shares_base_tables());
  EXPECT_EQ(ps->tables().tech().vdd, view.tables->tech().vdd);
  EXPECT_LT(ps->tables().tech().beta_n, view.tables->tech().beta_n);
}

TEST(Mcmm, SupplyBeyondTableGridEmitsRangeWarning) {
  // Reusing nominal tables at a scaled-up supply erodes the 1.25x
  // overshoot headroom the grid was built with: the engine must say so
  // instead of silently clamping the currents.
  const core::Design& d = mcmm_design();
  device::Technology overgrown = d.tech();
  const device::DeviceTableSet stale(overgrown);  // vmax = 1.25 * nominal
  overgrown.vdd *= 1.3;  // grown past the build supply, tables not rebuilt
  DesignView v = d.view();
  v.tables = &stale;
  const StaResult r = run_sta(v, base_options());
  bool warned = false;
  for (const util::Diagnostic& diag : r.diagnostics.entries) {
    if (diag.code == util::DiagCode::kTableRange) {
      EXPECT_EQ(diag.severity, util::Severity::kWarning);
      warned = true;
    }
  }
  EXPECT_TRUE(warned);

  // Nominal runs (and regridded corners, above) never warn.
  const StaResult clean = run_sta(d.view(), base_options());
  for (const util::Diagnostic& diag : clean.diagnostics.entries) {
    EXPECT_NE(diag.code, util::DiagCode::kTableRange);
  }
}

TEST(Mcmm, DeviceTableClampsSilentlyBeyondVmax) {
  // The behaviour the warning exists for: lookups past the grid edge
  // return the edge value — flat, not extrapolated.
  const device::DeviceTableSet& ts = device::DeviceTableSet::half_micron();
  const double vmax = ts.nmos().vmax();
  EXPECT_DOUBLE_EQ(vmax, 1.25 * ts.tech().vdd);
  const double at_edge = ts.nmos().unit_ids(vmax, 2.0);
  EXPECT_EQ(ts.nmos().unit_ids(vmax + 0.5, 2.0), at_edge);
  EXPECT_EQ(ts.nmos().unit_ids(vmax + 5.0, 2.0), at_edge);
  EXPECT_GT(at_edge, ts.nmos().unit_ids(0.9 * vmax, 2.0));
}

}  // namespace
}  // namespace xtalk::sta
