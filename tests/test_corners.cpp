// Process corners: a corner is a sta::Scenario field, derived by
// Technology::scaled and built by ScenarioContext. The reference test below
// rebuilds the earlier dedicated corner path by hand (shifted Technology,
// its own DeviceTableSet, a plain run_sta) and pins run_scenarios to it
// bitwise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "device/device_table.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "sta/scenario.hpp"

namespace xtalk::device {
namespace {

Technology corner_tech(ProcessCorner c) {
  const Technology& base = Technology::half_micron();
  return base.scaled(c, 1.0, base.temperature_c);
}

sta::Scenario corner_scenario(ProcessCorner c) {
  sta::Scenario s;
  s.name = corner_name(c);
  s.process = c;
  return s;
}

const std::vector<ProcessCorner>& all_corners() {
  static const std::vector<ProcessCorner> corners = {
      ProcessCorner::kSlow, ProcessCorner::kTypical, ProcessCorner::kFast};
  return corners;
}

/// Longest-path delay of `mode` at every corner of all_corners(), in order.
std::vector<double> corner_delays(const core::Design& d,
                                  sta::AnalysisMode mode) {
  std::vector<sta::Scenario> scenarios;
  for (const ProcessCorner c : all_corners()) {
    scenarios.push_back(corner_scenario(c));
  }
  sta::StaOptions opt;
  opt.mode = mode;
  std::vector<double> delays;
  for (const sta::ScenarioRun& run : d.run_scenarios(opt, scenarios).runs) {
    delays.push_back(run.result.longest_path_delay);
  }
  return delays;
}

void expect_same_technology(const Technology& a, const Technology& b) {
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.vth_n, b.vth_n);
  EXPECT_EQ(a.vth_p, b.vth_p);
  EXPECT_EQ(a.model_vth, b.model_vth);
  EXPECT_EQ(a.temperature_c, b.temperature_c);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta_n, b.beta_n);
  EXPECT_EQ(a.beta_p, b.beta_p);
  EXPECT_EQ(a.vd0_n, b.vd0_n);
  EXPECT_EQ(a.vd0_p, b.vd0_p);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.subthreshold_s, b.subthreshold_s);
  EXPECT_EQ(a.l_min, b.l_min);
  EXPECT_EQ(a.cox_area, b.cox_area);
  EXPECT_EQ(a.c_overlap, b.c_overlap);
  EXPECT_EQ(a.c_junction, b.c_junction);
  EXPECT_EQ(a.miller_gate_factor, b.miller_gate_factor);
  EXPECT_EQ(a.wire_r, b.wire_r);
  EXPECT_EQ(a.wire_c_ground, b.wire_c_ground);
  EXPECT_EQ(a.wire_c_couple, b.wire_c_couple);
  EXPECT_EQ(a.wire_pitch, b.wire_pitch);
  EXPECT_EQ(a.coupling_max_tracks, b.coupling_max_tracks);
  EXPECT_EQ(a.table_points, b.table_points);
}

TEST(Corners, TechnologyShifts) {
  const Technology slow = corner_tech(ProcessCorner::kSlow);
  const Technology typ = corner_tech(ProcessCorner::kTypical);
  const Technology fast = corner_tech(ProcessCorner::kFast);
  EXPECT_LT(slow.beta_n, typ.beta_n);
  EXPECT_GT(fast.beta_n, typ.beta_n);
  EXPECT_GT(slow.vth_n, typ.vth_n);
  EXPECT_LT(fast.vth_n, typ.vth_n);
  // Interconnect rules identical: one extraction serves all corners.
  EXPECT_DOUBLE_EQ(slow.wire_r, typ.wire_r);
  EXPECT_DOUBLE_EQ(fast.wire_c_couple, typ.wire_c_couple);
  // The typical corner at nominal V/T is the default technology, field by
  // field.
  expect_same_technology(typ, Technology::half_micron());
}

TEST(Corners, DeviceCurrentsOrdered) {
  const Technology slow = corner_tech(ProcessCorner::kSlow);
  const Technology fast = corner_tech(ProcessCorner::kFast);
  for (double vds : {1.0, 3.3}) {
    const double is = unit_current(slow, MosType::kNmos, 3.3, vds);
    const double it = unit_current(Technology::half_micron(), MosType::kNmos,
                                   3.3, vds);
    const double ifa = unit_current(fast, MosType::kNmos, 3.3, vds);
    EXPECT_LT(is, it);
    EXPECT_LT(it, ifa);
  }
}

TEST(Corners, StaDelaysOrdered) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  const std::vector<double> one_step =
      corner_delays(d, sta::AnalysisMode::kOneStep);
  const double slow = one_step[0], typ = one_step[1], fast = one_step[2];
  EXPECT_GT(slow, typ);
  EXPECT_GT(typ, fast);
  // Corner spread is meaningful but bounded.
  EXPECT_LT(slow, typ * 2.0);
  EXPECT_GT(fast, typ * 0.5);
}

TEST(Corners, TypicalCornerMatchesDefaultRun) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  const double a = corner_delays(d, sta::AnalysisMode::kBestCase)[1];
  const double b = d.run(sta::AnalysisMode::kBestCase).longest_path_delay;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Corners, ModeOrderingHoldsAtEveryCorner) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  const std::vector<double> best =
      corner_delays(d, sta::AnalysisMode::kBestCase);
  const std::vector<double> one =
      corner_delays(d, sta::AnalysisMode::kOneStep);
  const std::vector<double> worst =
      corner_delays(d, sta::AnalysisMode::kWorstCase);
  for (std::size_t i = 0; i < all_corners().size(); ++i) {
    EXPECT_LE(best[i], one[i] + 1e-13) << corner_name(all_corners()[i]);
    EXPECT_LE(one[i], worst[i] + 1e-13) << corner_name(all_corners()[i]);
  }
}

/// The dedicated corner path the Scenario field replaced, rebuilt by hand:
/// the default technology with the process shift written out, a table set
/// built from it, and a plain run_sta with those tables. The typical corner
/// ran on the design's own (default) tables.
TEST(Corners, ScenarioPathBitwiseEqualsHandBuiltCornerTables) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  Technology slow;  // the default 0.5 um values
  slow.beta_n *= 0.75;
  slow.beta_p *= 0.75;
  slow.vth_n += 0.06;
  slow.vth_p += 0.06;
  Technology fast;
  fast.beta_n *= 1.25;
  fast.beta_p *= 1.25;
  fast.vth_n -= 0.06;
  fast.vth_p -= 0.06;
  const DeviceTableSet slow_tables(slow);
  const DeviceTableSet fast_tables(fast);
  const DeviceTableSet* tables[] = {&slow_tables, &d.tables(), &fast_tables};

  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kBestCase, sta::AnalysisMode::kOneStep,
        sta::AnalysisMode::kWorstCase}) {
    std::vector<sta::Scenario> scenarios;
    for (const ProcessCorner c : all_corners()) {
      scenarios.push_back(corner_scenario(c));
    }
    sta::StaOptions opt;
    opt.mode = mode;
    const sta::McmmResult m = d.run_scenarios(opt, scenarios);
    ASSERT_EQ(m.runs.size(), 3u);
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
      SCOPED_TRACE(std::string(sta::mode_name(mode)) + " at " +
                   corner_name(all_corners()[i]));
      sta::DesignView v = d.view();
      v.tables = tables[i];
      const sta::StaResult ref = sta::run_sta(v, opt);
      const sta::StaResult& got = m.runs[i].result;
      EXPECT_EQ(got.longest_path_delay, ref.longest_path_delay);
      EXPECT_EQ(got.waveform_calculations, ref.waveform_calculations);
      ASSERT_EQ(got.endpoints.size(), ref.endpoints.size());
      for (std::size_t e = 0; e < ref.endpoints.size(); ++e) {
        EXPECT_EQ(got.endpoints[e].arrival, ref.endpoints[e].arrival);
      }
      ASSERT_EQ(got.timing.size(), ref.timing.size());
      for (std::size_t n = 0; n < ref.timing.size(); ++n) {
        EXPECT_TRUE(sta::net_timing_identical(got.timing[n], ref.timing[n]))
            << "net " << n;
      }
    }
  }
}

}  // namespace
}  // namespace xtalk::device
