// Coverage for corner paths not exercised elsewhere: the dense-solver
// fallback of the transient engine, NLDM mode degeneracies, PWL clipping
// edge cases, timing-state accessors, and the clock-skew and
// coupling-impact reports.
#include <gtest/gtest.h>

#include <cmath>

#include "core/crosstalk_sta.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"
#include "sta/report.hpp"
#include "sta/timing_graph.hpp"

namespace xtalk {
namespace {

TEST(DenseFallback, FullyCoupledCapMeshSimulates) {
  // Every node coupled to every other: bandwidth == n, which forces the
  // dense pivoted solver instead of the banded one.
  sim::Circuit ckt;
  const sim::NodeId src = ckt.add_node("src");
  ckt.add_vsource(src, util::Pwl::step(0.1e-9, 0.0, 2.0, 5e-12));
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < 8; ++i) {
    const sim::NodeId n = ckt.add_node("m" + std::to_string(i));
    ckt.add_resistor(i == 0 ? src : nodes.back(), n, 500.0);
    ckt.add_capacitor(n, ckt.ground(), 20e-15);
    nodes.push_back(n);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      ckt.add_capacitor(nodes[i], nodes[j], 2e-15);
    }
  }
  sim::TransientOptions opt;
  opt.tstop = 20e-9;
  opt.dt = 5e-12;
  opt.record_every = 4;
  const auto r =
      sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt);
  for (const sim::NodeId n : nodes) {
    EXPECT_NEAR(r.waveform(n).value_at(opt.tstop), 2.0, 0.02);
  }
}

TEST(NldmMode, WorstCaseDegeneratesToStaticDoubled) {
  // With table lookups, the active model cannot be expressed: the engine
  // folds active caps as doubled, so kWorstCase == kStaticDoubled exactly.
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  sta::StaOptions a;
  a.delay_model = sta::DelayModel::kNldm;
  a.mode = sta::AnalysisMode::kWorstCase;
  sta::StaOptions b = a;
  b.mode = sta::AnalysisMode::kStaticDoubled;
  EXPECT_DOUBLE_EQ(sta::run_sta(d.view(), a).longest_path_delay,
                   sta::run_sta(d.view(), b).longest_path_delay);
}

TEST(NldmMode, OneStepStaysBetweenBestAndDoubled) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  sta::StaOptions opt;
  opt.delay_model = sta::DelayModel::kNldm;
  opt.mode = sta::AnalysisMode::kBestCase;
  const double best = sta::run_sta(d.view(), opt).longest_path_delay;
  opt.mode = sta::AnalysisMode::kOneStep;
  const double one = sta::run_sta(d.view(), opt).longest_path_delay;
  opt.mode = sta::AnalysisMode::kStaticDoubled;
  const double doubled = sta::run_sta(d.view(), opt).longest_path_delay;
  EXPECT_LE(best, one + 1e-13);
  EXPECT_LE(one, doubled + 1e-13);
}

TEST(PwlEdge, ClipBeyondRangeDegenerates) {
  const util::Pwl w = util::Pwl::ramp(0.0, 0.0, 1.0, 1.0);
  const util::Pwl c = w.clipped_from_value(2.0, true);  // never reached
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.front().v, 1.0);
}

TEST(PwlEdge, CrossingOnFlatSegment) {
  util::Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 1.0);
  w.append(3.0, 2.0);
  // Crossing exactly at the plateau value resolves at its first touch.
  EXPECT_NEAR(w.time_at_value(1.0, true), 1.0, 1e-12);
}

TEST(TimingState, QuietTimeOfInvalidEventIsMinusInfinity) {
  sta::NetTiming t;
  EXPECT_TRUE(std::isinf(t.quiet_time(true)));
  EXPECT_LT(t.quiet_time(true), 0.0);
  t.rise.valid = true;
  t.rise.settle_time = 3e-9;
  EXPECT_DOUBLE_EQ(t.quiet_time(true), 3e-9);
  EXPECT_DOUBLE_EQ(t.quiet_time_any(), 3e-9);
}

TEST(TimingState, QuietTimesContainerDefaults) {
  sta::QuietTimes q(4);
  EXPECT_TRUE(std::isinf(q.quiet(2, true)));
  EXPECT_GT(q.quiet(2, false), 0.0);  // +inf: unknown = conservative
}

TEST(Measure, SlewBetweenLevels) {
  const util::Pwl w = util::Pwl::ramp(0.0, 0.0, 1.0, 2.0);
  EXPECT_NEAR(sim::measure_slew(w, 0.5, 1.5, true), 0.5, 1e-12);
}

}  // namespace
}  // namespace xtalk

namespace xtalk::sta {
namespace {

const core::Design& bus() {
  static const core::Design d =
      core::Design::from_bench(netlist::coupled_bus_bench());
  return d;
}

TEST(ClockSkew, BalancedTreeHasBoundedSkew) {
  const core::Design d =
      core::Design::generate(netlist::scaled_spec("skew", 5, 2400, 12));
  const StaResult r = d.run(AnalysisMode::kBestCase);
  const ClockSkewReport rep = compute_clock_skew(r, d.netlist());
  EXPECT_EQ(rep.flip_flops, d.netlist().sequential_gates().size());
  EXPECT_GT(rep.min_insertion, 0.0);
  EXPECT_GE(rep.skew, 0.0);
  // A balanced tree keeps skew well below the insertion delay itself.
  EXPECT_LT(rep.skew, rep.max_insertion);
}

TEST(ClockSkew, NoFlipFlopsGivesZeroReport) {
  const core::Design d = core::Design::from_bench(netlist::c17_bench());
  const StaResult r = d.run(AnalysisMode::kBestCase);
  const ClockSkewReport rep = compute_clock_skew(r, d.netlist());
  EXPECT_EQ(rep.flip_flops, 0u);
  EXPECT_DOUBLE_EQ(rep.skew, 0.0);
}

TEST(CouplingImpactReport, SortedAndNonNegative) {
  const StaResult best = bus().run(AnalysisMode::kBestCase);
  const StaResult worst = bus().run(AnalysisMode::kWorstCase);
  const auto impact = coupling_impact(worst, best);
  ASSERT_FALSE(impact.empty());
  for (std::size_t i = 1; i < impact.size(); ++i) {
    EXPECT_GE(impact[i - 1].delta, impact[i].delta);
  }
  for (const CouplingImpact& ci : impact) {
    EXPECT_GE(ci.delta, -1e-13);
  }
  EXPECT_GT(impact.front().delta, 0.0);
}

}  // namespace
}  // namespace xtalk::sta
