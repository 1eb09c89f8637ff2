#include "sim/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/transistor_netlist.hpp"
#include "netlist/cell_library.hpp"
#include "sim/measure.hpp"

namespace xtalk::sim {
namespace {

const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}
const device::Technology& tech() { return device::Technology::half_micron(); }

TEST(Transient, RcStepMatchesAnalytic) {
  // 1k / 100fF low-pass driven by a fast step: v(t) = V*(1 - e^{-t/RC}).
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add_vsource(in, util::Pwl::step(0.1e-9, 0.0, 1.0, 1e-12));
  ckt.add_resistor(in, out, 1000.0);
  ckt.add_capacitor(out, ckt.ground(), 100e-15);

  TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 0.5e-12;
  const TransientResult r = simulate(ckt, tables(), opt);
  const util::Pwl w = r.waveform(out);
  const double rc = 1000.0 * 100e-15;
  for (double t = 0.15e-9; t < 0.9e-9; t += 0.1e-9) {
    const double expected = 1.0 - std::exp(-(t - 0.1e-9 - 0.5e-12) / rc);
    EXPECT_NEAR(w.value_at(t), expected, 0.02) << t;
  }
}

TEST(Transient, RcDelayAt50Percent) {
  // 50% delay of an RC low-pass to a step is ln(2)*RC.
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add_vsource(in, util::Pwl::step(0.05e-9, 0.0, 1.0, 1e-12));
  ckt.add_resistor(in, out, 2000.0);
  ckt.add_capacitor(out, ckt.ground(), 50e-15);
  TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 0.2e-12;
  const TransientResult r = simulate(ckt, tables(), opt);
  const double t50 = first_crossing(r.waveform(out), 0.5, true);
  EXPECT_NEAR(t50 - 0.05e-9, std::log(2.0) * 2000.0 * 50e-15, 3e-12);
}

TEST(Transient, CapacitiveDividerStep) {
  // Floating node between two caps: an aggressor step of V couples
  // dV = V * Ca/(Ca+Cb) — the physics behind the paper's coupling model.
  Circuit ckt;
  const NodeId ag = ckt.add_node("aggr");
  const NodeId v = ckt.add_node("victim");
  ckt.add_vsource(ag, util::Pwl::step(0.2e-9, 0.0, 3.3, 10e-12));
  ckt.add_capacitor(ag, v, 30e-15);   // Ca
  ckt.add_capacitor(v, ckt.ground(), 70e-15);  // Cb
  TransientOptions opt;
  opt.tstop = 0.5e-9;
  opt.dt = 1e-12;
  opt.gmin = 1e-12;  // keep the floating node from leaking during the test
  const TransientResult r = simulate(ckt, tables(), opt);
  const double expected = 3.3 * 30.0 / 100.0;
  EXPECT_NEAR(r.waveform(v).value_at(0.45e-9), expected, 0.02);
}

TEST(Transient, InverterSwitchesRailToRail) {
  Circuit ckt;
  core::TransistorNetlistBuilder b(ckt, tech());
  const NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::ramp(0.2e-9, 0.0, 0.4e-9, 3.3));
  std::vector<std::optional<NodeId>> pins(2);
  pins[0] = in;
  auto inst = b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"),
                            "inv", pins);
  ckt.add_capacitor(inst.output, ckt.ground(), 20e-15);

  TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 1e-12;
  const TransientResult r = simulate(ckt, tables(), opt);
  const util::Pwl w = r.waveform(inst.output);
  EXPECT_NEAR(w.value_at(0.1e-9), 3.3, 0.05);   // input low -> output high
  EXPECT_NEAR(w.value_at(1.9e-9), 0.0, 0.05);   // input high -> output low
  const double d = measure_delay(r.waveform(in), 1.65, true, w, 1.65, false);
  EXPECT_GT(d, 1e-12);
  EXPECT_LT(d, 0.5e-9);
}

TEST(Transient, Nand2OutputOnlyFallsWhenBothHigh) {
  Circuit ckt;
  core::TransistorNetlistBuilder b(ckt, tech());
  const NodeId a = ckt.add_node("a");
  const NodeId bb = ckt.add_node("b");
  ckt.add_vsource(a, util::Pwl::ramp(0.2e-9, 0.0, 0.3e-9, 3.3));
  ckt.add_vsource(bb, util::Pwl::constant(0.0));  // B low -> Y stays high
  std::vector<std::optional<NodeId>> pins(3);
  pins[0] = a;
  pins[1] = bb;
  auto inst = b.expand_cell(netlist::CellLibrary::half_micron().get("NAND2_X1"),
                            "u", pins);
  ckt.add_capacitor(inst.output, ckt.ground(), 10e-15);
  TransientOptions opt;
  opt.tstop = 1e-9;
  const TransientResult r = simulate(ckt, tables(), opt);
  EXPECT_GT(r.waveform(inst.output).min_value(), 3.0);
}

TEST(Transient, DcOperatingPointInverterChain) {
  Circuit ckt;
  core::TransistorNetlistBuilder b(ckt, tech());
  const NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::constant(3.3));
  std::vector<std::optional<NodeId>> p1(2), p2(2);
  p1[0] = in;
  auto i1 = b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"),
                          "i1", p1);
  p2[0] = i1.output;
  auto i2 = b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"),
                          "i2", p2);
  TransientOptions opt;
  const auto v = dc_operating_point(ckt, tables(), opt);
  EXPECT_NEAR(v[i1.output], 0.0, 0.05);
  EXPECT_NEAR(v[i2.output], 3.3, 0.05);
}

TEST(Transient, RecordEveryDecimation) {
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::constant(1.0));
  ckt.add_capacitor(in, ckt.ground(), 1e-15);
  TransientOptions opt;
  opt.tstop = 0.1e-9;
  opt.dt = 1e-12;
  opt.record_every = 1;
  const auto full = simulate(ckt, tables(), opt);
  opt.record_every = 4;
  const auto thin = simulate(ckt, tables(), opt);
  EXPECT_LT(thin.num_steps(), full.num_steps());
  EXPECT_NEAR(thin.times().back(), full.times().back(), 1e-12);
}

/// One INV_X1 driving 10 fF from a 0.2 ns input ramp; returns the output.
NodeId inverter_under_ramp(Circuit& ckt) {
  core::TransistorNetlistBuilder b(ckt, tech());
  const NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::ramp(0.1e-9, 0.0, 0.3e-9, tech().vdd));
  std::vector<std::optional<NodeId>> pins(2);
  pins[0] = in;
  const NodeId out =
      b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"), "i0",
                    pins)
          .output;
  ckt.add_capacitor(out, ckt.ground(), 10e-15);
  return out;
}

TEST(Transient, SimulateReportsSolverStats) {
  Circuit ckt;
  inverter_under_ramp(ckt);
  TransientOptions opt;
  opt.tstop = 1e-9;
  const TransientResult r = simulate(ckt, tables(), opt);
  EXPECT_GT(r.stats.accepted_steps, 0u);
  EXPECT_EQ(r.stats.holds, 0u);
}

TEST(Transient, SolverStatsAndWaveformsAreRepeatable) {
  Circuit ckt;
  const NodeId out = inverter_under_ramp(ckt);
  TransientOptions opt;
  opt.tstop = 1e-9;
  const TransientResult a = simulate(ckt, tables(), opt);
  const TransientResult b = simulate(ckt, tables(), opt);
  EXPECT_EQ(a.stats.accepted_steps, b.stats.accepted_steps);
  EXPECT_EQ(a.stats.newton_retries, b.stats.newton_retries);
  EXPECT_EQ(a.stats.step_halvings, b.stats.step_halvings);
  ASSERT_EQ(a.num_steps(), b.num_steps());
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    ASSERT_EQ(a.voltage(s, out), b.voltage(s, out));
  }
}

TEST(Measure, CrossingsOnGlitchyWaveform) {
  util::Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 2.0);   // rises past 1.0 at t=0.5
  w.append(2.0, 0.5);   // dips below 1.0 at ~1.67
  w.append(3.0, 3.0);   // rises past 1.0 again at ~2.2
  EXPECT_NEAR(first_crossing(w, 1.0, true), 0.5, 1e-12);
  EXPECT_NEAR(last_crossing(w, 1.0, true), 2.2, 0.01);
  EXPECT_NEAR(last_crossing(w, 1.0, false), 5.0 / 3.0, 0.01);
  EXPECT_TRUE(std::isinf(first_crossing(w, 5.0, true)));
}

TEST(Measure, DelayUsesLastOutputCrossing) {
  util::Pwl in = util::Pwl::ramp(0.0, 0.0, 1.0, 2.0);
  util::Pwl out;
  out.append(0.0, 0.0);
  out.append(1.0, 1.5);  // first crossing of 1.0 at ~0.67
  out.append(2.0, 0.8);  // glitch below
  out.append(3.0, 2.0);  // final crossing at ~2.17
  const double d = measure_delay(in, 1.0, true, out, 1.0, true);
  EXPECT_NEAR(d, 2.0 + 0.2 / 1.2 - 0.5, 0.01);
}

}  // namespace
}  // namespace xtalk::sim
