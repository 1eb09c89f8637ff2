// Property-style parameterized sweeps over the library's core invariants
// (DESIGN.md §7).
#include <gtest/gtest.h>

#include <ostream>

#include "core/crosstalk_sta.hpp"
#include "delaycalc/arc_delay.hpp"
#include "delaycalc/coupling_model.hpp"
#include "extract/extractor.hpp"
#include "netlist/circuit_generator.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"
#include "util/rng.hpp"

namespace xtalk {
namespace {

const device::Technology& tech() { return device::Technology::half_micron(); }
const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}

// ---------------------------------------------------------------------------
// Property 1: mode ordering best <= iterative <= one-step <= worst at every
// endpoint, across generated circuits.
// ---------------------------------------------------------------------------

struct CircuitParam {
  std::uint64_t seed;
  std::size_t cells;
  std::size_t depth;
};

class ModeOrderingProperty : public ::testing::TestWithParam<CircuitParam> {};

TEST_P(ModeOrderingProperty, HoldsAtEveryEndpoint) {
  const CircuitParam p = GetParam();
  const core::Design design = core::Design::generate(
      netlist::scaled_spec("prop", p.seed, p.cells, p.depth));
  const auto best = design.run(sta::AnalysisMode::kBestCase);
  const auto onestep = design.run(sta::AnalysisMode::kOneStep);
  const auto iter = design.run(sta::AnalysisMode::kIterative);
  const auto worst = design.run(sta::AnalysisMode::kWorstCase);

  ASSERT_EQ(best.endpoints.size(), onestep.endpoints.size());
  ASSERT_EQ(best.endpoints.size(), worst.endpoints.size());
  const double eps = 1e-13;
  for (std::size_t i = 0; i < best.endpoints.size(); ++i) {
    EXPECT_LE(best.endpoints[i].arrival, onestep.endpoints[i].arrival + eps);
    EXPECT_LE(iter.endpoints[i].arrival, onestep.endpoints[i].arrival + eps);
    EXPECT_LE(onestep.endpoints[i].arrival, worst.endpoints[i].arrival + eps);
  }
  EXPECT_LE(best.longest_path_delay, iter.longest_path_delay + eps);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModeOrderingProperty,
                         ::testing::Values(CircuitParam{101, 250, 8},
                                           CircuitParam{202, 400, 12},
                                           CircuitParam{303, 600, 10},
                                           CircuitParam{404, 350, 15}));

// ---------------------------------------------------------------------------
// Property 2: arc waveform invariants across cells x loads x slews x
// coupling: monotone, rail-bounded, starts at the model threshold, and the
// active model never beats the passive one.
// ---------------------------------------------------------------------------

struct ArcParam {
  const char* cell;
  double load;
  double slew;
  double cc;
};

// Print the cell by name: the default byte dump would embed the string
// literal's address, so the test names would change with every load address.
void PrintTo(const ArcParam& p, std::ostream* os) {
  *os << "(" << p.cell << ", " << p.load << ", " << p.slew << ", " << p.cc
      << ")";
}

class ArcWaveformProperty : public ::testing::TestWithParam<ArcParam> {};

TEST_P(ArcWaveformProperty, Invariants) {
  const ArcParam p = GetParam();
  delaycalc::ArcDelayCalculator calc(tables());
  const netlist::Cell& cell =
      netlist::CellLibrary::half_micron().get(p.cell);
  for (const bool in_rising : {true, false}) {
    const util::Pwl in =
        in_rising
            ? util::Pwl::ramp(0.0, tech().model_vth, p.slew, tech().vdd)
            : util::Pwl::ramp(0.0, tech().vdd - tech().model_vth, p.slew, 0.0);
    const auto passive =
        calc.compute(cell, 0, in_rising, in, {p.load + p.cc, 0.0});
    const auto active = calc.compute(cell, 0, in_rising, in, {p.load, p.cc});
    ASSERT_EQ(passive.size(), active.size());
    for (std::size_t k = 0; k < passive.size(); ++k) {
      const bool out_rising = active[k].output_rising;
      const double thr =
          out_rising ? tech().model_vth : tech().vdd - tech().model_vth;
      EXPECT_TRUE(active[k].waveform.is_monotone(out_rising, 1e-9));
      EXPECT_NEAR(active[k].waveform.front().v, thr, 1e-6);
      EXPECT_GE(active[k].waveform.min_value(), -0.01);
      EXPECT_LE(active[k].waveform.max_value(), tech().vdd + 0.01);
      const double a_act = active[k].waveform.time_at_value(
          tech().vdd / 2.0, out_rising);
      const double a_pas = passive[k].waveform.time_at_value(
          tech().vdd / 2.0, passive[k].output_rising);
      EXPECT_GE(a_act, a_pas - 1e-13)
          << p.cell << " in_rising=" << in_rising << " path " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArcWaveformProperty,
    ::testing::Values(ArcParam{"INV_X1", 10e-15, 0.1e-9, 5e-15},
                      ArcParam{"INV_X1", 80e-15, 0.4e-9, 30e-15},
                      ArcParam{"NAND2_X1", 25e-15, 0.2e-9, 10e-15},
                      ArcParam{"NOR2_X1", 25e-15, 0.2e-9, 10e-15},
                      ArcParam{"NAND4_X1", 40e-15, 0.3e-9, 20e-15},
                      ArcParam{"AND2_X1", 30e-15, 0.15e-9, 12e-15},
                      ArcParam{"OR2_X1", 30e-15, 0.15e-9, 12e-15},
                      ArcParam{"XOR2_X1", 20e-15, 0.2e-9, 8e-15},
                      ArcParam{"AOI21_X1", 35e-15, 0.25e-9, 15e-15},
                      ArcParam{"BUF_X2", 50e-15, 0.2e-9, 25e-15}));

// ---------------------------------------------------------------------------
// Property 3: divider algebra — the drop always lands exactly at the model
// threshold when unclamped, across the (Cc, Cg) plane.
// ---------------------------------------------------------------------------

struct DividerParam {
  double cc;
  double cg;
};

class DividerProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DividerProperty, DropLandsAtThreshold) {
  const DividerParam p{std::get<0>(GetParam()), std::get<1>(GetParam())};
  for (const bool rising : {true, false}) {
    const auto ev = delaycalc::make_coupling_event(
        tech().vdd, tech().model_vth, p.cc, p.cg, rising,
        rising ? tech().vdd : 0.0);
    if (ev.clamped) {
      EXPECT_GE(ev.delta_v + tech().model_vth,
                rising ? tech().vdd : tech().vdd);
      continue;
    }
    const double landing = rising ? ev.trigger_voltage - ev.delta_v
                                  : ev.trigger_voltage + ev.delta_v;
    const double expected =
        rising ? tech().model_vth : tech().vdd - tech().model_vth;
    EXPECT_NEAR(landing, expected, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DividerProperty,
    ::testing::Combine(::testing::Values(1e-15, 10e-15, 50e-15, 200e-15),
                       ::testing::Values(5e-15, 50e-15, 500e-15)),
    [](const auto& info) {
      return "cc" + std::to_string(static_cast<int>(
                        std::get<0>(info.param) * 1e15)) +
             "_cg" + std::to_string(static_cast<int>(
                         std::get<1>(info.param) * 1e15));
    });

// ---------------------------------------------------------------------------
// Property 4: RC ladders conserve DC gain — the simulator settles every
// internal node at the source voltage, regardless of topology randomness.
// ---------------------------------------------------------------------------

class RcLadderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RcLadderProperty, SettlesAtSourceVoltage) {
  util::Rng rng(GetParam());
  sim::Circuit ckt;
  const sim::NodeId src = ckt.add_node("src");
  ckt.add_vsource(src, util::Pwl::step(0.05e-9, 0.0, 2.5, 1e-12));
  sim::NodeId prev = src;
  const int n = 3 + static_cast<int>(rng.next_below(6));
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    const sim::NodeId node = ckt.add_node("n" + std::to_string(i));
    ckt.add_resistor(prev, node, rng.next_double(200.0, 3000.0));
    ckt.add_capacitor(node, ckt.ground(), rng.next_double(5e-15, 60e-15));
    if (i > 1 && rng.next_bool(0.5)) {
      // Random cross caps make it a mesh, not a pure ladder.
      ckt.add_capacitor(node, nodes[rng.next_below(nodes.size())],
                        rng.next_double(1e-15, 20e-15));
    }
    nodes.push_back(node);
    prev = node;
  }
  sim::TransientOptions opt;
  opt.tstop = 60e-9;  // many time constants for the slowest random mesh
  opt.dt = 5e-12;
  opt.record_every = 8;
  const auto r = sim::simulate(ckt, tables(), opt);
  for (const sim::NodeId node : nodes) {
    EXPECT_NEAR(r.waveform(node).value_at(opt.tstop), 2.5, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RcLadderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------------
// Property 5: extraction invariants across seeds.
// ---------------------------------------------------------------------------

class ExtractionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractionProperty, SymmetricPositiveBounded) {
  const core::Design design = core::Design::generate(
      netlist::scaled_spec("xprop", GetParam(), 350, 9));
  const extract::Parasitics& para = design.parasitics();
  for (const extract::CouplingCap& cc : para.coupling_pairs()) {
    EXPECT_NE(cc.net_a, cc.net_b);
    EXPECT_GT(cc.cap, 0.0);
    EXPECT_LE(cc.cap, tech().wire_c_couple * cc.overlap_length + 1e-18);
  }
  for (netlist::NetId n = 0; n < design.netlist().num_nets(); ++n) {
    EXPECT_GE(para.net(n).wire_cap, 0.0);
    for (const extract::NeighborCap& nb : para.net(n).couplings) {
      bool found = false;
      for (const extract::NeighborCap& rev : para.net(nb.neighbor).couplings) {
        if (rev.neighbor == n && rev.cap == nb.cap) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtractionProperty,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace xtalk
