// Failure-injection and robustness: the bench parser must reject arbitrary
// garbage with exceptions (never crash or hang), partially-valid inputs
// must produce line-accurate errors, and the coupled delay model must stay
// within a band of the simulated worst case across the coupling range.
#include <gtest/gtest.h>

#include <string>

#include "core/validation.hpp"
#include "delaycalc/arc_delay.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"
#include "util/rng.hpp"

namespace xtalk {
namespace {

const netlist::CellLibrary& lib() { return netlist::CellLibrary::half_micron(); }

/// Random printable garbage with structural characters sprinkled in.
std::string garbage(util::Rng& rng, std::size_t length) {
  static const std::string alphabet =
      "abcdefghijKLMNOP0123456789_()=,;.*:\"\n\t /\\+-";
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    s.push_back(alphabet[rng.next_below(alphabet.size())]);
  }
  return s;
}

TEST(Robustness, BenchParserNeverCrashesOnGarbage) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = garbage(rng, 40 + rng.next_below(400));
    try {
      netlist::parse_bench(text, lib());
    } catch (const std::exception&) {
      // rejection is the expected outcome
    }
  }
}

TEST(Robustness, BenchParserMutationsOfValidInput) {
  // Flip characters of a valid netlist; the parser must either accept or
  // throw, never crash.
  util::Rng rng(777);
  const std::string base(netlist::s27_bench());
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = base;
    const std::size_t n_mutations = 1 + rng.next_below(5);
    for (std::size_t m = 0; m < n_mutations; ++m) {
      text[rng.next_below(text.size())] =
          static_cast<char>(32 + rng.next_below(95));
    }
    try {
      netlist::Netlist nl = netlist::parse_bench(text, lib());
      nl.validate();
    } catch (const std::exception&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Model-vs-simulation band across the coupling range: the active model
// must track the worst aligned simulation within a modest band (Fig. 1a).
// ---------------------------------------------------------------------------

class CoupledAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(CoupledAccuracy, ModelTracksWorstAlignedSimulation) {
  const double ratio = GetParam();
  const auto& tech = device::Technology::half_micron();
  const auto& tables = device::DeviceTableSet::half_micron();
  const double ctot = 40e-15;
  const double cc = ratio * ctot;
  const double cg = ctot - cc;

  // Model delay.
  delaycalc::ArcDelayCalculator calc(tables);
  const util::Pwl in =
      util::Pwl::ramp(0.0, tech.vdd - tech.model_vth, 0.2e-9, 0.0);
  const auto rs = calc.compute(lib().get("INV_X1"), 0, false, in, {cg, cc});
  const double in50 = in.time_at_value(tech.vdd / 2.0, false);
  const double model = rs[0].waveform.time_at_value(tech.vdd / 2.0, true) - in50;

  // Worst aligned simulation (coarse sweep).
  double sim_worst = 0.0;
  for (double start = 0.4e-9; start <= 1.2e-9; start += 0.1e-9) {
    core::GateFixtureSpec spec;
    spec.cell = &lib().get("INV_X1");
    spec.input_rising = false;
    spec.load_cap = cg;
    spec.coupling_cap = cc;
    spec.aggressor_start = start;
    spec.aggressor_slew = 0.03e-9;
    core::GateFixture fx = core::build_gate_fixture(tech, spec);
    sim::TransientOptions topt;
    topt.tstop = spec.time_offset + 4e-9;
    topt.dt = 2e-12;
    const auto tr = sim::simulate(fx.circuit, tables, topt);
    const double t_in = sim::first_crossing(tr.waveform(fx.input),
                                            tech.vdd / 2.0, false);
    const double t_out = sim::last_crossing(tr.waveform(fx.output),
                                            tech.vdd / 2.0, true);
    sim_worst = std::max(sim_worst, t_out - t_in);
  }

  // Band: no more than 10% optimistic against the sampled worst alignment,
  // no more than 25% pessimistic.
  EXPECT_GT(model, sim_worst * 0.90) << "ratio " << ratio;
  EXPECT_LT(model, sim_worst * 1.25) << "ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoupledAccuracy,
                         ::testing::Values(0.1, 0.25, 0.4));

}  // namespace
}  // namespace xtalk
