#include "delaycalc/nldm.hpp"

#include <gtest/gtest.h>

#include "core/crosstalk_sta.hpp"
#include "netlist/embedded_benchmarks.hpp"

namespace xtalk::delaycalc {
namespace {

const device::Technology& tech() { return device::Technology::half_micron(); }
const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}
const netlist::CellLibrary& cells() {
  return netlist::CellLibrary::half_micron();
}
const NldmLibrary& nldm() { return NldmLibrary::half_micron(); }

double arrival(const ArcResult& r) {
  return r.waveform.time_at_value(tech().vdd / 2.0, r.output_rising);
}

util::Pwl input(bool rising, double slew = 0.2e-9) {
  const double rate = tech().vdd / slew;
  return rising ? util::Pwl::ramp(0.0, tech().model_vth,
                                  (tech().vdd - tech().model_vth) / rate,
                                  tech().vdd)
                : util::Pwl::ramp(0.0, tech().vdd - tech().model_vth,
                                  (tech().vdd - tech().model_vth) / rate, 0.0);
}

TEST(Nldm, CharacterizesEveryTimedArc) {
  // Every input pin of every cell with a stage path gets arcs in both
  // input directions.
  for (const netlist::Cell* c : cells().all_cells()) {
    for (std::size_t p = 0; p < c->pins().size(); ++p) {
      if (p == c->output_pin()) continue;
      const bool has_path = !enumerate_paths(*c, p).empty();
      for (const bool rising : {true, false}) {
        EXPECT_EQ(!nldm().arcs(*c, p, rising).empty(), has_path)
            << c->name() << " pin " << p;
      }
    }
  }
  EXPECT_GT(nldm().total_arcs(), 50u);
}

TEST(Nldm, MatchesTransistorEngineOnGridInterior) {
  ArcDelayCalculator golden(tables());
  NldmDelayCalculator table(nldm(), tech());
  for (const char* name : {"INV_X1", "NAND2_X1", "NOR3_X1", "AND2_X1"}) {
    const netlist::Cell& cell = cells().get(name);
    for (const double slew : {0.1e-9, 0.3e-9}) {
      for (const double load : {15e-15, 60e-15}) {
        const util::Pwl in = input(true, slew);
        const auto g = golden.compute(cell, 0, true, in, {load, 0.0});
        const auto t = table.compute(cell, 0, true, in, {load, 0.0});
        ASSERT_EQ(g.size(), t.size()) << name;
        const double dg = arrival(g[0]);
        const double dt = arrival(t[0]);
        EXPECT_NEAR(dt, dg, 0.08 * dg + 3e-12)
            << name << " slew " << slew << " load " << load;
      }
    }
  }
}

TEST(Nldm, MonotoneInSlewAndLoad) {
  NldmDelayCalculator table(nldm(), tech());
  const netlist::Cell& inv = cells().get("INV_X1");
  double prev = -1.0;
  for (const double load : {5e-15, 20e-15, 80e-15, 150e-15}) {
    const auto r = table.compute(inv, 0, true, input(true), {load, 0.0});
    const double d = arrival(r[0]);
    EXPECT_GT(d, prev);
    prev = d;
  }
  prev = -1.0;
  for (const double slew : {0.05e-9, 0.2e-9, 0.6e-9}) {
    const auto r =
        table.compute(inv, 0, true, input(true, slew), {30e-15, 0.0});
    const double d = arrival(r[0]);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(Nldm, ActiveCouplingFoldedAsDoubled) {
  NldmDelayCalculator table(nldm(), tech());
  const netlist::Cell& inv = cells().get("INV_X1");
  const auto active =
      table.compute(inv, 0, true, input(true), {20e-15, 10e-15});
  const auto doubled =
      table.compute(inv, 0, true, input(true), {40e-15, 0.0});
  EXPECT_NEAR(arrival(active[0]), arrival(doubled[0]), 1e-15);
  EXPECT_FALSE(active[0].coupled);
}

TEST(Nldm, XorGetsBothOutputDirections) {
  NldmDelayCalculator table(nldm(), tech());
  const auto r =
      table.compute(cells().get("XOR2_X1"), 0, true, input(true), {20e-15, 0.0});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NE(r[0].output_rising, r[1].output_rising);
}

TEST(Nldm, OutputWaveformIsCleanRamp) {
  NldmDelayCalculator table(nldm(), tech());
  const auto r =
      table.compute(cells().get("INV_X1"), 0, false, input(false), {20e-15, 0.0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].output_rising);
  EXPECT_TRUE(r[0].waveform.is_monotone(true));
  EXPECT_NEAR(r[0].waveform.front().v, tech().model_vth, 1e-9);
  EXPECT_NEAR(r[0].waveform.back().v, tech().vdd, 1e-9);
  EXPECT_DOUBLE_EQ(r[0].settle_time, r[0].waveform.back().t);
}

TEST(NldmEngine, FullStaRunsAndOrderingHolds) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  sta::StaOptions opt;
  opt.delay_model = sta::DelayModel::kNldm;
  opt.mode = sta::AnalysisMode::kBestCase;
  const double best = sta::run_sta(d.view(), opt).longest_path_delay;
  opt.mode = sta::AnalysisMode::kStaticDoubled;
  const double doubled = sta::run_sta(d.view(), opt).longest_path_delay;
  EXPECT_GT(best, 0.3e-9);
  EXPECT_GT(doubled, best);

  // NLDM tracks the transistor engine within ~10% end to end.
  sta::StaOptions ref;
  ref.mode = sta::AnalysisMode::kBestCase;
  const double golden = sta::run_sta(d.view(), ref).longest_path_delay;
  EXPECT_NEAR(best, golden, 0.12 * golden);
}

TEST(NldmEngine, MuchCheaperPerArc) {
  const core::Design d = core::Design::from_bench(netlist::s27_bench());
  sta::StaOptions nopt;
  nopt.delay_model = sta::DelayModel::kNldm;
  nopt.mode = sta::AnalysisMode::kBestCase;
  nopt.collect_metrics = true;
  sta::StaOptions topt;
  topt.mode = sta::AnalysisMode::kBestCase;
  topt.collect_metrics = true;
  const auto rn = sta::run_sta(d.view(), nopt);
  const auto rt = sta::run_sta(d.view(), topt);
  EXPECT_EQ(rn.waveform_calculations, rt.waveform_calculations);
  // Same arcs evaluated, but a table lookup integrates nothing: the cost
  // is checked in solver work units, not in wall time, so a loaded host
  // cannot flip the verdict.
  EXPECT_EQ(rn.metrics.counter(sta::EngineCounter::kBeSteps), 0u);
  EXPECT_EQ(rn.metrics.counter(sta::EngineCounter::kNewtonIterations), 0u);
  EXPECT_GT(rt.metrics.counter(sta::EngineCounter::kBeSteps), 0u);
  EXPECT_GT(rt.metrics.counter(sta::EngineCounter::kNewtonIterations), 0u);
}

}  // namespace
}  // namespace xtalk::delaycalc
