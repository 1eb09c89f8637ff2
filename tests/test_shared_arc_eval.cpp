// One arc evaluation, split at the output stage. The paper's best case
// (§5.1) is read only at its threshold crossing t_bcs, so its output stage
// stops there and finishes to the rail only if its waveform is merged; the
// worst case reuses the best case's pre-output hops. Everything here is
// exact: a stopped solve's first samples, a finished solve, and a worst
// case built from the shared prefix are bitwise what a fresh full solve
// gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "delaycalc/arc_delay.hpp"
#include "delaycalc/stage.hpp"
#include "delaycalc/waveform_calc.hpp"
#include "extract/elmore.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/levelize.hpp"
#include "sta/engine.hpp"
#include "sta/metrics.hpp"
#include "util/fault_injection.hpp"

namespace xtalk {
namespace {

const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}
const device::Technology& tech() { return device::Technology::half_micron(); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_waveform(const util::Pwl& a, const util::Pwl& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a.points()[i].t, b.points()[i].t) ||
        !same_bits(a.points()[i].v, b.points()[i].v)) {
      return false;
    }
  }
  return true;
}

void expect_same_result(const delaycalc::ArcResult& a,
                        const delaycalc::ArcResult& b, const char* what) {
  EXPECT_EQ(a.output_rising, b.output_rising) << what;
  EXPECT_TRUE(same_waveform(a.waveform, b.waveform)) << what;
  EXPECT_TRUE(same_bits(a.settle_time, b.settle_time)) << what;
  EXPECT_EQ(a.coupled, b.coupled) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
  EXPECT_FALSE(a.stopped) << what;
  EXPECT_FALSE(b.stopped) << what;
}

/// An input edge through the model threshold at t = 0 with full-swing
/// transition time `slew`.
util::Pwl input_ramp(bool rising, double slew) {
  return rising ? util::Pwl::ramp(0.0, tech().model_vth, slew, tech().vdd)
                : util::Pwl::ramp(0.0, tech().vdd - tech().model_vth, slew,
                                  0.0);
}

delaycalc::StageDrive inverter_drive(const util::Pwl& vin, bool out_rising) {
  const netlist::Stage& s =
      netlist::CellLibrary::half_micron().get("INV_X1").stages()[0];
  const delaycalc::CollapsedStage col =
      delaycalc::collapse_dc(s, delaycalc::sensitize(s, 0), tables());
  delaycalc::StageDrive d;
  d.wn_eq = col.wn_eq;
  d.wp_eq = col.wp_eq;
  d.vin = &vin;
  d.output_rising = out_rising;
  return d;
}

// (a) A stopped stage solve starts bitwise like the full solve (front and
// the sample after it), and finishing it reproduces the full solve,
// counters included, over a grid of loads and input slews, both edges.
TEST(SharedArcEval, StoppedStageSolveMatchesFullSolve) {
  for (const bool out_rising : {true, false}) {
    for (const double slew : {0.02e-9, 0.1e-9, 0.4e-9, 1.5e-9}) {
      const util::Pwl vin = input_ramp(!out_rising, slew);
      const delaycalc::StageDrive drive = inverter_drive(vin, out_rising);
      for (const double load : {2e-15, 10e-15, 40e-15, 150e-15, 600e-15}) {
        SCOPED_TRACE(testing::Message() << "rising " << out_rising << " slew "
                                        << slew << " load " << load);
        const delaycalc::WaveformResult full =
            delaycalc::solve_stage_waveform(tables(), drive, {load, 0.0});
        delaycalc::StageSolver solver(tables(), drive, {load, 0.0});
        const delaycalc::WaveformResult front = solver.solve_to_threshold();
        ASSERT_GE(front.waveform.size(), 2u);
        EXPECT_TRUE(same_bits(front.waveform.front().t,
                              full.waveform.front().t));
        EXPECT_TRUE(same_bits(front.waveform.front().v,
                              full.waveform.front().v));
        EXPECT_TRUE(same_bits(front.waveform.points()[1].t,
                              full.waveform.points()[1].t));
        EXPECT_TRUE(same_bits(front.waveform.points()[1].v,
                              full.waveform.points()[1].v));
        EXPECT_FALSE(front.degraded);
        EXPECT_LT(front.be_steps, full.be_steps);

        const delaycalc::WaveformResult rest = solver.solve_to_settle();
        EXPECT_TRUE(same_waveform(rest.waveform, full.waveform));
        EXPECT_TRUE(same_bits(rest.settle_time, full.settle_time));
        EXPECT_EQ(front.be_steps + rest.be_steps, full.be_steps);
        EXPECT_EQ(front.newton_iters + rest.newton_iters, full.newton_iters);
      }
    }
  }
}

TEST(SharedArcEval, CoupledLoadCannotStop) {
  const util::Pwl vin = input_ramp(false, 0.2e-9);
  delaycalc::StageSolver solver(tables(), inverter_drive(vin, true),
                                {20e-15, 10e-15});
  EXPECT_THROW(solver.solve_to_threshold(), std::invalid_argument);
}

// (b) For every timed pin of every multi-stage cell: the worst case built
// from the best case's shared prefix, and the best case stopped and then
// finished, are bitwise a fresh compute(); the work moves from be_steps to
// be_steps_shared and is not lost.
TEST(SharedArcEval, SharedPrefixMatchesFreshCompute) {
  const delaycalc::ArcDelayCalculator calc(tables());
  const delaycalc::OutputLoad best{45e-15, 0.0};
  const delaycalc::OutputLoad worst{30e-15, 15e-15};
  std::size_t multi_stage_arcs = 0;
  for (const netlist::Cell* cell :
       netlist::CellLibrary::half_micron().all_cells()) {
    if (cell->stages().size() < 2) continue;
    for (std::uint32_t pin = 0; pin < cell->pins().size(); ++pin) {
      if (!netlist::is_timed_input(*cell, pin)) continue;
      for (const bool in_rising : {true, false}) {
        SCOPED_TRACE(testing::Message() << cell->name() << " pin " << pin
                                        << " rising " << in_rising);
        const util::Pwl in = input_ramp(in_rising, 0.3e-9);
        const auto fresh_best = calc.compute(*cell, pin, in_rising, in, best);
        const auto fresh_worst =
            calc.compute(*cell, pin, in_rising, in, worst);

        delaycalc::ArcEvaluation arc(calc, *cell, pin, in_rising, in);
        auto bcs = arc.evaluate_to_threshold(best);
        const auto wcs = arc.evaluate(worst);
        ASSERT_EQ(bcs.size(), fresh_best.size());
        ASSERT_EQ(wcs.size(), fresh_worst.size());
        std::uint64_t shared = 0;
        for (std::size_t i = 0; i < wcs.size(); ++i) {
          ++multi_stage_arcs;
          shared += wcs[i].be_steps_shared;
          expect_same_result(wcs[i], fresh_worst[i], "worst case");
          EXPECT_EQ(wcs[i].be_steps + wcs[i].be_steps_shared,
                    fresh_worst[i].be_steps);
          EXPECT_TRUE(bcs[i].stopped);
          ASSERT_GE(bcs[i].waveform.size(), 2u);
          for (std::size_t k = 0; k < 2; ++k) {
            EXPECT_TRUE(same_bits(bcs[i].waveform.points()[k].t,
                                  fresh_best[i].waveform.points()[k].t));
            EXPECT_TRUE(same_bits(bcs[i].waveform.points()[k].v,
                                  fresh_best[i].waveform.points()[k].v));
          }
          const delaycalc::ArcResult done = arc.complete(i);
          expect_same_result(done, fresh_best[i], "finished best case");
          EXPECT_EQ(bcs[i].be_steps + done.be_steps, fresh_best[i].be_steps);
        }
        EXPECT_GT(shared, 0u) << "no pre-output hop was reused";
      }
    }
  }
  EXPECT_GT(multi_stage_arcs, 10u);
}

// ---------------------------------------------------------------------------
// (c) Engine runs: every recorded t_bcs is the front of a full best case,
// and every merged waveform is finished.
// ---------------------------------------------------------------------------

const core::Design& design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("shared", 11, 220, 10));
  return d;
}

/// front().t of a full best-case compute (every coupling cap grounded) of
/// one arc, with the fanin event of `timing`, minimum over the stage paths
/// ending in `out_rising`: the t_bcs process_gate classifies against.
double full_best_case_t_bcs(const sta::DesignView& view,
                            const std::vector<sta::NetTiming>& timing,
                            netlist::GateId g, std::uint32_t pin,
                            bool in_rising, bool out_rising) {
  const netlist::Netlist& nl = *view.netlist;
  const netlist::Gate& gate = nl.gate(g);
  const netlist::NetId in_net = gate.pin_nets[pin];
  const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
  double elmore = 0.0;
  for (const extract::SinkWire& w : view.parasitics->net(in_net).sink_wires) {
    if (w.sink.gate == g && w.sink.pin == pin) {
      elmore = extract::elmore_sink_delay(w, gate.cell->pins()[pin].cap);
    }
  }
  const util::Pwl& wave = timing[in_net].event(in_rising).waveform;
  const util::Pwl in = elmore > 0.0 ? wave.shifted(elmore) : wave;
  const double base = view.parasitics->net(out).wire_cap +
                      view.tables->tech().miller_gate_factor *
                          nl.net_pin_cap(out);
  const double cc_sum = view.parasitics->net(out).total_coupling_cap();
  const delaycalc::ArcDelayCalculator calc(*view.tables);
  double t_bcs = std::numeric_limits<double>::infinity();
  for (const delaycalc::ArcResult& r :
       calc.compute(*gate.cell, pin, in_rising, in, {base + cc_sum, 0.0})) {
    if (r.output_rising == out_rising) {
      t_bcs = std::min(t_bcs, r.waveform.front().t);
    }
  }
  return t_bcs;
}

TEST(SharedArcEval, RecordedTbcsIsTheFullBestCaseFront) {
  const sta::DesignView view = design().view();
  const netlist::Netlist& nl = *view.netlist;
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kOneStep, sta::AnalysisMode::kIterative}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << sta::mode_name(mode) << " threads "
                                      << threads);
      sta::StaOptions opt;
      opt.mode = mode;
      opt.num_threads = threads;
      opt.collect_metrics = true;
      sta::RunTrace trace;
      sta::StaEngine engine(view, opt);
      const sta::StaResult result = engine.run(&trace);
      EXPECT_TRUE(result.diagnostics.empty());
      const std::uint64_t shared =
          result.metrics.counter(sta::EngineCounter::kBeStepsShared);
      EXPECT_GT(shared, 0u);
      std::uint64_t shared_per_pass = 0;
      for (const sta::PassMetrics& pm : result.metrics.passes) {
        shared_per_pass += pm.be_steps_shared;
      }
      EXPECT_EQ(shared_per_pass, shared);
      std::size_t checked = 0;
      std::size_t mismatched = 0;
      std::size_t unfinished = 0;
      for (const sta::PassRecord& pass : trace.passes) {
        const sta::ClassRecord& rec = pass.classes;
        ASSERT_EQ(rec.begin.size(), nl.num_gates() + 1);
        for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
          const netlist::Cell& cell = *nl.gate(g).cell;
          std::size_t slot = rec.begin[g];
          for (std::uint32_t p = 0; p < nl.gate(g).pin_nets.size(); ++p) {
            if (!netlist::is_timed_input(cell, p)) continue;
            for (const bool in_rising : {true, false}) {
              for (const bool out_rising : {true, false}) {
                const sta::ArcClass& a = rec.arcs[slot++];
                if (a.kind == sta::ArcClass::kUnclassified) continue;
                ++checked;
                const double t = full_best_case_t_bcs(
                    view, pass.timing, g, p, in_rising, out_rising);
                if (!same_bits(t, a.t_bcs)) ++mismatched;
              }
            }
          }
          ASSERT_EQ(slot, rec.begin[g + 1]);
        }
        // A best case is merged only after it has been finished: every
        // event of the pass runs to its rail.
        for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
          for (const bool rising : {true, false}) {
            const sta::NetEvent& e = pass.timing[n].event(rising);
            if (!e.valid || nl.net(n).driver.gate == netlist::kNoGate) {
              continue;
            }
            const double rail = rising ? tech().vdd : 0.0;
            if (std::abs(e.waveform.back().v - rail) > 2e-3) ++unfinished;
          }
        }
      }
      EXPECT_GT(checked, 500u);
      EXPECT_EQ(mismatched, 0u) << "of " << checked;
      EXPECT_EQ(unfinished, 0u);
    }
  }
}

// A victim deep in an inverter chain, coupled to an aggressor that a
// primary input drives through one inverter: the aggressor is quiet long
// before the victim's t_bcs, so classification grounds it, and the stopped
// best case is the waveform that gets merged. It must be finished first:
// the victim's events are bitwise a full best-case compute.
TEST(SharedArcEval, MergedBestCaseIsFinished) {
  const auto& lib = netlist::CellLibrary::half_micron();
  netlist::Netlist nl(lib);
  const netlist::NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  netlist::NetId prev = a;
  for (int i = 0; i < 12; ++i) {
    const netlist::NetId out = nl.add_net("c" + std::to_string(i));
    nl.add_gate("chain" + std::to_string(i), lib.get("INV_X1"), {prev, out});
    prev = out;
  }
  const netlist::NetId victim = prev;
  nl.mark_primary_output(victim);
  const netlist::NetId b = nl.add_net("b");
  nl.mark_primary_input(b);
  const netlist::NetId aggressor = nl.add_net("aggressor");
  nl.add_gate("agg", lib.get("INV_X1"), {b, aggressor});
  nl.mark_primary_output(aggressor);
  const netlist::LevelizedDag dag = netlist::levelize(nl);
  extract::Parasitics para(nl.num_nets());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    para.net(n).wire_cap = 20e-15;
    para.net(n).wire_length = 200e-6;
  }
  para.add_coupling(victim, aggressor, 8e-15, 100e-6);
  sta::DesignView view;
  view.netlist = &nl;
  view.dag = &dag;
  view.parasitics = &para;
  view.tables = &tables();

  const netlist::GateId driver = nl.net(victim).driver.gate;
  const netlist::NetId in_net = nl.gate(driver).pin_nets[0];
  const double base = para.net(victim).wire_cap +
                      tech().miller_gate_factor * nl.net_pin_cap(victim);
  const delaycalc::ArcDelayCalculator calc(tables());
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kOneStep, sta::AnalysisMode::kIterative}) {
    SCOPED_TRACE(sta::mode_name(mode));
    sta::StaOptions opt;
    opt.mode = mode;
    sta::RunTrace trace;
    sta::StaEngine engine(view, opt);
    (void)engine.run(&trace);
    for (const sta::PassRecord& pass : trace.passes) {
      const sta::ArcClass* rec =
          pass.classes.arcs.data() + pass.classes.begin[driver];
      for (const bool in_rising : {true, false}) {
        const bool out_rising = !in_rising;
        // Slots: input edge major (rise first), output edge minor.
        const sta::ArcClass& a =
            rec[(in_rising ? 0 : 2) + (out_rising ? 0 : 1)];
        ASSERT_EQ(a.kind, sta::ArcClass::kClassified);
        ASSERT_EQ(a.load.c_active, 0.0) << "fixture: aggressor grounded";
        ASSERT_GT(a.load.c_passive, base) << "fixture: coupling on the net";

        const auto full = calc.compute(
            *nl.gate(driver).cell, 0, in_rising,
            pass.timing[in_net].event(in_rising).waveform, a.load);
        ASSERT_EQ(full.size(), 1u);
        const sta::NetEvent& e = pass.timing[victim].event(out_rising);
        EXPECT_TRUE(same_waveform(e.waveform, full[0].waveform));
        EXPECT_TRUE(same_bits(e.settle_time, full[0].settle_time));
        EXPECT_FALSE(e.coupled);
      }
    }
  }
}

// (d) A fault that fires only after the threshold crossing is never reached
// by the stopped solve: its result stays nominal and reports nothing, while
// the full solve under the same fault degrades.
TEST(SharedArcEval, FaultAfterTheCrossingLeavesStoppedSolveUndegraded) {
  const util::Pwl vin = input_ramp(false, 0.2e-9);
  const delaycalc::StageDrive drive = inverter_drive(vin, true);
  const delaycalc::OutputLoad load{30e-15, 0.0};
  const delaycalc::WaveformResult clean_front =
      delaycalc::StageSolver(tables(), drive, load).solve_to_threshold();
  const delaycalc::WaveformResult clean =
      delaycalc::solve_stage_waveform(tables(), drive, load);
  ASSERT_LT(clean_front.be_steps + 2, clean.be_steps);

  util::DiagSink sink(64);
  util::FaultInjector injector;
  util::FaultSpec spec;
  spec.kind = util::FaultKind::kNewtonDiverge;
  spec.gate = 5;
  // One probe per BE step: the first step after the stop is the first hit.
  spec.after = clean_front.be_steps;
  injector.add(spec);
  util::DiagHandle diag;
  diag.sink = &sink;
  diag.faults = &injector;
  diag.ctx.gate = 5;

  const delaycalc::WaveformResult front =
      delaycalc::StageSolver(tables(), drive, load, {}, &diag)
          .solve_to_threshold();
  EXPECT_FALSE(front.degraded);
  EXPECT_EQ(front.fallback_steps, 0);
  EXPECT_TRUE(same_bits(front.waveform.front().t,
                        clean_front.waveform.front().t));
  EXPECT_TRUE(sink.snapshot().empty());

  injector.reset();
  const delaycalc::WaveformResult full =
      delaycalc::solve_stage_waveform(tables(), drive, load, {}, &diag);
  EXPECT_TRUE(full.degraded);
  EXPECT_FALSE(sink.snapshot().empty());
}

// A fault before the crossing degrades the stopped solve, and the finished
// solve is bitwise the uninterrupted faulted one: the fallback count and
// the once-per-solve rung reports carry across the stop.
TEST(SharedArcEval, FallbackBeforeTheCrossingCarriesAcrossTheStop) {
  const util::Pwl vin = input_ramp(false, 0.2e-9);
  const delaycalc::StageDrive drive = inverter_drive(vin, true);
  const delaycalc::OutputLoad load{30e-15, 0.0};
  util::DiagSink sink(64);
  util::FaultInjector injector;
  util::FaultSpec spec;
  spec.kind = util::FaultKind::kNewtonDiverge;
  spec.gate = 5;
  spec.after = 3;  // sticky from the fourth step on: both sides of the stop
  injector.add(spec);
  util::DiagHandle diag;
  diag.sink = &sink;
  diag.faults = &injector;
  diag.ctx.gate = 5;

  const delaycalc::WaveformResult full =
      delaycalc::solve_stage_waveform(tables(), drive, load, {}, &diag);
  ASSERT_TRUE(full.degraded);
  const std::size_t full_reports = sink.snapshot().size();

  injector.reset();
  delaycalc::StageSolver solver(tables(), drive, load, {}, &diag);
  const delaycalc::WaveformResult front = solver.solve_to_threshold();
  EXPECT_TRUE(front.degraded);
  const delaycalc::WaveformResult rest = solver.solve_to_settle();
  EXPECT_TRUE(rest.degraded);
  EXPECT_TRUE(same_waveform(rest.waveform, full.waveform));
  EXPECT_TRUE(same_bits(rest.settle_time, full.settle_time));
  EXPECT_EQ(front.fallback_steps + rest.fallback_steps, full.fallback_steps);
  EXPECT_EQ(sink.snapshot().size(), 2 * full_reports);
}

// A tail fault no fallback can recover (sticky NaN currents after the
// crossing) surfaces only when a stopped arc is finished: the stop itself is
// clean, and complete() throws for the engine to substitute its bound.
TEST(SharedArcEval, UnrecoverableTailFaultThrowsOnlyWhenFinished) {
  const delaycalc::ArcDelayCalculator calc(tables());
  const netlist::Cell& cell = netlist::CellLibrary::half_micron().get("INV_X1");
  const util::Pwl in = input_ramp(true, 0.2e-9);
  const delaycalc::OutputLoad load{30e-15, 0.0};
  const std::uint64_t front_steps =
      delaycalc::ArcEvaluation(calc, cell, 0, true, in)
          .evaluate_to_threshold(load)[0]
          .be_steps;

  util::FaultInjector injector;
  util::FaultSpec spec;
  spec.kind = util::FaultKind::kNanCurrent;
  spec.gate = 5;
  spec.after = front_steps;
  injector.add(spec);
  util::DiagHandle diag;
  diag.faults = &injector;
  diag.ctx.gate = 5;

  delaycalc::ArcEvaluation arc(calc, cell, 0, true, in, {}, nullptr, &diag);
  const std::vector<delaycalc::ArcResult> front =
      arc.evaluate_to_threshold(load);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_TRUE(front[0].stopped);
  EXPECT_FALSE(front[0].degraded);
  EXPECT_THROW(arc.complete(0), util::DiagError);
}

}  // namespace
}  // namespace xtalk
