// Google-benchmark microkernels for the inner loops that dominate STA
// runtime: device-table lookups, Newton waveform integration, coupled
// waveform integration, full arc evaluation, and one MNA transient step
// set. Useful for tracking performance regressions of the engine.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/transistor_netlist.hpp"
#include "delaycalc/arc_delay.hpp"
#include "device/mosfet.hpp"
#include "sim/transient.hpp"
#include "sta/metrics.hpp"
#include "table_common.hpp"
#include "util/pwl.hpp"
#include "util/table.hpp"

using namespace xtalk;

namespace {

const device::Technology& tech() { return device::Technology::half_micron(); }
const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}

void BM_DeviceTableLookup(benchmark::State& state) {
  const device::DeviceTable& t = tables().nmos();
  double vg = 1.0, vd = 2.0;
  for (auto _ : state) {
    vg += 1e-6;
    vd -= 1e-6;
    benchmark::DoNotOptimize(t.channel_current(2e-6, vg, vd, 0.0));
  }
}
BENCHMARK(BM_DeviceTableLookup);

void BM_DeviceTableDerivs(benchmark::State& state) {
  const device::DeviceTable& t = tables().nmos();
  double vg = 1.0;
  for (auto _ : state) {
    vg += 1e-6;
    benchmark::DoNotOptimize(t.channel_current_derivs(2e-6, vg, 1.5, 0.0));
  }
}
BENCHMARK(BM_DeviceTableDerivs);

// The fused read under BM_DeviceTableDerivs: value and both partials from
// one cell walk of a device-sized (technology table_points) grid.
void BM_Table2DEvalGrad(benchmark::State& state) {
  const double vmax = 1.25 * tech().vdd;
  const util::Table2D t(0.0, vmax, tech().table_points, 0.0, vmax,
                        tech().table_points, [](double vgs, double vds) {
                          return device::unit_current(
                              tech(), device::MosType::kNmos, vgs, vds);
                        });
  double x = 1.0;
  for (auto _ : state) {
    x += 1e-6;
    benchmark::DoNotOptimize(t.eval_grad(x, 1.5));
  }
}
BENCHMARK(BM_Table2DEvalGrad);

// Input-waveform reads as the BE loop makes them: small forward steps
// through a propagated-size waveform, binary-searched anew each time
// (BM_PwlValueAt) or walked on from the previous segment (BM_PwlValueAtHint).
util::Pwl bench_input_waveform() {
  util::Pwl w;
  for (int k = 0; k < 64; ++k) {
    w.append(k * 5e-12, tech().vdd * std::sqrt(k / 63.0));
  }
  return w;
}

void BM_PwlValueAt(benchmark::State& state) {
  const util::Pwl w = bench_input_waveform();
  double t = 0.0;
  for (auto _ : state) {
    t = t < w.back().t ? t + 0.37e-12 : 0.0;
    benchmark::DoNotOptimize(w.value_at(t));
  }
}
BENCHMARK(BM_PwlValueAt);

void BM_PwlValueAtHint(benchmark::State& state) {
  const util::Pwl w = bench_input_waveform();
  double t = 0.0;
  std::size_t hint = 0;
  for (auto _ : state) {
    t = t < w.back().t ? t + 0.37e-12 : 0.0;
    benchmark::DoNotOptimize(w.value_at(t, hint));
  }
}
BENCHMARK(BM_PwlValueAtHint);

void BM_StageWaveform(benchmark::State& state) {
  const util::Pwl vin =
      util::Pwl::ramp(0.0, tech().vdd - tech().model_vth, 0.2e-9, 0.0);
  delaycalc::StageDrive d;
  d.wn_eq = 2e-6;
  d.wp_eq = 4e-6;
  d.vin = &vin;
  d.output_rising = true;
  const delaycalc::OutputLoad load{
      static_cast<double>(state.range(0)) * 1e-15, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delaycalc::solve_stage_waveform(tables(), d, load));
  }
}
BENCHMARK(BM_StageWaveform)->Arg(10)->Arg(40)->Arg(160);

void BM_StageWaveformCoupled(benchmark::State& state) {
  const util::Pwl vin =
      util::Pwl::ramp(0.0, tech().vdd - tech().model_vth, 0.2e-9, 0.0);
  delaycalc::StageDrive d;
  d.wn_eq = 2e-6;
  d.wp_eq = 4e-6;
  d.vin = &vin;
  d.output_rising = true;
  const delaycalc::OutputLoad load{30e-15, 15e-15};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delaycalc::solve_stage_waveform(tables(), d, load));
  }
}
BENCHMARK(BM_StageWaveformCoupled);

void BM_ArcCompute(benchmark::State& state) {
  delaycalc::ArcDelayCalculator calc(tables());
  const netlist::Cell& cell =
      netlist::CellLibrary::half_micron().get("NAND2_X1");
  const util::Pwl in =
      util::Pwl::ramp(0.0, tech().model_vth, 0.2e-9, tech().vdd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        calc.compute(cell, 0, true, in, {30e-15, 10e-15}));
  }
}
BENCHMARK(BM_ArcCompute);

// One coupling-aware arc evaluation as process_gate runs it (§5.1): the best
// case (all coupling grounded) stopped at its threshold crossing t_bcs, then
// the worst case from the best case's pre-output hops. Arg 0 is a one-stage
// NAND2 (nothing to share), arg 1 a two-stage AND2. Compare against two
// BM_ArcCompute-style full evaluations.
void BM_ArcOneStepPair(benchmark::State& state) {
  delaycalc::ArcDelayCalculator calc(tables());
  const netlist::Cell& cell = netlist::CellLibrary::half_micron().get(
      state.range(0) == 0 ? "NAND2_X1" : "AND2_X1");
  const util::Pwl in =
      util::Pwl::ramp(0.0, tech().model_vth, 0.2e-9, tech().vdd);
  for (auto _ : state) {
    delaycalc::ArcEvaluation arc(calc, cell, 0, true, in);
    benchmark::DoNotOptimize(arc.evaluate_to_threshold({40e-15, 0.0}));
    benchmark::DoNotOptimize(arc.evaluate({30e-15, 10e-15}));
  }
}
BENCHMARK(BM_ArcOneStepPair)->Arg(0)->Arg(1);

// The same pair evaluated the pre-sharing way: two full computes.
void BM_ArcFullPair(benchmark::State& state) {
  delaycalc::ArcDelayCalculator calc(tables());
  const netlist::Cell& cell = netlist::CellLibrary::half_micron().get(
      state.range(0) == 0 ? "NAND2_X1" : "AND2_X1");
  const util::Pwl in =
      util::Pwl::ramp(0.0, tech().model_vth, 0.2e-9, tech().vdd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(cell, 0, true, in, {40e-15, 0.0}));
    benchmark::DoNotOptimize(
        calc.compute(cell, 0, true, in, {30e-15, 10e-15}));
  }
}
BENCHMARK(BM_ArcFullPair)->Arg(0)->Arg(1);

// One shard bump: the metrics hot path inside compute_arc.
void BM_MetricShardAdd(benchmark::State& state) {
  sta::MetricsRegistry reg(1);
  for (auto _ : state) {
    reg.add(0, sta::EngineCounter::kBeSteps, 3);
  }
  benchmark::DoNotOptimize(reg.counter_total(sta::EngineCounter::kBeSteps));
}
BENCHMARK(BM_MetricShardAdd);

void BM_TransientInverterChain(benchmark::State& state) {
  sim::Circuit ckt;
  core::TransistorNetlistBuilder b(ckt, tech());
  const sim::NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::ramp(0.1e-9, 0.0, 0.3e-9, tech().vdd));
  sim::NodeId node = in;
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<std::optional<sim::NodeId>> pins(2);
    pins[0] = node;
    node = b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"),
                         "i" + std::to_string(i), pins)
               .output;
    ckt.add_capacitor(node, ckt.ground(), 10e-15);
  }
  sim::TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 2e-12;
  opt.record_every = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(ckt, tables(), opt));
  }
}
BENCHMARK(BM_TransientInverterChain)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): translate the repo-wide
// `--json <path>` flag into google-benchmark's JSON reporter flags so every
// bench binary shares one machine-readable interface.
int main(int argc, char** argv) {
  const std::string json_path = xtalk::bench::json_path_from_args(argc, argv);
  std::vector<char*> args;
  std::vector<std::string> storage;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_path.empty()) {
    storage.push_back("--benchmark_out=" + json_path);
    storage.push_back("--benchmark_out_format=json");
    for (std::string& s : storage) args.push_back(s.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
