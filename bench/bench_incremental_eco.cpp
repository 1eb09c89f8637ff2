// Incremental (ECO) re-timing benchmark: after a full baseline analysis,
// apply single-gate resize edits to the largest generated circuit and
// re-time incrementally. The coupling-aware dirty set keeps the re-timed
// region small, so the incremental runs should need at least 5x fewer
// waveform calculations than the from-scratch baseline while producing
// bitwise-identical results (spot-checked against the oracle at the end).
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <random>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/incremental/oracle.hpp"
#include "table_common.hpp"

using namespace xtalk;

namespace {

struct ModeRun {
  const char* label;
  sta::AnalysisMode mode;
  /// Whether the >= 5x reuse target is enforced at full scale. The engine's
  /// value cut-off (a recomputed net landing bitwise on the baseline stops
  /// the propagation) keeps the re-timed region local in both coupling-aware
  /// modes; the iterative mode trails one-step because quiet-time feedback
  /// crosses coupling edges in both directions, but both clear 5x well
  /// below full scale and the margin grows with circuit size.
  bool target_applies;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json;
  json.root().set("benchmark", "incremental_eco");
  const std::string json_path = bench::json_path_from_args(argc, argv);

  // The largest of the paper's three circuits by cell count.
  netlist::GeneratorSpec spec = netlist::s38417_like();
  const auto [scale, num_threads] = bench::size_from_env(spec);

  std::cout << "=== incremental ECO re-timing: " << spec.name << " ("
            << spec.num_cells << " cells, seed " << spec.seed << ") ===\n\n";
  const core::Design design = core::Design::generate(spec);
  json.root()
      .set("circuit", spec.name)
      .set("cells", design.stats().cells)
      .set("scale", scale)
      .set("threads", num_threads);

  constexpr std::size_t kEdits = 10;
  bool all_fast_enough = true;
  bool all_identical = true;

  for (const ModeRun& m : {ModeRun{"one_step", sta::AnalysisMode::kOneStep,
                                   true},
                           ModeRun{"iterative", sta::AnalysisMode::kIterative,
                                   true}}) {
    sta::incremental::DesignEditor editor = design.make_editor();
    sta::StaOptions opt;
    opt.mode = m.mode;
    opt.num_threads = num_threads;
    sta::incremental::IncrementalSta session(editor, opt);

    const sta::StaResult baseline = session.run();
    std::cout << m.label << ": baseline " << baseline.waveform_calculations
              << " waveform calculations, " << std::fixed
              << std::setprecision(3) << baseline.runtime_seconds << " s, "
              << baseline.longest_path_delay * 1e9 << " ns\n";

    // Deterministic single-gate resize edits; grow and shrink alternate so
    // drive strengths stay in a realistic band across the sequence.
    std::mt19937 rng(12345u);
    std::uniform_int_distribution<std::size_t> pick_gate(
        0, editor.netlist().num_gates() - 1);
    double sum_calcs = 0.0;
    double sum_runtime = 0.0;
    for (std::size_t i = 0; i < kEdits; ++i) {
      const auto gate = static_cast<netlist::GateId>(pick_gate(rng));
      const double factor = (i % 2 == 0) ? 1.3 : 0.8;
      editor.resize_gate(gate, factor);
      const sta::StaResult r = session.run();
      sum_calcs += static_cast<double>(r.waveform_calculations);
      sum_runtime += r.runtime_seconds;
      std::cout << "  edit " << std::setw(2) << i << ": gate " << gate
                << " x" << std::setprecision(1) << factor << ", dirty nets "
                << session.stats().dirty_nets << "/"
                << session.stats().total_nets << ", calcs "
                << r.waveform_calculations << ", reused " << r.gates_reused
                << ", " << std::setprecision(3) << r.runtime_seconds
                << " s, delay " << r.longest_path_delay * 1e9 << " ns\n";
      json.add_row("edits")
          .set("mode", m.label)
          .set("edit_index", i)
          .set("gate", gate)
          .set("factor", factor)
          .set("dirty_nets", session.stats().dirty_nets)
          .set("waveform_calculations", r.waveform_calculations)
          .set("gates_reused", r.gates_reused)
          .set("runtime_s", r.runtime_seconds)
          .set("delay_ns", r.longest_path_delay * 1e9);
    }

    const double mean_calcs = sum_calcs / static_cast<double>(kEdits);
    const double speedup =
        static_cast<double>(baseline.waveform_calculations) /
        std::max(mean_calcs, 1.0);

    // Equivalence spot-check: one more edit, re-timed incrementally AND
    // from scratch, compared bitwise by the oracle.
    editor.resize_gate(static_cast<netlist::GateId>(pick_gate(rng)), 1.3);
    const sta::incremental::EquivalenceReport eq =
        sta::incremental::verify_incremental(editor, session);
    if (!eq.identical) all_identical = false;

    std::cout << "  => mean incremental calcs " << std::setprecision(1)
              << mean_calcs << ", speedup " << speedup << "x vs full re-run"
              << (m.target_applies ? " (target >= 5x)" : " (informational)")
              << ", oracle " << (eq.identical ? "identical" : eq.mismatch)
              << "\n\n";
    json.add_row("summary")
        .set("mode", m.label)
        .set("baseline_calculations", baseline.waveform_calculations)
        .set("mean_incremental_calculations", mean_calcs)
        .set("speedup", speedup)
        .set("target_applies", m.target_applies)
        .set("baseline_runtime_s", baseline.runtime_seconds)
        .set("mean_incremental_runtime_s",
             sum_runtime / static_cast<double>(kEdits))
        .set("oracle_identical", eq.identical);
    if (m.target_applies && speedup < 5.0) all_fast_enough = false;
  }

  json.root()
      .set("speedup_target", 5.0)
      .set("all_modes_met_target", all_fast_enough)
      .set("all_modes_oracle_identical", all_identical);
  json.write_file(json_path);

  if (!all_identical) {
    std::cout << "FAIL: incremental result diverged from scratch run\n";
    return 1;
  }
  // The 5x criterion is meaningful at full scale; tiny smoke circuits have
  // dirty fractions too large for it to hold.
  if (scale >= 1.0 && !all_fast_enough) {
    std::cout << "FAIL: incremental speedup below the 5x target\n";
    return 1;
  }
  std::cout << "incremental ECO benchmark done\n";
  return 0;
}
