// Full flow on a synthetic ISCAS89-scale sequential circuit: generate,
// build the clock tree, place, route, extract, run all five analysis modes
// and validate the worst-case longest path against the transistor-level
// transient simulator.
//
// Usage: full_flow [num_cells] [depth] [seed]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "core/validation.hpp"
#include "sta/path.hpp"
#include "sta/report.hpp"

int main(int argc, char** argv) {
  using namespace xtalk;

  const std::size_t cells = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2000;
  const std::size_t depth = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 18;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;

  std::cout << "generating " << cells << "-cell circuit (depth " << depth
            << ", seed " << seed << ")...\n";
  core::Design design =
      core::Design::generate(netlist::scaled_spec("example", seed, cells, depth));

  const core::DesignStats st = design.stats();
  std::cout << st.cells << " cells / " << st.flip_flops << " FFs / "
            << st.transistors << " transistors, " << st.nets << " nets\n"
            << "wire " << st.total_wire_length * 1e3 << " mm, coupling pairs "
            << st.coupling_pairs << ", coupling cap "
            << st.total_coupling_cap * 1e12 << " pF (vs ground "
            << st.total_wire_cap * 1e12 << " pF)\n\n";

  std::vector<sta::TableRow> rows;
  sta::StaResult worst_result;
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kBestCase, sta::AnalysisMode::kStaticDoubled,
        sta::AnalysisMode::kWorstCase, sta::AnalysisMode::kOneStep,
        sta::AnalysisMode::kIterative}) {
    sta::StaResult r = design.run(mode);
    rows.push_back(sta::row_from_result(mode, r));
    std::cout << "  " << sta::mode_name(mode) << ": "
              << r.longest_path_delay * 1e9 << " ns (" << r.runtime_seconds
              << " s, " << r.waveform_calculations << " waveform calcs)\n";
    if (mode == sta::AnalysisMode::kWorstCase) worst_result = std::move(r);
  }
  std::cout << "\n" << sta::format_mode_table("longest path", rows) << "\n";

  std::cout << "process-corner spread (one-step bound on the same "
               "extraction):\n";
  std::vector<sta::Scenario> corners;
  for (const device::ProcessCorner c :
       {device::ProcessCorner::kSlow, device::ProcessCorner::kTypical,
        device::ProcessCorner::kFast}) {
    sta::Scenario s;
    s.name = device::corner_name(c);
    s.process = c;
    corners.push_back(s);
  }
  sta::StaOptions one_step;
  one_step.mode = sta::AnalysisMode::kOneStep;
  for (const sta::ScenarioRun& run :
       design.run_scenarios(one_step, corners).runs) {
    std::cout << "  " << run.scenario.name << ": "
              << run.result.longest_path_delay * 1e9 << " ns\n";
  }
  std::cout << "\n";

  std::cout << "validating worst-case critical path in the transistor-level "
               "simulator...\n";
  core::ValidationOptions vopt;
  vopt.policy = core::AggressorPolicy::kAll;
  const core::ValidationResult vr =
      core::validate_critical_path(design, worst_result, vopt);
  std::cout << "  path gates: " << vr.path_gates << ", devices: " << vr.devices
            << ", aggressors: " << vr.aggressors << "\n"
            << "  STA bound:  " << vr.sta_delay * 1e9 << " ns\n"
            << "  simulation: " << vr.sim_delay * 1e9 << " ns\n";
  return 0;
}
