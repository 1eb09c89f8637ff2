// Multi-corner/multi-scenario (MCMM) shared-work speedup (s38417 scale).
//
// One MCMM invocation runs N scenarios while sharing the netlist,
// parasitics, levelization and worker pool, and sharing device tables +
// NLDM characterization between the scenarios of one corner. This bench
// measures what that buys on the paper's largest circuit: the wall clock
// of a 4-scenario invocation (2 unique corners x 2 coupling treatments)
// against a standalone single-scenario run, and checks the
// bitwise-equivalence contract — every MCMM scenario result must be
// identical, to the last ulp, to a standalone run of that scenario.
//
// Acceptance target: 4 scenarios in < 2.5x the single-scenario wall (the
// ratio ships in the --json report as `mcmm_over_single_ratio`).
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/mcmm.hpp"
#include "sta/report.hpp"
#include "table_common.hpp"

namespace xtalk::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The 4-scenario signoff set: two V/T corners, each analyzed plain and
/// with an extra coupling treatment (derate / classical doubled caps).
std::vector<sta::Scenario> scenario_set() {
  std::vector<sta::Scenario> s(4);
  s[0].name = "fast";
  s[0].vdd_scale = 1.1;
  s[0].temperature_c = -40.0;
  s[1].name = "fast_derated";
  s[1].vdd_scale = 1.1;
  s[1].temperature_c = -40.0;
  s[1].coupling_derate = 1.15;
  s[2].name = "slow";
  s[2].vdd_scale = 0.9;
  s[2].temperature_c = 125.0;
  s[3].name = "slow_doubled";
  s[3].vdd_scale = 0.9;
  s[3].temperature_c = 125.0;
  s[3].override_mode = true;
  s[3].mode = sta::AnalysisMode::kStaticDoubled;
  return s;
}

/// Standalone run of one scenario: fresh corner context (tables + NLDM
/// characterization) + unshared engine run — what N separate invocations
/// would each pay.
sta::StaResult run_standalone(const sta::DesignView& base,
                              const sta::StaOptions& options,
                              const sta::Scenario& s) {
  auto ctx = sta::ScenarioContext::make(
      base, s, options.delay_model == sta::DelayModel::kNldm);
  sta::StaOptions opt = sta::apply_scenario(options, s);
  return sta::run_sta(ctx->view(base), opt);
}

bool results_identical(const sta::StaResult& a, const sta::StaResult& b) {
  if (a.timing.size() != b.timing.size()) return false;
  for (std::size_t i = 0; i < a.timing.size(); ++i) {
    if (!sta::net_timing_identical(a.timing[i], b.timing[i])) return false;
  }
  // Bitwise: the scalar summary must agree exactly, not approximately.
  return a.longest_path_delay == b.longest_path_delay &&
         a.endpoints.size() == b.endpoints.size();
}

}  // namespace
}  // namespace xtalk::bench

int main(int argc, char** argv) {
  using namespace xtalk;
  using namespace xtalk::bench;

  netlist::GeneratorSpec spec = netlist::s38417_like();
  const auto [scale, num_threads] = size_from_env(spec);

  std::cout << "=== MCMM shared-work speedup: " << spec.name << " ("
            << spec.num_cells << " cells, seed " << spec.seed << ") ===\n\n";
  const core::Design design = core::Design::generate(spec);

  // NLDM one-step: the delay model signoff sweeps actually run N times, and
  // the model whose per-corner characterization cost the sharing amortizes.
  sta::StaOptions base;
  base.mode = sta::AnalysisMode::kOneStep;
  base.delay_model = sta::DelayModel::kNldm;
  base.num_threads = num_threads;
  const std::vector<sta::Scenario> scenarios = scenario_set();

  JsonReport json;
  json.root()
      .set("benchmark", "mcmm")
      .set("circuit", spec.name)
      .set("seed", spec.seed)
      .set("scale", scale)
      .set("cells", spec.num_cells)
      .set("scenarios_total", scenarios.size());

  // Reference: one scenario standalone (corner build + run), the unit the
  // acceptance ratio is measured against.
  const auto t_single0 = std::chrono::steady_clock::now();
  const sta::StaResult single = run_standalone(design.view(), base,
                                               scenarios[0]);
  const double t_single = seconds_since(t_single0);
  std::cout << "single scenario (" << scenarios[0].name
            << ", standalone): " << std::fixed << std::setprecision(3)
            << t_single << " s, delay "
            << single.longest_path_delay * 1e9 << " ns\n";

  // The MCMM invocation: all four scenarios, shared front end + corners.
  const sta::McmmResult mcmm = design.run_scenarios(base, scenarios);
  std::cout << "mcmm " << mcmm.runs.size() << " scenarios ("
            << mcmm.unique_corners << " unique corners): "
            << mcmm.runtime_seconds << " s\n\n";

  // Bitwise-equivalence oracle: every scenario of the invocation against
  // its standalone run.
  bool oracle_ok = true;
  for (const sta::ScenarioRun& run : mcmm.runs) {
    const sta::StaResult standalone =
        run_standalone(design.view(), base, run.scenario);
    const bool same = results_identical(run.result, standalone);
    if (!same) {
      std::cout << "ORACLE FAILURE: scenario " << run.scenario.name
                << " differs from its standalone run\n";
      oracle_ok = false;
    }
  }
  std::cout << "bitwise oracle: " << (oracle_ok ? "ok" : "FAILED") << "\n\n";

  // Merged worst-slack view (required time = 110% of the slowest scenario).
  double worst_delay = 0.0;
  for (const sta::ScenarioRun& run : mcmm.runs) {
    worst_delay = std::max(worst_delay, run.result.longest_path_delay);
  }
  const double required_time = 1.1 * worst_delay;
  const sta::McmmSlackReport slack =
      sta::merge_worst_slack(mcmm, required_time);
  std::cout << sta::format_mcmm_slack(slack, 10) << "\n";
  const std::string worst_owner =
      slack.endpoints.empty() ? scenarios[0].name
                              : slack.scenarios[slack.endpoints[0].worst_scenario];

  const double ratio = t_single > 0.0 ? mcmm.runtime_seconds / t_single : 0.0;
  std::cout << "mcmm / single-scenario wall ratio: " << std::setprecision(2)
            << ratio << " (target < 2.5 for 4 scenarios)\n";

  json.root()
      .set("single_scenario_s", t_single)
      .set("mcmm_s", mcmm.runtime_seconds)
      .set("mcmm_over_single_ratio", ratio)
      .set("ratio_target", 2.5)
      .set("unique_corners", mcmm.unique_corners)
      .set("oracle_ok", oracle_ok)
      .set("required_time_ns", required_time * 1e9)
      .set("worst_scenario", worst_owner)
      .set("untimed_pairs", slack.untimed_pairs);

  // One row per scenario, invocation order (order-pinned like every bench
  // array).
  for (const sta::ScenarioRun& run : mcmm.runs) {
    JsonObject& row = json.add_row("scenarios");
    row.set("prep_s", run.prep_seconds)
        .set("shared_corner", run.shared_corner);
    ScenarioRowInfo info;
    info.scenario = run.scenario.name;
    info.scenarios_total = mcmm.runs.size();
    info.worst_scenario = worst_owner;
    fill_result_row(row, run.result, info);
  }

  json.write_file(json_path_from_args(argc, argv));
  return oracle_ok ? 0 : 1;
}
