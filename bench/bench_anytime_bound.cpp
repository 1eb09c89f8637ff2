// Anytime-bound tightness under a shrinking run budget (s38417 scale).
//
// The governed engine returns a provably conservative partial result when
// its budget runs out. This bench quantifies what that buys: sweep the
// waveform-calculation budget (the deterministic analogue of a deadline)
// and a set of wall-clock deadlines from "almost nothing" to "enough to
// converge", and report for each truncation point how tight the anytime
// bound is against the fully converged iterative analysis — endpoint
// coverage, bound slack on the critical path, and the governor overhead.
//
// Output: human-readable table plus the shared --json <path> report with
// one row per budget point (arrays "calc_sweep" and "deadline_sweep").
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "table_common.hpp"

namespace xtalk::bench {
namespace {

sta::StaOptions base_options(int num_threads) {
  sta::StaOptions opt;
  opt.mode = sta::AnalysisMode::kIterative;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.num_threads = num_threads;
  return opt;
}

struct SweepPoint {
  std::string label;
  sta::StaResult result;
};

void print_and_record(JsonReport& json, const char* array_name,
                      const std::vector<SweepPoint>& points,
                      const sta::StaResult& full,
                      std::size_t total_endpoints) {
  std::cout << std::left << std::setw(18) << "budget" << std::right
            << std::setw(12) << "delay_ns" << std::setw(12) << "slack_ns"
            << std::setw(10) << "passes" << std::setw(12) << "levels"
            << std::setw(10) << "timed" << std::setw(10) << "checks"
            << "\n";
  for (const SweepPoint& p : points) {
    const sta::StaResult& r = p.result;
    // Bound slack: how much the truncated bound overshoots the converged
    // delay (0 once the budget covers the whole run). A truncated pass-1
    // prefix that missed the critical endpoint reports a shorter longest
    // path — coverage (timed endpoints) qualifies the number.
    const double slack_ns =
        (r.longest_path_delay - full.longest_path_delay) * 1e9;
    const std::size_t timed = total_endpoints >= r.budget.untimed_endpoints.size()
            ? total_endpoints - r.budget.untimed_endpoints.size()
            : 0;
    std::cout << std::left << std::setw(18) << p.label << std::right
              << std::fixed << std::setprecision(3) << std::setw(12)
              << r.longest_path_delay * 1e9 << std::setw(12) << slack_ns
              << std::setw(10) << r.budget.completed_passes << std::setw(12)
              << (std::to_string(r.budget.completed_levels) + "/" +
                  std::to_string(r.budget.total_levels))
              << std::setw(10) << timed << std::setw(10)
              << r.budget.governor_checks << "\n";
    JsonObject& row = json.add_row(array_name);
    row.set("budget", p.label).set("bound_slack_ns", slack_ns)
        .set("timed_endpoints", timed)
        .set("total_endpoints", total_endpoints);
    fill_result_row(row, r);
  }
  std::cout << "\n";
}

}  // namespace
}  // namespace xtalk::bench

int main(int argc, char** argv) {
  using namespace xtalk;
  using namespace xtalk::bench;

  netlist::GeneratorSpec spec = netlist::s38417_like();
  // Full s38417 converges in minutes; default smaller.
  const auto [scale, num_threads] = size_from_env(spec, 0.25);

  std::cout << "=== anytime bound tightness: " << spec.name << " ("
            << spec.num_cells << " cells, seed " << spec.seed << ") ===\n\n";
  const core::Design design = core::Design::generate(spec);

  JsonReport json;
  json.root()
      .set("benchmark", "anytime_bound")
      .set("circuit", spec.name)
      .set("seed", spec.seed)
      .set("scale", scale)
      .set("cells", spec.num_cells);

  // The converged reference: unlimited iterative run.
  const sta::StaResult full = design.run(base_options(num_threads));
  std::size_t total_endpoints = 0;
  {
    // Endpoints are per (net, direction); count distinct nets.
    std::vector<netlist::NetId> nets;
    for (const sta::EndpointArrival& ep : full.endpoints) nets.push_back(ep.net);
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    total_endpoints = nets.size();
  }
  std::cout << "converged: " << std::fixed << std::setprecision(3)
            << full.longest_path_delay * 1e9 << " ns, "
            << full.waveform_calculations << " waveform calculations, "
            << full.passes << " passes, " << std::setprecision(2)
            << full.runtime_seconds << " s\n\n";
  json.root()
      .set("converged_delay_ns", full.longest_path_delay * 1e9)
      .set("converged_waveform_calculations", full.waveform_calculations)
      .set("converged_runtime_s", full.runtime_seconds);

  // Sweep 1: waveform-calculation budgets (deterministic truncation; the
  // same points reproduce bitwise at any thread count).
  std::cout << "--- calc-budget sweep (fraction of converged calcs) ---\n";
  std::vector<SweepPoint> calc_points;
  for (const int pct : {10, 25, 50, 75, 90, 100}) {
    sta::StaOptions opt = base_options(num_threads);
    opt.budget.max_waveform_calcs = std::max<std::size_t>(
        1, full.waveform_calculations * static_cast<std::size_t>(pct) / 100);
    if (pct == 100) opt.budget.max_waveform_calcs = 0;  // unlimited
    calc_points.push_back(
        {std::to_string(pct) + "% calcs", design.run(opt)});
  }
  print_and_record(json, "calc_sweep", calc_points, full, total_endpoints);

  // Sweep 2: wall-clock deadlines as fractions of the converged runtime.
  // Not bitwise reproducible across machines (that is the point of a
  // deadline) but each run still honours the anytime contract.
  std::cout << "--- deadline sweep (fraction of converged runtime) ---\n";
  std::vector<SweepPoint> deadline_points;
  for (const int pct : {5, 20, 50, 150}) {
    sta::StaOptions opt = base_options(num_threads);
    opt.budget.deadline_ms =
        std::max(1.0, full.runtime_seconds * 1e3 * pct / 100.0);
    deadline_points.push_back(
        {std::to_string(pct) + "% runtime", design.run(opt)});
  }
  print_and_record(json, "deadline_sweep", deadline_points, full,
                   total_endpoints);

  json.write_file(json_path_from_args(argc, argv));
  return 0;
}
