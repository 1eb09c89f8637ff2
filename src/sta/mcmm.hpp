// Multi-corner/multi-scenario (MCMM) driver: run a list of scenarios over
// one design in a single invocation, sharing everything scenario-invariant
// — netlist, parasitics, levelization and the worker pool — and sharing
// device tables plus NLDM characterization between scenarios on the same
// corner (ScenarioContext). Each scenario's StaResult is
// bitwise identical to a standalone run_sta of that scenario (same corner
// view, same apply_scenario options), for any thread count; the sharing
// only removes redundant construction, never changes a computed value.
#pragma once

#include <cstddef>
#include <vector>

#include "sta/engine.hpp"
#include "sta/scenario.hpp"

namespace xtalk::sta {

/// One scenario's outcome within an MCMM invocation.
struct ScenarioRun {
  Scenario scenario;
  StaResult result;
  /// True when the corner context (tables/NLDM) was built by an earlier
  /// scenario of this invocation and reused here.
  bool shared_corner = false;
  /// Wall seconds spent building this scenario's corner context (0 when
  /// shared or borrowed from the base design).
  double prep_seconds = 0.0;
};

struct McmmResult {
  /// One entry per scenario, in the order of the scenario list.
  std::vector<ScenarioRun> runs;
  /// Distinct (process, vdd_scale, temperature_c) corners the invocation
  /// built.
  std::size_t unique_corners = 0;
  /// End-to-end wall seconds (corner builds + all scenario runs).
  double runtime_seconds = 0.0;
};

/// Run every scenario of `scenarios` (an empty list means one implicit
/// nominal scenario) against `design`, each with apply_scenario(options, s).
/// Throws std::invalid_argument on a malformed scenario (validate_scenario).
/// Scenarios run sequentially on one shared worker pool — the parallelism
/// lives inside each pass, and sequential scenarios keep the per-scenario
/// results bitwise reproducible and the peak memory at a single run's
/// footprint.
McmmResult run_mcmm(const DesignView& design, const StaOptions& options,
                    std::vector<Scenario> scenarios);

}  // namespace xtalk::sta
