// End-to-end integration of the analysis flow on mid-size generated
// designs: repair loop, validation consistency and clock skew.
#include <gtest/gtest.h>

#include "core/crosstalk_sta.hpp"
#include "core/validation.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "sta/path.hpp"
#include "sta/report.hpp"

namespace xtalk {
namespace {

TEST(Integration, RepairLoopMonotoneOverRounds) {
  core::Design d =
      core::Design::generate(netlist::scaled_spec("int", 62, 600, 10));
  double prev = d.run(sta::AnalysisMode::kWorstCase).longest_path_delay;
  const double best = d.run(sta::AnalysisMode::kBestCase).longest_path_delay;
  for (int round = 0; round < 3; ++round) {
    const sta::StaResult r = d.run(sta::AnalysisMode::kWorstCase);
    std::vector<netlist::NetId> victims;
    for (const sta::PathStep& s : sta::extract_critical_path(r)) {
      if (s.coupled) victims.push_back(s.net);
    }
    if (victims.empty()) break;
    d.isolate_nets(victims);
    const double now = d.run(sta::AnalysisMode::kWorstCase).longest_path_delay;
    EXPECT_LE(now, prev + 1e-12);
    EXPECT_GE(now, best * 0.9);
    prev = now;
  }
}

TEST(Integration, BusValidationTracksOneStepSelection) {
  // On the coupled bus, simulating with exactly the aggressors the
  // one-step rule keeps active must stay below that run's bound.
  core::Design d = core::Design::from_bench(netlist::coupled_bus_bench());
  const sta::StaResult r = d.run(sta::AnalysisMode::kOneStep);
  core::ValidationOptions opt;
  opt.policy = core::AggressorPolicy::kFromTiming;
  const core::ValidationResult vr = core::validate_critical_path(d, r, opt);
  EXPECT_LE(vr.sim_delay, vr.sta_delay * 1.05);
  EXPECT_GT(vr.sim_delay, vr.sta_delay * 0.5);
}

TEST(Integration, ClockSkewSmallAgainstInsertion) {
  const core::Design d =
      core::Design::generate(netlist::scaled_spec("int", 64, 1500, 10));
  const sta::StaResult r = d.run(sta::AnalysisMode::kBestCase);
  const sta::ClockSkewReport skew = compute_clock_skew(r, d.netlist());
  ASSERT_GT(skew.flip_flops, 0u);
  EXPECT_LT(skew.skew, 0.8 * skew.max_insertion);
}

}  // namespace
}  // namespace xtalk
