// Tests of the benchmark itself: the metric catalog, the percentile rule,
// the correctness gates (each must fire on a deliberately corrupted
// output), span self times, the result line, and tiny-scale smoke runs of
// every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "core/crosstalk_sta.hpp"
#include "metrics.hpp"
#include "oracles.hpp"
#include "spans.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace xtalk;

constexpr double kSmokeScale = 0.01;

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') ||
                    std::strchr("_/%.-", c) != nullptr;
    if (!ok) return false;
  }
  return true;
}

TEST(MetricCatalog, NamesAreValidUniqueAndCarryUnits) {
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& m : *specs) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(valid_unit(m.unit)) << m.name << " [" << m.unit << "]";
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  bool has_setup = false;
  for (const MetricSpec& m : end_to_end_specs()) {
    has_setup = has_setup || (std::string(m.name) == "setup_s" &&
                              std::string(m.unit) == "s");
  }
  EXPECT_TRUE(has_setup);
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.9), 90);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentiles, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_TRUE(tail_supported(100, 0.90));
  EXPECT_FALSE(tail_supported(99, 0.90));
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
}

TEST(Percentiles, WorkloadSampleCountsMeetTheRule) {
  EXPECT_TRUE(tail_supported(kEcoEdits, 0.90));
  std::size_t slack = 0, eco = 0;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    slack += service_counts(c).slack;
    eco += service_counts(c).eco;
  }
  EXPECT_TRUE(tail_supported(slack, 0.99));
  EXPECT_TRUE(tail_supported(eco, 0.90));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"bench.op", 0, 100, -1, 1, 0};
  spans[1] = {"sta.run", 10, 70, 0, 1, 0};
  spans[2] = {"delaycalc.x", 20, 30, 1, 1, 0};
  const auto self = SpanRecorder::self_seconds(spans);
  EXPECT_NEAR(self.at("bench"), 40e-9, 1e-15);
  EXPECT_NEAR(self.at("sta"), 50e-9, 1e-15);
  EXPECT_NEAR(self.at("delaycalc"), 10e-9, 1e-15);
}

TEST(ResultLine, MissingMetricMakesTheRunIncorrect) {
  Outcome out;
  out.attempted = 3;
  out.set("setup_s", 1.5);
  const std::string line = result_line(out, {{"setup_s", "s"}});
  EXPECT_NE(line.find("\"correct\": true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
  const std::string bad = result_line(out, {{"setup_s", "s"}, {"x", "s"}});
  EXPECT_NE(bad.find("\"correct\": false"), std::string::npos) << bad;
}

/// A small analyzed design shared by the gate tests.
struct Fixture {
  core::Design design = core::Design::generate(design_spec(kSmokeScale));
  sta::StaResult result = [this] {
    sta::StaOptions opt;
    opt.mode = sta::AnalysisMode::kOneStep;
    opt.num_threads = 2;
    return design.run(opt);
  }();
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

double bump(double x) { return std::nextafter(x, 1.0); }

TEST(Gates, SignoffFiresOnEachViolation) {
  const sta::StaResult& r = fixture().result;
  const double bound = r.longest_path_delay;
  EXPECT_EQ(check_signoff(r, 0.9 * bound), "");
  EXPECT_NE(check_signoff(r, bump(bound)), "");
  EXPECT_NE(check_signoff(r, 0.0), "");
  sta::StaResult diag = r;
  diag.diagnostics.dropped = 1;
  EXPECT_NE(check_signoff(diag, 0.9 * bound), "");
  sta::StaResult missing = r;
  missing.missing_sink_wires = 1;
  EXPECT_NE(check_signoff(missing, 0.9 * bound), "");
  sta::StaResult truncated = r;
  truncated.budget.exhausted = true;
  EXPECT_NE(check_signoff(truncated, 0.9 * bound), "");
}

TEST(Gates, EquivalenceFiresOnMismatch) {
  const Fixture& f = fixture();
  sta::incremental::DesignEditor editor(f.design.view());
  sta::StaOptions opt;
  opt.mode = sta::AnalysisMode::kOneStep;
  opt.num_threads = 2;
  sta::incremental::IncrementalSta session(editor, opt);
  session.run();
  editor.resize_gate(0, 1.2);
  EXPECT_EQ(check_equivalence(
                sta::incremental::verify_incremental(editor, session, 2)),
            "");
  sta::StaResult corrupted = f.result;
  corrupted.endpoints.back().arrival = bump(corrupted.endpoints.back().arrival);
  EXPECT_NE(check_equivalence(
                sta::incremental::compare_results(f.result, corrupted)),
            "");
}

TEST(Gates, RemoteRunFiresOnEachCorruption) {
  const sta::StaResult& r = fixture().result;
  const service::RunResultMsg good = service::RunResultMsg::from_result(r);
  EXPECT_EQ(check_remote_run(good, r), "");
  service::RunResultMsg m = good;
  m.endpoints[m.endpoints.size() / 2].arrival =
      bump(m.endpoints[m.endpoints.size() / 2].arrival);
  EXPECT_NE(check_remote_run(m, r), "");
  m = good;
  m.longest_path_delay = bump(m.longest_path_delay);
  EXPECT_NE(check_remote_run(m, r), "");
  m = good;
  m.endpoints.pop_back();
  EXPECT_NE(check_remote_run(m, r), "");
  m = good;
  m.budget_exhausted = true;
  EXPECT_NE(check_remote_run(m, r), "");
  m = good;
  m.passes += 1;
  EXPECT_NE(check_remote_run(m, r), "");
  m = good;
  m.diagnostics_dropped = 1;
  EXPECT_NE(check_remote_run(m, r), "");
}

TEST(Gates, EndpointsAndSlackFireOnCorruption) {
  const sta::StaResult& r = fixture().result;
  service::EndpointsMsg m;
  m.longest_path_delay = r.longest_path_delay;
  m.critical = {r.critical.net, r.critical.rising, r.critical.arrival};
  for (const sta::EndpointArrival& e : r.endpoints) {
    m.endpoints.push_back({e.net, e.rising, e.arrival});
  }
  EXPECT_EQ(check_endpoints(m, r), "");
  service::EndpointsMsg bad = m;
  bad.endpoints.front().rising = !bad.endpoints.front().rising;
  EXPECT_NE(check_endpoints(bad, r), "");

  const sta::EndpointArrival& ep = r.endpoints.front();
  service::SlackMsg s;
  s.valid = true;
  s.arrival = ep.arrival;
  s.slack = 10e-9 - ep.arrival;
  EXPECT_EQ(check_slack(s, ep, 10e-9), "");
  service::SlackMsg wrong = s;
  wrong.slack = bump(wrong.slack);
  EXPECT_NE(check_slack(wrong, ep, 10e-9), "");
  wrong = s;
  wrong.valid = false;
  EXPECT_NE(check_slack(wrong, ep, 10e-9), "");
}

Config smoke_config(const std::string& workload, bool trace) {
  Config cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.trace = trace;
  cfg.scale = kSmokeScale;
  return cfg;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, UntracedRunPassesAndReportsEveryEndToEndMetric) {
  const Outcome out = run_workload(smoke_config(GetParam(), false));
  EXPECT_TRUE(out.correct()) << (out.errors.empty() ? "" : out.errors.front());
  EXPECT_GT(out.attempted, 0u);
  for (const MetricSpec& m : end_to_end_specs()) {
    ASSERT_TRUE(out.metrics.count(m.name)) << m.name;
    EXPECT_GT(out.metrics.at(m.name), 0.0) << m.name;
  }
}

TEST_P(Smoke, TracedRunReportsEveryPerLayerMetric) {
  const Outcome out = run_workload(smoke_config(GetParam(), true));
  EXPECT_TRUE(out.correct()) << (out.errors.empty() ? "" : out.errors.front());
  for (const MetricSpec& m : per_layer_specs()) {
    EXPECT_TRUE(out.metrics.count(m.name)) << m.name;
  }
  EXPECT_GT(out.metrics.at("trace.spans"), 0.0);
  EXPECT_GT(out.metrics.at("netlist.gates"), 0.0);
  EXPECT_EQ(out.metrics.at("delaycalc.degraded_arcs"), 0.0);
}

TEST_P(Smoke, SameSeedGivesTheSameBound) {
  const Outcome a = run_workload(smoke_config(GetParam(), false));
  const Outcome b = run_workload(smoke_config(GetParam(), false));
  const double x = a.metrics.at("bound_delay");
  const double y = b.metrics.at("bound_delay");
  EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
