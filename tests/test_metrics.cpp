// Engine metrics: counters/histograms must be bitwise thread-count
// invariant and collection must never change the computed delays. Plus
// golden-output coverage of format_result_summary.
#include "sta/metrics.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/report.hpp"

namespace xtalk::sta {
namespace {

const core::Design& metrics_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("met", 31, 200, 10));
  return d;
}

StaResult run_with(AnalysisMode mode, int threads, bool collect) {
  StaOptions opt;
  opt.mode = mode;
  opt.num_threads = threads;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.collect_metrics = collect;
  return metrics_design().run(opt);
}

// ---------------------------------------------------------------------------
// MetricsRegistry unit behaviour
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersSumAcrossShards) {
  MetricsRegistry reg(3);
  reg.add(0, EngineCounter::kBeSteps, 5);
  reg.add(1, EngineCounter::kBeSteps, 7);
  reg.add(2, EngineCounter::kBeSteps);
  reg.add(1, EngineCounter::kDegradedArcs, 2);
  EXPECT_EQ(reg.counter_total(EngineCounter::kBeSteps), 13u);
  EXPECT_EQ(reg.counter_total(EngineCounter::kDegradedArcs), 2u);
  MetricsSnapshot snap;
  reg.reduce_into(&snap);
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.counter(EngineCounter::kBeSteps), 13u);
}

TEST(MetricsRegistry, HistogramTracksMinMaxMeanAndBuckets) {
  MetricsRegistry reg(2);
  reg.observe(0, EngineHistogram::kPwlPointsPerNet, 0);
  reg.observe(0, EngineHistogram::kPwlPointsPerNet, 3);
  reg.observe(1, EngineHistogram::kPwlPointsPerNet, 100);
  MetricsSnapshot snap;
  reg.reduce_into(&snap);
  const HistogramSummary& h = snap.histogram(EngineHistogram::kPwlPointsPerNet);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 103u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_NEAR(h.mean(), 103.0 / 3.0, 1e-12);
  EXPECT_EQ(h.buckets[0], 1u);  // v == 0
  EXPECT_EQ(h.buckets[2], 1u);  // bit_width(3) == 2
  EXPECT_EQ(h.buckets[7], 1u);  // bit_width(100) == 7
}

TEST(MetricsRegistry, PassBookkeepingComputesDeltas) {
  MetricsRegistry reg(1);
  reg.begin_pass(0, /*waveform_calcs=*/10, /*gates_reused=*/2);
  reg.add(0, EngineCounter::kGatesEvaluated, 4);
  reg.add_level(4, 0.5);
  reg.end_pass(/*waveform_calcs=*/25, /*gates_reused=*/5);
  MetricsSnapshot snap;
  reg.reduce_into(&snap);
  ASSERT_EQ(snap.passes.size(), 1u);
  EXPECT_EQ(snap.passes[0].waveform_calcs, 15u);
  EXPECT_EQ(snap.passes[0].gates_reused, 3u);
  EXPECT_EQ(snap.passes[0].gates_evaluated, 4u);
  ASSERT_EQ(snap.passes[0].level_gates.size(), 1u);
  EXPECT_EQ(snap.passes[0].level_gates[0], 4u);
  EXPECT_GT(snap.passes[0].wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(EngineMetrics, OffByDefault) {
  const StaResult r = run_with(AnalysisMode::kOneStep, 1, /*collect=*/false);
  EXPECT_FALSE(r.metrics.enabled);
  // The summary has no metrics block when collection was off.
  EXPECT_EQ(format_result_summary(r).find("metrics:"), std::string::npos);
}

TEST(EngineMetrics, SnapshotIsPopulatedAndConsistent) {
  const StaResult r = run_with(AnalysisMode::kIterative, 2, /*collect=*/true);
  const MetricsSnapshot& m = r.metrics;
  ASSERT_TRUE(m.enabled);
  EXPECT_EQ(m.threads, r.threads_used);
  EXPECT_EQ(m.waveform_calcs, r.waveform_calculations);
  EXPECT_EQ(m.governor_checkpoints, r.budget.governor_checks);
  EXPECT_GT(m.counter(EngineCounter::kBeSteps), 0u);
  EXPECT_GT(m.counter(EngineCounter::kNewtonIterations), 0u);
  EXPECT_GT(m.counter(EngineCounter::kGatesEvaluated), 0u);
  EXPECT_GT(m.counter(EngineCounter::kCouplingClassifications), 0u);
  EXPECT_GT(m.histogram(EngineHistogram::kPwlPointsPerNet).count, 0u);
  EXPECT_GT(m.histogram(EngineHistogram::kLevelGates).count, 0u);
  EXPECT_GT(m.run_wall_seconds, 0.0);

  ASSERT_EQ(m.passes.size(), static_cast<std::size_t>(r.passes));
  std::uint64_t pass_calcs = 0;
  std::uint64_t pass_gates = 0;
  for (const PassMetrics& p : m.passes) {
    pass_calcs += p.waveform_calcs;
    pass_gates += p.gates_evaluated;
    EXPECT_FALSE(p.level_gates.empty());
    EXPECT_EQ(p.level_gates.size(), p.level_wall_seconds.size());
  }
  // Every waveform calculation and gate evaluation happens inside a pass.
  EXPECT_EQ(pass_calcs, r.waveform_calculations);
  EXPECT_EQ(pass_gates, m.counter(EngineCounter::kGatesEvaluated));
}

TEST(EngineMetrics, CollectionDoesNotChangeDelays) {
  const StaResult off = run_with(AnalysisMode::kIterative, 2, false);
  const StaResult on = run_with(AnalysisMode::kIterative, 2, true);
  EXPECT_EQ(off.longest_path_delay, on.longest_path_delay);
  EXPECT_EQ(off.passes, on.passes);
  EXPECT_EQ(off.waveform_calculations, on.waveform_calculations);
  ASSERT_EQ(off.endpoints.size(), on.endpoints.size());
  for (std::size_t i = 0; i < off.endpoints.size(); ++i) {
    EXPECT_EQ(off.endpoints[i].arrival, on.endpoints[i].arrival);
  }
}

TEST(EngineMetrics, CountersAreBitwiseThreadCountInvariant) {
  const StaResult a = run_with(AnalysisMode::kIterative, 1, true);
  const StaResult b = run_with(AnalysisMode::kIterative, 4, true);
  EXPECT_EQ(a.longest_path_delay, b.longest_path_delay);
  EXPECT_EQ(a.waveform_calculations, b.waveform_calculations);
  EXPECT_EQ(a.budget.governor_checks, b.budget.governor_checks);
  for (std::size_t c = 0; c < kNumEngineCounters; ++c) {
    EXPECT_EQ(a.metrics.counters[c], b.metrics.counters[c])
        << engine_counter_name(static_cast<EngineCounter>(c));
  }
  for (std::size_t h = 0; h < kNumEngineHistograms; ++h) {
    const HistogramSummary& ha = a.metrics.histograms[h];
    const HistogramSummary& hb = b.metrics.histograms[h];
    EXPECT_EQ(ha.count, hb.count)
        << engine_histogram_name(static_cast<EngineHistogram>(h));
    EXPECT_EQ(ha.sum, hb.sum);
    EXPECT_EQ(ha.min, hb.min);
    EXPECT_EQ(ha.max, hb.max);
    EXPECT_EQ(ha.buckets, hb.buckets);
  }
  ASSERT_EQ(a.metrics.passes.size(), b.metrics.passes.size());
  for (std::size_t p = 0; p < a.metrics.passes.size(); ++p) {
    EXPECT_EQ(a.metrics.passes[p].waveform_calcs,
              b.metrics.passes[p].waveform_calcs);
    EXPECT_EQ(a.metrics.passes[p].gates_evaluated,
              b.metrics.passes[p].gates_evaluated);
    EXPECT_EQ(a.metrics.passes[p].level_gates,
              b.metrics.passes[p].level_gates);
  }
}

TEST(EngineMetrics, IncrementalReplayReportsReusedGates) {
  core::Design design =
      core::Design::generate(netlist::scaled_spec("met-inc", 7, 120, 8));
  incremental::DesignEditor editor = design.make_editor();
  StaOptions opt;
  opt.mode = AnalysisMode::kOneStep;
  opt.num_threads = 1;
  opt.collect_metrics = true;
  incremental::IncrementalSta session(editor, opt);
  const StaResult baseline = session.run();
  ASSERT_TRUE(baseline.metrics.enabled);
  EXPECT_GT(baseline.metrics.counter(EngineCounter::kGatesEvaluated), 0u);

  const StaResult replay = session.run();  // no edits: everything reused
  ASSERT_TRUE(replay.metrics.enabled);
  EXPECT_GT(replay.metrics.gates_reused, 0u);
  EXPECT_EQ(replay.metrics.gates_reused, replay.gates_reused);
  EXPECT_EQ(replay.metrics.counter(EngineCounter::kGatesEvaluated), 0u);
}

// ---------------------------------------------------------------------------
// format_result_summary golden output (satellite: empty/bogus suppression)
// ---------------------------------------------------------------------------

TEST(ResultSummary, DefaultResultPrintsNoBogusSections) {
  const StaResult empty;
  EXPECT_EQ(format_result_summary(empty),
            "longest path: none (no timed endpoints)\n"
            "passes 0, threads 1, waveform calculations 0\n");
}

TEST(ResultSummary, PopulatedResultGoldenString) {
  StaResult r;
  r.longest_path_delay = 2.5e-9;
  r.critical.net = 17;
  r.critical.rising = true;
  r.passes = 3;
  r.threads_used = 2;
  r.waveform_calculations = 1234;
  r.gates_reused = 56;
  EXPECT_EQ(format_result_summary(r),
            "longest path 2.500 ns (net 17, rise)\n"
            "passes 3, threads 2, waveform calculations 1234, gates reused "
            "56\n");
}

TEST(ResultSummary, MetricsBlockAppearsWhenEnabled) {
  const StaResult r = run_with(AnalysisMode::kOneStep, 1, true);
  const std::string s = format_result_summary(r);
  EXPECT_NE(s.find("metrics: waveform calcs"), std::string::npos);
  EXPECT_NE(s.find("pwl points/net"), std::string::npos);
  EXPECT_NE(s.find("pass 0:"), std::string::npos);
  EXPECT_NE(s.find("pool: utilization"), std::string::npos);
  // The serial time between passes: run wall minus the pass walls.
  double in_passes = 0.0;
  for (const PassMetrics& p : r.metrics.passes) in_passes += p.wall_seconds;
  std::ostringstream outside;
  outside << std::fixed << std::setprecision(3) << "  outside passes: "
          << r.metrics.run_wall_seconds - in_passes << " s of "
          << r.metrics.run_wall_seconds << " s run\n";
  EXPECT_NE(s.find(outside.str()), std::string::npos) << s;
  // The standalone formatter is empty on a disabled snapshot.
  EXPECT_TRUE(format_metrics_summary(MetricsSnapshot{}).empty());
}

}  // namespace
}  // namespace xtalk::sta
