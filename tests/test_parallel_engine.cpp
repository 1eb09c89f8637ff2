// Determinism of the level-parallel STA pass: the engine must produce a
// bitwise-identical StaResult for any thread count — arrivals and waveform
// points, diagnostics, and the integer metrics counters/histograms
// (including governor_checks, one per level boundary). This holds because
// the coupling classification is anchored to pass start (static ready
// levels), so no computed value depends on execution order.
//
// Fault-injected (degraded) runs are covered too: gate-scoped FaultSpecs
// fire deterministically regardless of which worker runs the gate.
// Governor-truncated runs obey the anytime contract: every level that
// starts also finishes, and the truncated prefix is conservative against
// the converged run. Plus unit coverage of the thread-pool utility itself.
#include "sta/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace xtalk::sta {
namespace {

const core::Design& parallel_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("par", 77, 400, 12));
  return d;
}

StaResult run_with_threads(AnalysisMode mode, int threads) {
  StaOptions opt;
  opt.mode = mode;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.num_threads = threads;
  return parallel_design().run(opt);
}

const core::Design& invariance_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("invariance", 91, 350, 12));
  return d;
}

StaOptions invariance_options(AnalysisMode mode, int threads) {
  StaOptions opt;
  opt.mode = mode;
  opt.esperance = true;
  opt.timing_windows = true;
  opt.num_threads = threads;
  opt.collect_metrics = true;
  return opt;
}

/// Bitwise equality of two results, including everything the metrics layer
/// guarantees to be deterministic (integer counters, histograms, level
/// shapes, governor checkpoint count) and the diagnostic stream.
void expect_identical(const StaResult& a, const StaResult& b) {
  EXPECT_EQ(a.longest_path_delay, b.longest_path_delay);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.waveform_calculations, b.waveform_calculations);
  EXPECT_EQ(a.critical.net, b.critical.net);
  EXPECT_EQ(a.critical.rising, b.critical.rising);
  EXPECT_EQ(a.critical.arrival, b.critical.arrival);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    EXPECT_EQ(a.endpoints[i].net, b.endpoints[i].net);
    EXPECT_EQ(a.endpoints[i].rising, b.endpoints[i].rising);
    EXPECT_EQ(a.endpoints[i].arrival, b.endpoints[i].arrival);
  }
  ASSERT_EQ(a.timing.size(), b.timing.size());
  for (std::size_t n = 0; n < a.timing.size(); ++n) {
    EXPECT_TRUE(net_timing_identical(a.timing[n], b.timing[n])) << "net " << n;
  }

  // Diagnostics arrive through the deterministic ordering layer at every
  // thread count: same entries, same order.
  ASSERT_EQ(a.diagnostics.entries.size(), b.diagnostics.entries.size());
  EXPECT_EQ(a.diagnostics.dropped, b.diagnostics.dropped);
  for (std::size_t i = 0; i < a.diagnostics.entries.size(); ++i) {
    EXPECT_EQ(a.diagnostics.entries[i].code, b.diagnostics.entries[i].code)
        << "diag " << i;
    EXPECT_EQ(a.diagnostics.entries[i].ctx.gate,
              b.diagnostics.entries[i].ctx.gate)
        << "diag " << i;
  }

  // Governor bookkeeping: runs checkpoint once per level boundary.
  EXPECT_EQ(a.budget.exhausted, b.budget.exhausted);
  EXPECT_EQ(a.budget.governor_checks, b.budget.governor_checks);
  EXPECT_EQ(a.budget.completed_levels, b.budget.completed_levels);
  EXPECT_EQ(a.budget.total_levels, b.budget.total_levels);

  // Integer metrics: bitwise invariant like the results themselves.
  ASSERT_EQ(a.metrics.enabled, b.metrics.enabled);
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
    // Level shapes are structural; wall times are measurements and differ.
    EXPECT_EQ(a.metrics.passes[p].level_gates, b.metrics.passes[p].level_gates)
        << "pass " << p;
    EXPECT_EQ(a.metrics.passes[p].waveform_calcs,
              b.metrics.passes[p].waveform_calcs)
        << "pass " << p;
    EXPECT_EQ(a.metrics.passes[p].gates_evaluated,
              b.metrics.passes[p].gates_evaluated)
        << "pass " << p;
  }
}

using ArrivalMap = std::map<std::pair<netlist::NetId, bool>, double>;

ArrivalMap arrival_map(const StaResult& r) {
  ArrivalMap m;
  for (const EndpointArrival& ep : r.endpoints) {
    m[{ep.net, ep.rising}] = ep.arrival;
  }
  return m;
}

/// The anytime contract (see test_run_governor): reported arrivals are
/// never below the converged ones, and every endpoint is either timed or
/// explicitly untimed.
void expect_conservative(const StaResult& truncated, const StaResult& full) {
  const ArrivalMap converged = arrival_map(full);
  for (const EndpointArrival& ep : truncated.endpoints) {
    const auto it = converged.find({ep.net, ep.rising});
    ASSERT_NE(it, converged.end()) << "net " << ep.net;
    EXPECT_GE(ep.arrival, it->second) << "net " << ep.net;
  }
  const std::set<netlist::NetId> untimed(
      truncated.budget.untimed_endpoints.begin(),
      truncated.budget.untimed_endpoints.end());
  std::set<netlist::NetId> timed;
  for (const EndpointArrival& ep : truncated.endpoints) timed.insert(ep.net);
  for (const netlist::NetId net : untimed) {
    EXPECT_EQ(timed.count(net), 0u)
        << "net " << net << " both timed and untimed";
  }
  for (const EndpointArrival& ep : full.endpoints) {
    EXPECT_TRUE(timed.count(ep.net) == 1 || untimed.count(ep.net) == 1)
        << "net " << ep.net << " vanished from the truncated result";
  }
}

TEST(ParallelEngine, BitIdenticalAcrossThreadCounts) {
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    const StaResult serial = run_with_threads(mode, 1);
    EXPECT_EQ(serial.threads_used, 1);
    EXPECT_EQ(serial.missing_sink_wires, 0u);
    for (const int threads : {2, 8}) {
      const StaResult parallel = run_with_threads(mode, threads);
      EXPECT_EQ(parallel.threads_used, threads);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ParallelEngine, DefaultThreadCountResolvesToHardware) {
  StaOptions opt;
  opt.mode = AnalysisMode::kOneStep;
  opt.num_threads = 0;
  const StaResult r = parallel_design().run(opt);
  EXPECT_GE(r.threads_used, 1);
  EXPECT_GT(r.longest_path_delay, 0.0);
}

TEST(ThreadInvariance, BitwiseAcrossThreadCounts) {
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    const StaResult reference =
        invariance_design().run(invariance_options(mode, 1));
    for (const int threads : {1, 2, 4}) {
      const StaResult r =
          invariance_design().run(invariance_options(mode, threads));
      EXPECT_EQ(r.threads_used, threads);
      expect_identical(reference, r);
    }
  }
}

TEST(ThreadInvariance, RandomNetlistSweep) {
  // Independent random circuits (different seeds, sizes, depths): the
  // invariance is a property of the algorithm, not of one lucky DAG.
  const struct {
    std::uint64_t seed;
    std::size_t cells;
    std::size_t depth;
  } specs[] = {{7, 150, 6}, {131, 220, 16}, {977, 90, 4}};
  for (const auto& s : specs) {
    const core::Design d = core::Design::generate(
        netlist::scaled_spec("sweep", s.seed, s.cells, s.depth));
    const StaResult reference =
        d.run(invariance_options(AnalysisMode::kIterative, 1));
    for (const int threads : {2, 4}) {
      const StaResult r =
          d.run(invariance_options(AnalysisMode::kIterative, threads));
      expect_identical(reference, r);
    }
  }
}

/// The `count` deepest combinational gates (small influence cones).
std::vector<netlist::GateId> deep_gates(const core::Design& design,
                                        std::size_t count) {
  const netlist::Netlist& nl = design.netlist();
  std::vector<netlist::GateId> gates;
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    if (!nl.gate(g).cell->is_sequential()) gates.push_back(g);
  }
  std::sort(gates.begin(), gates.end(),
            [&](netlist::GateId a, netlist::GateId b) {
              return design.dag().gate_level[a] > design.dag().gate_level[b];
            });
  gates.resize(std::min(count, gates.size()));
  return gates;
}

TEST(ThreadInvariance, FaultInjectedDegradedRunsStayInvariant) {
  // Gate-scoped fault injection fires per-gate deterministically, so the
  // degraded (fallback-chain / bound-substituted) results must stay bitwise
  // identical across thread counts too — including the injected-fault
  // diagnostics.
  util::FaultInjector inj;
  for (const netlist::GateId g : deep_gates(invariance_design(), 4)) {
    util::FaultSpec spec;
    spec.kind = util::FaultKind::kNewtonDiverge;
    spec.gate = static_cast<std::int64_t>(g);
    inj.add(spec);
  }
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    StaOptions ref_opt = invariance_options(mode, 1);
    ref_opt.fault_injector = &inj;
    const StaResult reference = invariance_design().run(ref_opt);
    EXPECT_GT(reference.diagnostics.entries.size(), 0u);
    for (const int threads : {1, 2, 4}) {
      StaOptions opt = invariance_options(mode, threads);
      opt.fault_injector = &inj;
      const StaResult r = invariance_design().run(opt);
      expect_identical(reference, r);
    }
  }
}

TEST(GovernorTruncation, TruncatedPrefixIsConservativeAndThreadInvariant) {
  // A count-based budget is checked at level boundaries only — the serial
  // points of the traversal — so the truncation lands on the same level at
  // every thread count, and the anytime result must be conservative
  // against the converged run.
  for (const AnalysisMode mode :
       {AnalysisMode::kOneStep, AnalysisMode::kIterative}) {
    const StaResult full =
        invariance_design().run(invariance_options(mode, 1));
    ASSERT_GT(full.waveform_calculations, 10u);
    StaResult serial;
    for (const int threads : {1, 4}) {
      StaOptions opt = invariance_options(mode, threads);
      opt.budget.max_waveform_calcs = full.waveform_calculations / 3;
      const StaResult truncated = invariance_design().run(opt);
      EXPECT_TRUE(truncated.budget.exhausted) << "threads " << threads;
      EXPECT_EQ(truncated.budget.reason, util::BudgetReason::kWaveformCalcs);
      EXPECT_LT(truncated.waveform_calculations, full.waveform_calculations);
      expect_conservative(truncated, full);
      if (threads == 1) {
        serial = truncated;
      } else {
        expect_identical(serial, truncated);
      }
    }
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i, std::size_t tid) {
    ASSERT_LT(tid, pool.num_threads());
    hits[i].fetch_add(1);
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossLoopsAndEmptyRanges) {
  util::ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { sum += 1; });
  EXPECT_EQ(sum.load(), 0u);
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(0, 17, [&](std::size_t i, std::size_t) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 10u * (16u * 17u / 2u));
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i, std::size_t) {
                                   if (i == 42) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int sum = 0;  // no atomics needed: everything runs on the caller
  pool.parallel_for(0, 10, [&](std::size_t i, std::size_t tid) {
    EXPECT_EQ(tid, 0u);
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, TimingTotalThrowsMidLoopAndCountsAtQuiescence) {
  // The quiescence contract: timing_total()/reset_timing() must refuse to
  // run while a loop is in flight (the per-thread slots are relaxed and
  // would tear), and must report at quiescence.
  util::ThreadPool pool(2);
  pool.set_timing_enabled(true);
  std::atomic<bool> threw{false};
  std::atomic<bool> reset_threw{false};
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t) {
    try {
      (void)pool.timing_total();
    } catch (const std::logic_error&) {
      threw.store(true);
    }
    try {
      pool.reset_timing();
    } catch (const std::logic_error&) {
      reset_threw.store(true);
    }
  });
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(reset_threw.load());
  const util::ThreadPool::Timing t = pool.timing_total();  // quiescent: fine
  EXPECT_EQ(t.loops, 1u);
  pool.reset_timing();
  EXPECT_EQ(pool.timing_total().loops, 0u);
}

TEST(ParallelEngine, LevelBucketsPartitionTopoOrder) {
  const netlist::LevelizedDag& dag = parallel_design().dag();
  ASSERT_EQ(dag.level_begin.size(), dag.num_levels + 1);
  EXPECT_EQ(dag.level_begin.front(), 0u);
  EXPECT_EQ(dag.level_begin.back(), dag.topo_order.size());
  ASSERT_EQ(dag.level_order.size(), dag.topo_order.size());
  std::vector<char> seen(dag.level_order.size(), 0);
  for (std::uint32_t lvl = 0; lvl < dag.num_levels; ++lvl) {
    for (std::uint32_t i = dag.level_begin[lvl]; i < dag.level_begin[lvl + 1];
         ++i) {
      const netlist::GateId g = dag.level_order[i];
      EXPECT_EQ(dag.gate_level[g], lvl);
      EXPECT_FALSE(seen[g]);
      seen[g] = 1;
    }
  }
}

}  // namespace
}  // namespace xtalk::sta
