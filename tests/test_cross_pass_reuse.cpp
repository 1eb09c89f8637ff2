// Cross-pass reuse in iterative mode: a gate whose fanin and coupling
// classification are unchanged from the previous pass keeps that pass's
// result. The contract is exactness — every pass's timing, the endpoints,
// the diagnostics and the pass count are bitwise those of a run that
// recomputes every gate. An armed (even empty) FaultInjector switches
// carrying off, so the same run with an empty injector is the reference.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/dirty.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/incremental/oracle.hpp"
#include "sta/metrics.hpp"
#include "util/fault_injection.hpp"

namespace xtalk::sta {
namespace {

/// Seeded designs of different size and coupling density (a tighter
/// routing pitch puts more coupling cap between neighbours).
struct DesignCase {
  const char* name;
  std::uint64_t seed;
  std::size_t cells;
  std::size_t depth;
  double track_pitch;
};

const DesignCase kDesigns[] = {
    {"sparse120", 3, 120, 8, 3.0e-6},
    {"nominal250", 7, 250, 10, 2.0e-6},
    {"dense400", 13, 400, 12, 1.5e-6},
    {"tight200", 5, 200, 10, 1.2e-6},
};

const core::Design& design(std::size_t i) {
  static std::vector<core::Design> designs = [] {
    std::vector<core::Design> out;
    for (const DesignCase& c : kDesigns) {
      core::FlowOptions flow;
      flow.router.track_pitch = c.track_pitch;
      out.push_back(core::Design::generate(
          netlist::scaled_spec(c.name, c.seed, c.cells, c.depth), flow));
    }
    return out;
  }();
  return designs[i];
}

enum class Variant { kPlain, kEsperance, kTimingWindows };

StaOptions iterative_options(Variant v, int threads) {
  StaOptions opt;
  opt.mode = AnalysisMode::kIterative;
  opt.num_threads = threads;
  opt.collect_metrics = true;
  opt.esperance = v == Variant::kEsperance;
  // A window narrow enough for Esperance to skip gates at this scale, and
  // for a skipped gate to come back active in a later pass.
  opt.esperance_window = 0.5e-9;
  opt.timing_windows = v == Variant::kTimingWindows;
  return opt;
}

struct Traced {
  StaResult result;
  RunTrace trace;
};

Traced run_traced(const DesignView& view, const StaOptions& opt) {
  Traced t;
  StaEngine engine(view, opt);
  t.result = engine.run(&t.trace);
  return t;
}

/// The full-recompute reference: the same options plus an empty injector.
Traced run_reference(const DesignView& view, StaOptions opt) {
  util::FaultInjector none;
  opt.fault_injector = &none;
  return run_traced(view, opt);
}

bool same_diagnostic(const util::Diagnostic& x, const util::Diagnostic& y) {
  return x.code == y.code && x.severity == y.severity &&
         x.ctx.gate == y.ctx.gate && x.ctx.net == y.ctx.net &&
         x.ctx.level == y.ctx.level && x.ctx.pass == y.ctx.pass &&
         x.message == y.message;
}

/// Bitwise comparison of two traced runs: pass by pass, every net; then
/// pass count, endpoints and the (sorted) diagnostic report.
void expect_identical(const Traced& a, const Traced& b) {
  ASSERT_EQ(a.result.passes, b.result.passes);
  ASSERT_EQ(a.trace.passes.size(), b.trace.passes.size());
  for (std::size_t k = 0; k < a.trace.passes.size(); ++k) {
    const std::vector<NetTiming>& ta = a.trace.passes[k].timing;
    const std::vector<NetTiming>& tb = b.trace.passes[k].timing;
    ASSERT_EQ(ta.size(), tb.size());
    std::size_t differing = 0;
    for (std::size_t n = 0; n < ta.size(); ++n) {
      if (!net_timing_identical(ta[n], tb[n])) ++differing;
    }
    EXPECT_EQ(differing, 0u) << "pass " << k;
  }
  EXPECT_EQ(a.result.longest_path_delay, b.result.longest_path_delay);
  ASSERT_EQ(a.result.endpoints.size(), b.result.endpoints.size());
  for (std::size_t i = 0; i < a.result.endpoints.size(); ++i) {
    EXPECT_EQ(a.result.endpoints[i].net, b.result.endpoints[i].net);
    EXPECT_EQ(a.result.endpoints[i].rising, b.result.endpoints[i].rising);
    EXPECT_EQ(a.result.endpoints[i].arrival, b.result.endpoints[i].arrival);
  }
  const util::DiagReport& da = a.result.diagnostics;
  const util::DiagReport& db = b.result.diagnostics;
  EXPECT_EQ(da.dropped, db.dropped);
  ASSERT_EQ(da.entries.size(), db.entries.size());
  for (std::size_t i = 0; i < da.entries.size(); ++i) {
    EXPECT_TRUE(same_diagnostic(da.entries[i], db.entries[i])) << "diag " << i;
  }
}

std::uint64_t last_pass_carried(const StaResult& r) {
  return r.metrics.passes.empty() ? 0 : r.metrics.passes.back().gates_carried;
}

class CrossPassReuse
    : public ::testing::TestWithParam<std::tuple<std::size_t, Variant>> {};

TEST_P(CrossPassReuse, BitwiseEqualsFullRecomputeAtOneAndFourThreads) {
  const auto [d, variant] = GetParam();
  const DesignView view = design(d).view();

  std::vector<std::uint64_t> carried_per_thread_count;
  for (const int threads : {1, 4}) {
    const StaOptions opt = iterative_options(variant, threads);
    const Traced carried = run_traced(view, opt);
    const Traced reference = run_reference(view, opt);
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_identical(carried, reference);

    // Carrying has to happen for the comparison to mean anything, and it
    // only removes work.
    ASSERT_GE(carried.result.passes, 2);
    EXPECT_GT(last_pass_carried(carried.result), 0u);
    EXPECT_EQ(last_pass_carried(reference.result), 0u);
    EXPECT_LT(carried.result.waveform_calculations,
              reference.result.waveform_calculations);
    EXPECT_EQ(carried.result.gates_reused, 0u);  // no RunTrace baseline
    EXPECT_EQ(carried.result.metrics.counter(EngineCounter::kGatesCarried),
              [&] {
                std::uint64_t sum = 0;
                for (const PassMetrics& p : carried.result.metrics.passes) {
                  sum += p.gates_carried;
                }
                return sum;
              }());
    EXPECT_NE(format_metrics_summary(carried.result.metrics)
                  .find(" carried)"),
              std::string::npos);
    carried_per_thread_count.push_back(
        carried.result.metrics.counter(EngineCounter::kGatesCarried));
  }
  EXPECT_EQ(carried_per_thread_count[0], carried_per_thread_count[1]);
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, Variant>>& info) {
  static const char* const kVariants[] = {"Plain", "Esperance",
                                          "TimingWindows"};
  return std::string(kDesigns[std::get<0>(info.param)].name) + "_" +
         kVariants[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CrossPassReuse,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(Variant::kPlain, Variant::kEsperance,
                                         Variant::kTimingWindows)),
    case_name);

// Solver diagnostics without an injector: a tight Newton limit sends some
// arcs down the fallback chain. A gate that reported in pass k-1 is
// recomputed in pass k (its diagnostics carry the pass index), so the
// report stays the reference's entry for entry. The limit keeps the
// report below the sink's capacity, where it is thread-count invariant.
TEST(CrossPassReuseDiagnostics, DiagnosedGatesAreRecomputed) {
  const DesignView view = design(1).view();
  StaOptions opt = iterative_options(Variant::kPlain, 4);
  opt.integration.max_newton = 4;
  const Traced carried = run_traced(view, opt);
  const Traced reference = run_reference(view, opt);
  const util::DiagReport& diags = carried.result.diagnostics;
  ASSERT_EQ(diags.dropped, 0u);
  ASSERT_FALSE(diags.entries.empty());
  EXPECT_GT(diags.entries.back().ctx.pass, 0)
      << "a later pass re-emits the diagnostics";
  expect_identical(carried, reference);
  EXPECT_GT(carried.result.metrics.counter(EngineCounter::kGatesCarried), 0u);
}

// An iterative incremental session: the replay keys reuse on the
// recorded classifications of its RunTrace baseline (and carries across
// passes where a pass is not replayable), and must still match from
// scratch — both the carrying scratch run and the full-recompute
// reference.
TEST(CrossPassReuseIncremental, IterativeEditMatchesScratchAndReference) {
  for (const Variant v : {Variant::kPlain, Variant::kEsperance}) {
    incremental::DesignEditor editor = design(1).make_editor();
    const StaOptions opt = iterative_options(v, 4);
    incremental::IncrementalSta session(editor, opt);
    session.run();

    const netlist::Netlist& nl = editor.netlist();
    netlist::GateId target = netlist::kNoGate;
    for (netlist::GateId g = nl.num_gates() / 2; g < nl.num_gates(); ++g) {
      if (!nl.gate(g).cell->is_sequential()) {
        target = g;
        break;
      }
    }
    ASSERT_NE(target, netlist::kNoGate);
    editor.resize_gate(target, 1.3);

    const incremental::EquivalenceReport eq =
        incremental::verify_incremental(editor, session, 1);
    EXPECT_TRUE(eq.identical) << eq.mismatch;
    EXPECT_GT(session.stats().gates_reused, 0u);

    // The session's state after the edit, against a full recompute.
    const StaResult inc = session.run();
    const Traced reference = run_reference(editor.view(), opt);
    const incremental::EquivalenceReport ref_eq =
        incremental::compare_results(inc, reference.result);
    EXPECT_TRUE(ref_eq.identical) << ref_eq.mismatch;
  }
}

/// A one-gate victim coupled to the end of a 24-inverter chain. Every
/// sixth chain wire is heavy, which puts the aggressor's earliest activity
/// after the victim settles: the timing-window rule grounds the coupling.
struct WindowFlip {
  netlist::Netlist nl{netlist::CellLibrary::half_micron()};
  netlist::NetId victim = netlist::kNoNet;
  netlist::NetId aggressor = netlist::kNoNet;
  std::vector<netlist::NetId> heavy;
  netlist::LevelizedDag dag;
  extract::Parasitics para{0};

  WindowFlip() {
    const netlist::CellLibrary& lib = netlist::CellLibrary::half_micron();
    const netlist::NetId clk = nl.add_net("CLK", netlist::NetKind::kClock);
    nl.mark_primary_input(clk);
    nl.set_clock_net(clk);
    const netlist::NetId q = nl.add_net("q");
    victim = nl.add_net("victim");
    nl.add_gate("ff", lib.get("DFF_X1"), {victim, clk, q});
    nl.add_gate("vinv", lib.get("INV_X1"), {q, victim});
    nl.mark_primary_output(victim);
    const netlist::NetId pi = nl.add_net("pi");
    nl.mark_primary_input(pi);
    netlist::NetId prev = pi;
    for (int i = 0; i < 24; ++i) {
      const netlist::NetId out = nl.add_net("c" + std::to_string(i));
      nl.add_gate("chain" + std::to_string(i), lib.get("INV_X1"),
                  {prev, out});
      if (i % 6 == 5 && i < 23) heavy.push_back(out);
      prev = out;
    }
    aggressor = prev;
    nl.mark_primary_output(aggressor);
    dag = netlist::levelize(nl);
    para = extract::Parasitics(nl.num_nets());
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      para.net(n).wire_cap = 8e-15;
      para.net(n).wire_length = 80e-6;
    }
    for (const netlist::NetId n : heavy) para.net(n).wire_cap = 900e-15;
    para.add_coupling(victim, aggressor, 6e-15, 120e-6);
  }

  DesignView view() const {
    DesignView v;
    v.netlist = &nl;
    v.dag = &dag;
    v.parasitics = &para;
    v.tables = &device::DeviceTableSet::half_micron();
    return v;
  }
};

bool victim_coupled(const incremental::DesignEditor& editor,
                    const StaOptions& opt, netlist::NetId victim) {
  const StaResult r = run_sta(editor.view(), opt);
  return r.timing[victim].rise.coupled || r.timing[victim].fall.coupled;
}

// Lightening the heavy chain wires moves the aggressor's early bound
// before the victim's settle time, so the window rule stops grounding it.
// The victim carries no seed and is outside the one-step static closure
// (its aggressor is driven from a later level): only the reuse test's
// re-classification against the updated early arrays catches the flip.
TEST(CrossPassReuseIncremental, MovedEarlyBoundFlipsUnseededVictimWindow) {
  const WindowFlip fixture;
  incremental::DesignEditor editor(fixture.view());
  StaOptions opt;
  opt.mode = AnalysisMode::kOneStep;
  opt.num_threads = 1;
  opt.timing_windows = true;
  opt.early.aiding_coupling_assist = false;
  incremental::IncrementalSta session(editor, opt);
  session.run();
  ASSERT_FALSE(victim_coupled(editor, opt, fixture.victim))
      << "fixture: the window rule grounds the aggressor";

  for (const netlist::NetId n : fixture.heavy) editor.set_wire_cap(n, 8e-15);
  ASSERT_TRUE(victim_coupled(editor, opt, fixture.victim))
      << "fixture: the edits bring the aggressor's window back";
  const incremental::DirtySet dirty =
      incremental::build_dirty_set(editor.view(), opt, editor.log());
  ASSERT_FALSE(dirty.seed_net[fixture.victim]);
  ASSERT_FALSE(dirty.dirty_net[fixture.victim]);

  const incremental::EquivalenceReport eq =
      incremental::verify_incremental(editor, session, 1);
  EXPECT_TRUE(eq.identical) << eq.mismatch;
  EXPECT_GT(session.stats().gates_reused, 0u);
}

}  // namespace
}  // namespace xtalk::sta
