// Incremental (ECO) crosstalk STA: editor semantics, coupling-aware dirty
// sets, cached re-timing, and — above all — the bitwise-equivalence
// contract: an incremental run must produce exactly the numbers a
// from-scratch run on the edited design produces, in every analysis mode.
#include "sta/incremental/incremental_sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/levelize.hpp"
#include "sta/incremental/dirty.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/incremental/oracle.hpp"
#include "sta/report.hpp"

namespace xtalk::sta::incremental {
namespace {

const core::Design& test_design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("inc", 11, 120, 8));
  return d;
}

netlist::NetId output_net(const netlist::Netlist& nl, netlist::GateId g) {
  const netlist::Gate& gate = nl.gate(g);
  return gate.pin_nets[gate.cell->output_pin()];
}

/// Index of the first pin that starts a timing arc (input pins of
/// combinational cells, CK of flip-flops), or the pin count if none.
std::uint32_t first_timed_input_pin(const netlist::Gate& g) {
  const auto n = static_cast<std::uint32_t>(g.cell->pins().size());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (netlist::is_timed_input(*g.cell, p)) return p;
  }
  return n;
}

/// The `skip`-th combinational gate with a timed input pin.
netlist::GateId combinational_gate(const netlist::Netlist& nl,
                                   std::size_t skip = 0) {
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    if (gate.cell->is_sequential()) continue;
    if (first_timed_input_pin(gate) >= gate.cell->pins().size()) continue;
    if (skip == 0) return g;
    --skip;
  }
  ADD_FAILURE() << "no combinational gate found";
  return netlist::kNoGate;
}

// ---------------------------------------------------------------------------
// DesignEditor: DAG repair and edit validation
// ---------------------------------------------------------------------------

TEST(DesignEditor, RelevelizeMatchesFreshLevelize) {
  DesignEditor editor = test_design().make_editor();
  const netlist::Netlist& nl = editor.netlist();

  // Retarget a combinational input onto a primary input (always acyclic:
  // PI nets have no driver), which shrinks levels through the fanout cone.
  const netlist::GateId g = combinational_gate(nl, 5);
  const std::uint32_t pin = first_timed_input_pin(nl.gate(g));
  netlist::NetId pi = netlist::kNoNet;
  for (const netlist::NetId cand : nl.primary_inputs()) {
    if (cand != nl.gate(g).pin_nets[pin]) {
      pi = cand;
      break;
    }
  }
  ASSERT_NE(pi, netlist::kNoNet);
  editor.retarget_sink(g, pin, pi, 120.0, 1.5e-15);
  editor.resize_gate(combinational_gate(nl, 2), 1.4);

  const netlist::LevelizedDag& inc = editor.dag();
  const netlist::LevelizedDag fresh = netlist::levelize(editor.netlist());

  EXPECT_EQ(inc.num_levels, fresh.num_levels);
  EXPECT_EQ(inc.gate_level, fresh.gate_level);
  EXPECT_EQ(inc.net_level, fresh.net_level);
  EXPECT_EQ(inc.endpoint_nets, fresh.endpoint_nets);
  ASSERT_EQ(inc.level_begin, fresh.level_begin);
  // Within-level order is unspecified (gates of one level are mutually
  // independent); compare the buckets as sets.
  ASSERT_EQ(inc.level_order.size(), fresh.level_order.size());
  ASSERT_EQ(inc.topo_order.size(), fresh.topo_order.size());
  for (std::uint32_t lvl = 0; lvl < fresh.num_levels; ++lvl) {
    auto bucket = [&](const netlist::LevelizedDag& dag) {
      std::vector<netlist::GateId> b(
          dag.level_order.begin() + dag.level_begin[lvl],
          dag.level_order.begin() + dag.level_begin[lvl + 1]);
      std::sort(b.begin(), b.end());
      return b;
    };
    EXPECT_EQ(bucket(inc), bucket(fresh)) << "level " << lvl;
  }
}

TEST(DesignEditor, RetargetRejectsCombinationalCycle) {
  DesignEditor editor = test_design().make_editor();
  const netlist::Netlist& nl = editor.netlist();

  // Find gate g whose output net has a combinational timed sink s: wiring
  // one of g's inputs to s's output closes the loop g -> s -> g.
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    if (gate.cell->is_sequential()) continue;
    const std::uint32_t pin = first_timed_input_pin(gate);
    if (pin >= gate.cell->pins().size()) continue;
    for (const netlist::PinRef& s : nl.net(output_net(nl, g)).sinks) {
      const netlist::Gate& sink = nl.gate(s.gate);
      if (sink.cell->is_sequential()) continue;
      if (!netlist::is_timed_input(*sink.cell, s.pin)) continue;
      EXPECT_THROW(
          editor.retarget_sink(g, pin, output_net(nl, s.gate), 100.0, 1e-15),
          std::runtime_error);
      return;
    }
  }
  FAIL() << "no gate pair suitable for a cycle test";
}

TEST(DesignEditor, RejectsInvalidEdits) {
  DesignEditor editor = test_design().make_editor();
  const netlist::Netlist& nl = editor.netlist();
  const auto num_gates = static_cast<netlist::GateId>(nl.num_gates());
  const auto num_nets = static_cast<netlist::NetId>(nl.num_nets());

  EXPECT_THROW(editor.resize_gate(0, 0.0), std::invalid_argument);
  EXPECT_THROW(editor.resize_gate(0, -2.0), std::invalid_argument);
  EXPECT_THROW(editor.resize_gate(num_gates, 1.2), std::invalid_argument);
  EXPECT_THROW(editor.set_wire_cap(num_nets, 1e-15), std::invalid_argument);
  EXPECT_THROW(editor.set_coupling(0, 1, -1e-15), std::invalid_argument);
  // A pin that is not a sink of the net.
  const netlist::GateId g = combinational_gate(nl);
  netlist::NetId other = netlist::kNoNet;
  for (netlist::NetId n = 0; n < num_nets; ++n) {
    const auto& sinks = nl.net(n).sinks;
    const bool has = std::any_of(
        sinks.begin(), sinks.end(),
        [&](const netlist::PinRef& s) { return s.gate == g; });
    if (!has) {
      other = n;
      break;
    }
  }
  ASSERT_NE(other, netlist::kNoNet);
  EXPECT_THROW(editor.set_wire_rc(other, {g, first_timed_input_pin(nl.gate(g))},
                                  100.0, 1e-15),
               std::invalid_argument);
  // Output pins cannot be retargeted.
  EXPECT_THROW(
      editor.retarget_sink(
          g, static_cast<std::uint32_t>(nl.gate(g).cell->output_pin()), 0,
          100.0, 1e-15),
      std::invalid_argument);
  // Removing an absent coupling capacitor.
  netlist::NetId a = netlist::kNoNet;
  netlist::NetId b = netlist::kNoNet;
  for (netlist::NetId n = 0; n + 1 < num_nets && a == netlist::kNoNet; ++n) {
    for (netlist::NetId m = n + 1; m < num_nets; ++m) {
      if (editor.parasitics().find_coupling(n, m) == nullptr) {
        a = n;
        b = m;
        break;
      }
    }
  }
  ASSERT_NE(a, netlist::kNoNet);
  EXPECT_THROW(editor.remove_coupling(a, b), std::invalid_argument);
  // None of the rejected calls may have left a log record behind.
  EXPECT_TRUE(editor.log().empty());
}

// ---------------------------------------------------------------------------
// Dirty-set builder
// ---------------------------------------------------------------------------

StaOptions mode_options(AnalysisMode mode) {
  StaOptions opt;
  opt.mode = mode;
  opt.num_threads = 1;
  return opt;
}

TEST(DirtySetBuilder, SeedsAreSubsetAndClosureIsFixpoint) {
  DesignEditor editor = test_design().make_editor();
  const netlist::Netlist& nl = editor.netlist();
  const netlist::GateId g = combinational_gate(nl, 3);
  editor.resize_gate(g, 1.3);

  const DirtySet ds = build_dirty_set(
      editor.view(), mode_options(AnalysisMode::kOneStep), editor.log());
  ASSERT_EQ(ds.seed_net.size(), nl.num_nets());
  ASSERT_EQ(ds.dirty_net.size(), nl.num_nets());

  EXPECT_TRUE(ds.seed_net[output_net(nl, g)]);
  std::size_t count = 0;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (ds.seed_net[n]) {
      EXPECT_TRUE(ds.dirty_net[n]) << "net " << n;
    }
    if (!ds.dirty_net[n]) continue;
    ++count;
    // Fixpoint over structural fanout: a dirty net re-times its timed sink
    // gates, so their outputs must be dirty too.
    for (const netlist::PinRef& s : nl.net(n).sinks) {
      if (!netlist::is_timed_input(*nl.gate(s.gate).cell, s.pin)) continue;
      EXPECT_TRUE(ds.dirty_net[output_net(nl, s.gate)])
          << "net " << n << " sink gate " << s.gate;
    }
  }
  EXPECT_EQ(count, ds.dirty_nets);
  EXPECT_LT(count, nl.num_nets());  // the edit must not dirty everything
}

TEST(DirtySetBuilder, IterativeClosesOverCouplingNeighbours) {
  DesignEditor editor = test_design().make_editor();
  const netlist::Netlist& nl = editor.netlist();
  editor.resize_gate(combinational_gate(nl, 3), 1.3);

  const DirtySet iter = build_dirty_set(
      editor.view(), mode_options(AnalysisMode::kIterative), editor.log());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (!iter.dirty_net[n]) continue;
    if (nl.net(n).driver.gate == netlist::kNoGate) continue;
    // Iterative mode reads stored quiet times across every coupling edge,
    // so each gate-driven neighbour of a dirty net must be dirty.
    for (const extract::NeighborCap& nb :
         editor.parasitics().net(n).couplings) {
      if (nl.net(nb.neighbor).driver.gate == netlist::kNoGate) continue;
      EXPECT_TRUE(iter.dirty_net[nb.neighbor])
          << "net " << n << " neighbour " << nb.neighbor;
    }
  }

  // Coupling-blind modes dirty only the fanout cone; the coupling-aware
  // closures can only grow from there.
  const DirtySet best = build_dirty_set(
      editor.view(), mode_options(AnalysisMode::kBestCase), editor.log());
  const DirtySet one = build_dirty_set(
      editor.view(), mode_options(AnalysisMode::kOneStep), editor.log());
  EXPECT_LE(best.dirty_nets, one.dirty_nets);
  EXPECT_LE(one.dirty_nets, iter.dirty_nets);
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (best.dirty_net[n]) {
      EXPECT_TRUE(one.dirty_net[n]) << "net " << n;
    }
    if (one.dirty_net[n]) {
      EXPECT_TRUE(iter.dirty_net[n]) << "net " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Cached re-timing sessions
// ---------------------------------------------------------------------------

TEST(IncrementalSession, RerunWithoutEditsRecomputesNothing) {
  DesignEditor editor = test_design().make_editor();
  StaOptions opt = mode_options(AnalysisMode::kOneStep);
  IncrementalSta session(editor, opt);

  const StaResult baseline = session.run();
  EXPECT_TRUE(session.stats().full_run);
  EXPECT_GT(baseline.waveform_calculations, 0u);

  const StaResult replay = session.run();
  EXPECT_FALSE(session.stats().full_run);
  EXPECT_EQ(session.stats().dirty_nets, 0u);
  EXPECT_EQ(replay.waveform_calculations, 0u);
  EXPECT_GT(replay.gates_reused, 0u);
  const EquivalenceReport eq = compare_results(baseline, replay);
  EXPECT_TRUE(eq.identical) << eq.mismatch;
}

TEST(IncrementalSession, SingleResizeReusesGatesAndMatchesScratch) {
  DesignEditor editor = test_design().make_editor();
  StaOptions opt = mode_options(AnalysisMode::kOneStep);
  IncrementalSta session(editor, opt);
  const StaResult baseline = session.run();

  editor.resize_gate(combinational_gate(editor.netlist(), 7), 1.5);
  const EquivalenceReport eq = verify_incremental(editor, session);
  EXPECT_TRUE(eq.identical) << eq.mismatch;
  EXPECT_FALSE(session.stats().full_run);
  EXPECT_GT(session.stats().dirty_nets, 0u);
  EXPECT_LT(session.stats().dirty_nets, session.stats().total_nets);
  EXPECT_GT(session.stats().gates_reused, 0u);
}

/// A deterministic batch exercising every edit kind once. `salt` varies the
/// touched elements between batches.
void apply_mixed_batch(DesignEditor& editor, std::size_t salt) {
  const netlist::Netlist& nl = editor.netlist();
  editor.resize_gate(combinational_gate(nl, salt), salt % 2 ? 0.8 : 1.3);
  // Swap an inverter for a (footprint-compatible) buffer if one exists.
  if (const netlist::Cell* buf = nl.library().find("BUF_X1")) {
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).cell->name() == "INV_X1") {
        editor.swap_cell(g, *buf);
        break;
      }
    }
  }
  // Wire RC on the first net with a sink (offset by salt).
  std::size_t skip = salt;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).sinks.empty()) continue;
    if (skip-- > 0) continue;
    editor.set_wire_rc(n, nl.net(n).sinks.front(), 150.0 + 10.0 * salt,
                       2e-15);
    editor.set_wire_cap(n, 3e-15);
    break;
  }
  // Change one existing coupling capacitor and remove another.
  std::size_t changed = 0;
  for (const extract::CouplingCap& c : editor.parasitics().coupling_pairs()) {
    if (c.cap <= 0.0) continue;  // already removed by an earlier batch
    if (changed == 0) {
      editor.set_coupling(c.net_a, c.net_b, c.cap * 2.0);
    } else {
      editor.remove_coupling(c.net_a, c.net_b);
      break;
    }
    ++changed;
  }
  // Retarget a combinational input to a primary input (acyclic by
  // construction).
  const netlist::GateId g = combinational_gate(nl, salt + 4);
  const std::uint32_t pin = first_timed_input_pin(nl.gate(g));
  for (const netlist::NetId pi : nl.primary_inputs()) {
    if (pi == nl.gate(g).pin_nets[pin]) continue;
    editor.retarget_sink(g, pin, pi, 90.0, 1e-15);
    break;
  }
}

class EquivalenceMode : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceMode, MixedEditsBitwiseEqualScratch) {
  StaOptions opt;
  opt.num_threads = 2;
  switch (GetParam()) {
    case 0:
      opt.mode = AnalysisMode::kOneStep;
      break;
    case 1:
      opt.mode = AnalysisMode::kIterative;
      break;
    case 2:
      opt.mode = AnalysisMode::kIterative;
      opt.esperance = true;
      break;
    default:
      opt.mode = AnalysisMode::kOneStep;
      opt.timing_windows = true;
      break;
  }
  DesignEditor editor = test_design().make_editor();
  IncrementalSta session(editor, opt);
  session.run();
  // Two batches: the second one verifies the refreshed trace (an
  // incremental result must serve as the next baseline, not only a full
  // run).
  for (std::size_t batch = 0; batch < 2; ++batch) {
    apply_mixed_batch(editor, batch);
    const EquivalenceReport eq = verify_incremental(editor, session);
    EXPECT_TRUE(eq.identical) << "batch " << batch << ": " << eq.mismatch;
  }
}

std::string combo_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"OneStep", "Iterative", "IterativeEsperance",
                                 "OneStepTimingWindows"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllModes, EquivalenceMode, ::testing::Range(0, 4),
                         combo_name);

// ---------------------------------------------------------------------------
// Property test: random edit sequences, incremental == from-scratch
// ---------------------------------------------------------------------------

/// Apply one random edit; returns false if the drawn edit was impossible
/// (e.g. a cycle-creating retarget) and nothing was logged.
bool apply_random_edit(DesignEditor& editor, std::mt19937& rng) {
  const netlist::Netlist& nl = editor.netlist();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<netlist::NetId> pick_net(
      0, static_cast<netlist::NetId>(nl.num_nets() - 1));
  std::uniform_int_distribution<netlist::GateId> pick_gate(
      0, static_cast<netlist::GateId>(nl.num_gates() - 1));
  switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
    case 0:
      editor.resize_gate(pick_gate(rng), 0.7 + 0.8 * u(rng));
      return true;
    case 1: {
      const netlist::NetId n = pick_net(rng);
      if (nl.net(n).sinks.empty()) return false;
      const std::size_t s = std::uniform_int_distribution<std::size_t>(
          0, nl.net(n).sinks.size() - 1)(rng);
      editor.set_wire_rc(n, nl.net(n).sinks[s], 50.0 + 450.0 * u(rng),
                         (0.5 + 1.5 * u(rng)) * 1e-15);
      return true;
    }
    case 2:
      editor.set_wire_cap(pick_net(rng), (0.5 + 2.5 * u(rng)) * 1e-15);
      return true;
    case 3: {
      const netlist::NetId a = pick_net(rng);
      const netlist::NetId b = pick_net(rng);
      if (a == b) return false;
      editor.set_coupling(a, b, (1.0 + 4.0 * u(rng)) * 1e-15);
      return true;
    }
    case 4: {
      const netlist::NetId n = pick_net(rng);
      const auto& couplings = editor.parasitics().net(n).couplings;
      if (couplings.empty()) return false;
      editor.remove_coupling(n, couplings.front().neighbor);
      return true;
    }
    default: {
      const netlist::GateId g = pick_gate(rng);
      const std::uint32_t pin = first_timed_input_pin(nl.gate(g));
      if (pin >= nl.gate(g).cell->pins().size()) return false;
      try {
        editor.retarget_sink(g, pin, pick_net(rng), 60.0 + 200.0 * u(rng),
                             1e-15);
      } catch (const std::runtime_error&) {
        return false;  // would create a combinational cycle
      }
      return true;
    }
  }
}

TEST(IncrementalProperty, RandomEditSequencesMatchScratchInEveryMode) {
  struct Combo {
    AnalysisMode mode;
    bool esperance;
    bool timing_windows;
  };
  const Combo combos[] = {
      {AnalysisMode::kOneStep, false, false},
      {AnalysisMode::kIterative, false, false},
      {AnalysisMode::kIterative, true, false},
      {AnalysisMode::kOneStep, false, true},
  };
  constexpr std::size_t kSequencesPerCombo = 27;  // 108 sequences total
  std::mt19937 rng(987654321u);
  for (std::size_t c = 0; c < std::size(combos); ++c) {
    StaOptions opt;
    opt.mode = combos[c].mode;
    opt.esperance = combos[c].esperance;
    opt.timing_windows = combos[c].timing_windows;
    opt.num_threads = 4;
    DesignEditor editor = test_design().make_editor();
    IncrementalSta session(editor, opt);
    session.run();
    for (std::size_t seq = 0; seq < kSequencesPerCombo; ++seq) {
      const std::size_t edits =
          std::uniform_int_distribution<std::size_t>(1, 3)(rng);
      for (std::size_t e = 0; e < edits; ++e) apply_random_edit(editor, rng);
      // Alternate the scratch thread count so the oracle also cross-checks
      // the engine's thread invariance on the edited design.
      const int scratch_threads = seq % 2 ? 1 : 4;
      const EquivalenceReport eq =
          verify_incremental(editor, session, scratch_threads);
      ASSERT_TRUE(eq.identical)
          << "combo " << c << " sequence " << seq << ": " << eq.mismatch;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellites: option validation, report counters, exact-equality helper
// ---------------------------------------------------------------------------

TEST(StaOptionsValidation, RunRejectsInvalidOptions) {
  const core::Design& d = test_design();
  auto expect_rejected = [&](auto&& mutate) {
    StaOptions opt = mode_options(AnalysisMode::kBestCase);
    mutate(opt);
    EXPECT_THROW(d.run(opt), std::invalid_argument);
  };
  expect_rejected([](StaOptions& o) { o.max_passes = 0; });
  expect_rejected([](StaOptions& o) { o.convergence_eps = -1e-12; });
  expect_rejected([](StaOptions& o) {
    o.convergence_eps = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected([](StaOptions& o) { o.esperance_window = -1e-9; });
  expect_rejected([](StaOptions& o) { o.input_slew = 0.0; });
  expect_rejected([](StaOptions& o) {
    o.input_slew = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected([](StaOptions& o) { o.num_threads = -1; });
  // Defaults stay valid.
  EXPECT_NO_THROW(d.run(mode_options(AnalysisMode::kBestCase)));
}

TEST(ReportSummary, ShowsCountersAndExtractionWarning) {
  StaResult r;
  r.longest_path_delay = 1.5e-9;
  r.passes = 3;
  r.threads_used = 2;
  r.waveform_calculations = 42;
  r.gates_reused = 7;
  r.missing_sink_wires = 2;
  const std::string text = format_result_summary(r);
  EXPECT_NE(text.find("passes 3"), std::string::npos) << text;
  EXPECT_NE(text.find("threads 2"), std::string::npos) << text;
  EXPECT_NE(text.find("waveform calculations 42"), std::string::npos) << text;
  EXPECT_NE(text.find("gates reused 7"), std::string::npos) << text;
  EXPECT_NE(text.find("WARNING: 2"), std::string::npos) << text;

  r.gates_reused = 0;
  r.missing_sink_wires = 0;
  const std::string clean = format_result_summary(r);
  EXPECT_EQ(clean.find("gates reused"), std::string::npos) << clean;
  EXPECT_EQ(clean.find("WARNING"), std::string::npos) << clean;
}

TEST(NetTimingIdentical, ComparesEveryReadableFieldBitwise) {
  NetTiming a;
  a.calculated = true;
  a.rise.valid = true;
  a.rise.waveform = util::Pwl::ramp(1e-10, 0.0, 3e-10, 2.5);
  a.rise.arrival = 2e-10;
  a.rise.start_time = 1.2e-10;
  a.rise.settle_time = 3e-10;
  a.rise.coupled = true;
  a.rise.origin.gate = 4;
  NetTiming b = a;
  EXPECT_TRUE(net_timing_identical(a, b));

  b.rise.arrival = std::nextafter(a.rise.arrival, 1.0);
  EXPECT_FALSE(net_timing_identical(a, b));
  b = a;
  b.rise.waveform = util::Pwl::ramp(1e-10, 0.0, 3.0001e-10, 2.5);
  EXPECT_FALSE(net_timing_identical(a, b));
  b = a;
  b.rise.origin.gate = 5;
  EXPECT_FALSE(net_timing_identical(a, b));
  b = a;
  b.calculated = false;
  EXPECT_FALSE(net_timing_identical(a, b));

  // NaN == NaN: reused results must not churn on propagated NaNs.
  a.rise.arrival = std::numeric_limits<double>::quiet_NaN();
  b = a;
  EXPECT_TRUE(net_timing_identical(a, b));
  // Invalid events compare equal regardless of their stale payload.
  a.rise.valid = false;
  b.rise.valid = false;
  b.rise.arrival = 0.0;
  EXPECT_TRUE(net_timing_identical(a, b));
}

}  // namespace
}  // namespace xtalk::sta::incremental
