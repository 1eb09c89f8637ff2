// The timing-window extension on a hand-built design: a short victim path
// coupled to a deep aggressor chain. The paper's quiet-time rule must keep
// the aggressor active (it is still switching long after the victim's
// earliest activity); the window rule must ground it (its *earliest*
// possible activity lies after the victim has completely settled).
// Parasitics are constructed manually, which also exercises the engine on
// user-supplied extraction data.
#include <gtest/gtest.h>

#include <cmath>

#include "sta/early.hpp"
#include "sta/engine.hpp"
#include "util/fault_injection.hpp"

namespace xtalk::sta {
namespace {

struct HandBuilt {
  netlist::Netlist nl;
  netlist::NetId victim = netlist::kNoNet;
  netlist::NetId aggressor = netlist::kNoNet;
  netlist::LevelizedDag dag;
  extract::Parasitics para;

  HandBuilt() : nl(netlist::CellLibrary::half_micron()), para(0) {
    dag = build_netlist(nl, victim, aggressor);
    para = build_parasitics(nl, victim, aggressor);
  }

  static netlist::LevelizedDag build_netlist(netlist::Netlist& nl,
                                             netlist::NetId& victim,
                                             netlist::NetId& aggressor) {
    const auto& lib = netlist::CellLibrary::half_micron();
    const auto clk = nl.add_net("CLK", netlist::NetKind::kClock);
    nl.mark_primary_input(clk);
    nl.set_clock_net(clk);
    // Victim: CLK -> FF -> INV -> victim net -> PO (one gate deep).
    const auto d = nl.add_net("d");
    const auto q = nl.add_net("q");
    nl.add_gate("ff", lib.get("DFF_X1"), {d, clk, q});
    victim = nl.add_net("victim");
    nl.add_gate("vinv", lib.get("INV_X1"), {q, victim});
    nl.mark_primary_output(victim);
    // Tie the FF D input to something driven: victim -> D (feedback loop
    // through the FF is fine).
    nl.reconnect_pin(0, 0, victim);
    nl.net(d).name = "d_unused";  // keep the stale net named distinctly
    // Aggressor: PI -> chain of 20 inverters -> aggressor net -> PO.
    const auto pi = nl.add_net("pi");
    nl.mark_primary_input(pi);
    netlist::NetId prev = pi;
    for (int i = 0; i < 60; ++i) {
      const auto out = nl.add_net("c" + std::to_string(i));
      nl.add_gate("chain" + std::to_string(i), lib.get("INV_X1"), {prev, out});
      prev = out;
    }
    aggressor = prev;
    nl.mark_primary_output(aggressor);
    return netlist::levelize(nl);
  }

  static extract::Parasitics build_parasitics(const netlist::Netlist& nl,
                                              netlist::NetId victim,
                                              netlist::NetId aggressor) {
    extract::Parasitics para(nl.num_nets());
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      // Heavy wire load on the aggressor chain (long wires), light on the
      // victim side.
      const bool chain = nl.net(n).name.rfind("c", 0) == 0;
      para.net(n).wire_cap = chain ? 60e-15 : 8e-15;
      para.net(n).wire_length = chain ? 600e-6 : 80e-6;
    }
    // Coupling cap between the victim and the deep aggressor.
    para.add_coupling(victim, aggressor, 6e-15, 120e-6);
    return para;
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

TEST(TimingWindows, DeepAggressorGroundedByWindowRule) {
  HandBuilt h;

  StaOptions plain;
  plain.mode = AnalysisMode::kOneStep;
  const StaResult r_plain = run_sta(h.view(), plain);

  StaOptions windows = plain;
  windows.timing_windows = true;
  windows.early.aiding_coupling_assist = false;
  const StaResult r_win = run_sta(h.view(), windows);

  // Sanity: the quiet-time rule keeps the aggressor active on the victim
  // (the coupled flag survives on the victim's worst event).
  EXPECT_TRUE(r_plain.timing[h.victim].rise.coupled ||
              r_plain.timing[h.victim].fall.coupled);

  // The victim settles quickly; the 60-deep heavily loaded aggressor
  // cannot start
  // before that, so the window rule grounds it and the victim event loses
  // its coupling.
  const EarlyTimes early = compute_early_activity(h.view(), windows.early);
  const double agg_early =
      std::min(early.start(h.aggressor, true), early.start(h.aggressor, false));
  const double victim_settle =
      std::max(r_plain.timing[h.victim].rise.settle_time,
               r_plain.timing[h.victim].fall.settle_time);
  ASSERT_GT(agg_early, victim_settle) << "fixture assumption";

  EXPECT_FALSE(r_win.timing[h.victim].rise.coupled);
  EXPECT_FALSE(r_win.timing[h.victim].fall.coupled);
  // And the victim's arrival tightens accordingly.
  EXPECT_LT(r_win.timing[h.victim].rise.arrival,
            r_plain.timing[h.victim].rise.arrival);

  // The aggressor's own timing is unaffected (victim settles early, but
  // the victim's *quiet* time is early too, so the aggressor side may or
  // may not couple — either way the global ordering holds).
  EXPECT_LE(r_win.longest_path_delay, r_plain.longest_path_delay + 1e-13);
}

TEST(TimingWindows, SoundEarlyBoundsAreSmaller) {
  HandBuilt h;
  EarlyOptions sound;
  sound.aiding_coupling_assist = true;
  EarlyOptions optimistic;
  optimistic.aiding_coupling_assist = false;
  const EarlyTimes e_sound = compute_early_activity(h.view(), sound);
  const EarlyTimes e_opt = compute_early_activity(h.view(), optimistic);
  for (netlist::NetId n = 0; n < h.nl.num_nets(); ++n) {
    for (const bool rising : {true, false}) {
      if (!std::isfinite(e_opt.start(n, rising))) continue;
      EXPECT_LE(e_sound.start(n, rising), e_opt.start(n, rising) + 1e-15);
    }
  }
  // Early times grow with logic depth along the aggressor chain.
  const netlist::NetId c0 = h.nl.find_net("c0");
  const netlist::NetId c19 = h.nl.find_net("c59");
  EXPECT_LT(e_opt.start(c0, true), e_opt.start(c19, true));
}

TEST(TimingWindows, DegradedArcContributesItsInputEarlyTime) {
  // A solver fallback shifts an arc's waveform later by the degrade margin,
  // the unsafe direction for a lower bound. A one-shot Newton divergence
  // on one chain inverter lets the fallback chain recover, so its first
  // arc (input rising, output falling) comes back degraded: the output
  // must get exactly the input's early time, delay 0.
  HandBuilt h;
  const netlist::NetId in = h.nl.find_net("c4");
  const netlist::NetId out = h.nl.find_net("c5");
  const netlist::GateId g = h.nl.net(out).driver.gate;
  const EarlyTimes clean = compute_early_activity(h.view());

  util::FaultInjector faults;
  util::FaultSpec once;
  once.kind = util::FaultKind::kNewtonDiverge;
  once.gate = static_cast<std::int64_t>(g);
  once.count = 1;
  faults.add(once);
  util::DiagSink sink;
  util::DiagHandle diag;
  diag.sink = &sink;
  diag.faults = &faults;
  const EarlyTimes faulted =
      compute_early_activity(h.view(), EarlyOptions{}, 1.0, &diag);

  ASSERT_EQ(faults.fired(), 1u);
  EXPECT_EQ(faulted.start(in, true), clean.start(in, true));
  EXPECT_EQ(faulted.start(out, false), clean.start(in, true));
  EXPECT_LT(faulted.start(out, false), clean.start(out, false));
  // The other arc of the gate solved cleanly and keeps its value.
  EXPECT_EQ(faulted.start(out, true), clean.start(out, true));
  // Downstream the bound only moves earlier, never later.
  for (netlist::NetId n = 0; n < h.nl.num_nets(); ++n) {
    for (const bool rising : {true, false}) {
      if (!std::isfinite(clean.start(n, rising))) continue;
      EXPECT_LE(faulted.start(n, rising), clean.start(n, rising));
    }
  }
  // The fallback is reported, with the gate's context.
  bool reported = false;
  for (const util::Diagnostic& d : sink.snapshot()) {
    EXPECT_EQ(d.ctx.gate, static_cast<std::int64_t>(g));
    reported = reported || d.code == util::DiagCode::kInjectedFault;
  }
  EXPECT_TRUE(reported);
}

}  // namespace
}  // namespace xtalk::sta
