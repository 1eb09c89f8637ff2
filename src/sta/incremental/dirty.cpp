#include "sta/incremental/dirty.hpp"

namespace xtalk::sta::incremental {

DirtySet build_dirty_set(const sta::DesignView& design,
                         const StaOptions& options,
                         const std::vector<EditRecord>& edits) {
  const netlist::Netlist& nl = *design.netlist;
  const extract::Parasitics& para = *design.parasitics;
  const netlist::LevelizedDag& dag = *design.dag;
  const bool coupling_aware = options.mode == AnalysisMode::kOneStep ||
                              options.mode == AnalysisMode::kIterative;
  const bool all_neighbors = options.mode == AnalysisMode::kIterative;

  DirtySet ds;
  ds.seed_net.assign(nl.num_nets(), 0);
  ds.dirty_net.assign(nl.num_nets(), 0);
  std::vector<netlist::NetId> work;
  // Closure propagation: dirty, but not a structural seed.
  auto mark = [&](netlist::NetId n) {
    if (n == netlist::kNoNet || ds.dirty_net[n]) return;
    ds.dirty_net[n] = 1;
    work.push_back(n);
  };
  // Structural seed: the net itself was edited, or its driver's level
  // changed (the anchor of its own coupling classification).
  auto seed = [&](netlist::NetId n) {
    if (n == netlist::kNoNet) return;
    ds.seed_net[n] = 1;
    mark(n);
  };

  for (const EditRecord& e : edits) {
    switch (e.kind) {
      case EditRecord::Kind::kResizeGate: {
        const netlist::Gate& g = nl.gate(e.gate);
        // Output: drive strength changed. Input nets: their pin-cap load
        // changed, so their (gate-driven) drivers re-evaluate; PI fanins
        // have fixed stimulus and stay clean.
        seed(g.pin_nets[g.cell->output_pin()]);
        for (std::uint32_t p = 0; p < g.pin_nets.size(); ++p) {
          if (g.cell->pins()[p].dir == netlist::PinDir::kOutput) continue;
          const netlist::NetId f = g.pin_nets[p];
          if (nl.net(f).driver.gate != netlist::kNoGate) seed(f);
        }
        break;
      }
      case EditRecord::Kind::kWireRc:
      case EditRecord::Kind::kWireCap:
        seed(e.net_a);
        break;
      case EditRecord::Kind::kCoupling:
        // Both plates see a different load and a different aggressor.
        seed(e.net_a);
        seed(e.net_b);
        break;
      case EditRecord::Kind::kRetargetSink: {
        // Old net: lost a pin cap + sink wire. New net: gained them. The
        // moved gate: different fanin.
        seed(e.net_a);
        seed(e.net_b);
        const netlist::Gate& g = nl.gate(e.gate);
        seed(g.pin_nets[g.cell->output_pin()]);
        // A level change moves the snapshot anchor of the gate's own
        // classification. A victim that counts it as a neighbour needs no
        // seed: the engine's reuse test re-classifies against the current
        // ready levels (StaEngine::gate_reusable).
        if (coupling_aware) {
          for (const netlist::GateId c : e.releveled_gates) {
            const netlist::Gate& cg = nl.gate(c);
            seed(cg.pin_nets[cg.cell->output_pin()]);
          }
        }
        break;
      }
    }
  }

  // Transitive closure. A dirty net re-times its timed sink gates (their
  // input waveform may change) and — in the coupling-aware modes — every
  // coupled victim that *reads* its quiet time under the snapshot rule.
  for (std::size_t head = 0; head < work.size(); ++head) {
    const netlist::NetId n = work[head];
    for (const netlist::PinRef& s : nl.net(n).sinks) {
      if (!netlist::is_timed_input(*nl.gate(s.gate).cell, s.pin)) continue;
      const netlist::Gate& sg = nl.gate(s.gate);
      mark(sg.pin_nets[sg.cell->output_pin()]);
    }
    if (!coupling_aware) continue;
    const netlist::GateId dn = nl.net(n).driver.gate;
    // A driverless (primary-input) net's events are fixed stimulus: even
    // if its parasitics were edited, its quiet times cannot move, so
    // neighbours never see a difference.
    if (dn == netlist::kNoGate) continue;
    for (const extract::NeighborCap& nb : para.net(n).couplings) {
      const netlist::GateId dv = nl.net(nb.neighbor).driver.gate;
      if (dv == netlist::kNoGate) continue;
      // One-step victims classify n only if n's driver finished in an
      // earlier level (otherwise they use the §5.1 assumption, which
      // doesn't depend on n's values). Iterative reads stored quiet times
      // at any level.
      if (!all_neighbors && !(dag.gate_level[dn] < dag.gate_level[dv])) {
        continue;
      }
      mark(nb.neighbor);
    }
  }

  ds.dirty_nets = work.size();
  ds.clean_gate.assign(nl.num_gates(), 0);
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    ds.clean_gate[g] = !ds.dirty_net[gate.pin_nets[gate.cell->output_pin()]];
  }
  return ds;
}

}  // namespace xtalk::sta::incremental
