#include "sta/incremental/incremental_sta.hpp"

#include <utility>
#include <vector>

namespace xtalk::sta::incremental {

namespace {

/// Gates whose early-activity evaluation inputs (load, coupling sum, fanin
/// structure) a batch of edits may have changed — the seeds of the
/// incremental min-propagation. Drivers only: primary-input slots are fixed
/// stimulus.
std::vector<netlist::GateId> early_seed_gates(
    const netlist::Netlist& nl, const std::vector<EditRecord>& edits) {
  std::vector<char> marked(nl.num_gates(), 0);
  std::vector<netlist::GateId> seeds;
  auto add_gate = [&](netlist::GateId g) {
    if (g == netlist::kNoGate || marked[g]) return;
    marked[g] = 1;
    seeds.push_back(g);
  };
  auto add_driver = [&](netlist::NetId n) {
    if (n != netlist::kNoNet) add_gate(nl.net(n).driver.gate);
  };
  for (const EditRecord& e : edits) {
    switch (e.kind) {
      case EditRecord::Kind::kResizeGate: {
        const netlist::Gate& g = nl.gate(e.gate);
        add_gate(e.gate);  // own device strengths changed
        for (std::uint32_t p = 0; p < g.pin_nets.size(); ++p) {
          // Input pin caps scaled: the fanin drivers see a new load.
          if (g.cell->pins()[p].dir != netlist::PinDir::kOutput) {
            add_driver(g.pin_nets[p]);
          }
        }
        break;
      }
      case EditRecord::Kind::kWireRc:
      case EditRecord::Kind::kWireCap:
        add_driver(e.net_a);
        break;
      case EditRecord::Kind::kCoupling:
        // cc_sum enters the aiding-assist allowance on both plates.
        add_driver(e.net_a);
        add_driver(e.net_b);
        break;
      case EditRecord::Kind::kRetargetSink:
        add_gate(e.gate);       // fanin set changed
        add_driver(e.net_a);    // lost pin cap
        add_driver(e.net_b);    // gained pin cap
        break;
    }
  }
  return seeds;
}

/// Incremental min-propagation: recompute the seeds' outputs with the
/// shared per-gate kernel and chase differences level by level. Produces
/// exactly the numbers compute_early_activity would: gates of one level
/// never read each other, and a gate's slot changes only if some input of
/// its kernel did.
void update_early(const sta::DesignView& design, const EarlyOptions& options,
                  double coupling_derate,
                  const std::vector<netlist::GateId>& seeds, EarlyTimes& early,
                  util::RunGovernor* governor) {
  const netlist::Netlist& nl = *design.netlist;
  const netlist::LevelizedDag& dag = *design.dag;
  const device::Technology& tech = design.tables->tech();
  delaycalc::ArcDelayCalculator calc(*design.tables);
  const util::Pwl sharp_rise = early_sharp_ramp(tech, options, true);
  const util::Pwl sharp_fall = early_sharp_ramp(tech, options, false);

  std::vector<std::vector<netlist::GateId>> buckets(dag.num_levels);
  std::vector<char> pending(nl.num_gates(), 0);
  auto push = [&](netlist::GateId g) {
    if (pending[g]) return;
    pending[g] = 1;
    buckets[dag.gate_level[g]].push_back(g);
  };
  for (const netlist::GateId g : seeds) push(g);

  // Ascending levels; pushes always target strictly deeper levels (timed
  // sinks), so no bucket is revisited.
  for (std::size_t lvl = 0; lvl < buckets.size(); ++lvl) {
    // Charge the update against the run budget but always finish it: a
    // half-propagated early bound would corrupt the session cache, and the
    // sticky exhaustion reason makes the engine truncate at its very first
    // checkpoint anyway.
    if (governor != nullptr) governor->checkpoint(0);
    for (std::size_t i = 0; i < buckets[lvl].size(); ++i) {
      const netlist::GateId g = buckets[lvl][i];
      const netlist::Gate& gate = nl.gate(g);
      const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
      const double old_rise = early.rise[out];
      const double old_fall = early.fall[out];
      recompute_gate_early(design, options, coupling_derate, calc, sharp_rise,
                           sharp_fall, g, early);
      if (early.rise[out] == old_rise && early.fall[out] == old_fall) continue;
      for (const netlist::PinRef& s : nl.net(out).sinks) {
        if (!netlist::is_timed_input(*nl.gate(s.gate).cell, s.pin)) continue;
        push(s.gate);
      }
    }
  }
}

}  // namespace

IncrementalSta::IncrementalSta(DesignEditor& editor, const StaOptions& options)
    : editor_(&editor), options_(options) {}

StaResult IncrementalSta::run() {
  const std::vector<EditRecord>& log = editor_->log();
  const sta::DesignView view = editor_->view();
  stats_ = {};
  stats_.total_nets = view.netlist->num_nets();

  StaEngine engine(view, options_);
  RunTrace fresh;
  StaResult result;

  if (!has_baseline_) {
    result = engine.run(&fresh);
  } else {
    const std::vector<EditRecord> edits(log.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                log_cursor_),
                                        log.end());
    stats_.full_run = false;

    // Timing windows: bring the cached early bound up to date first. A
    // moved bound can flip the window test of a victim that counts the net
    // as a neighbour; the engine's reuse test reads the updated arrays, so
    // such victims need no seed.
    const bool inject_early = options_.timing_windows && has_early_;
    // Pre-start the budget epoch so the cached-early update below is
    // charged against the same deadline as the engine run it precedes
    // (StaEngine::run's own start() is idempotent).
    engine.governor().start();
    if (inject_early && !edits.empty()) {
      // Same derate as StaEngine::run's early bound, so the incremental
      // bound is bitwise the from-scratch one.
      update_early(view, options_.early, options_.coupling_derate,
                   early_seed_gates(*view.netlist, edits), early_,
                   &engine.governor());
    }

    DirtySet dirty;
    ReuseHints hints;
    hints.baseline = &trace_;
    hints.early = inject_early ? &early_ : nullptr;
    if (edits.empty()) {
      // Nothing changed: no seeds; the replay copies all passes.
      dirty.seed_net.assign(view.netlist->num_nets(), 0);
      dirty.dirty_net.assign(view.netlist->num_nets(), 0);
    } else {
      dirty = build_dirty_set(view, options_, edits);
    }
    stats_.dirty_nets = dirty.dirty_nets;
    hints.seed_dirty = &dirty.seed_net;
    result = engine.run(&fresh, &hints);
  }

  if (result.budget.exhausted) {
    // A truncated run must never become the reuse baseline: passes past
    // the truncation point were not recorded and the early arrays may
    // have been skipped. Correctness over reuse — drop the session cache
    // and let the next run start from scratch.
    trace_ = RunTrace{};
    has_baseline_ = false;
    has_early_ = false;
    log_cursor_ = log.size();
    stats_.gates_reused = result.gates_reused;
    return result;
  }
  trace_ = std::move(fresh);
  has_baseline_ = true;
  log_cursor_ = log.size();
  if (options_.timing_windows) {
    early_.rise = trace_.early_rise;
    early_.fall = trace_.early_fall;
    has_early_ = true;
  }
  stats_.gates_reused = result.gates_reused;
  return result;
}

}  // namespace xtalk::sta::incremental
