#include "sta/early.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "delaycalc/coupling_model.hpp"

namespace xtalk::sta {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

util::Pwl early_sharp_ramp(const device::Technology& tech,
                           const EarlyOptions& options, bool rising) {
  // Sharpest input ramps, threshold crossing at t = 0.
  if (rising) {
    return util::Pwl::ramp(0.0, tech.model_vth, options.sharp_slew, tech.vdd);
  }
  return util::Pwl::ramp(0.0, tech.vdd - tech.model_vth, options.sharp_slew,
                         0.0);
}

void recompute_gate_early(const DesignView& design, const EarlyOptions& options,
                          double coupling_derate,
                          delaycalc::ArcDelayCalculator& calc,
                          const util::Pwl& sharp_rise,
                          const util::Pwl& sharp_fall, netlist::GateId g,
                          EarlyTimes& early, const util::DiagHandle* diag) {
  const netlist::Netlist& nl = *design.netlist;
  const device::Technology& tech = design.tables->tech();
  const netlist::Gate& gate = nl.gate(g);
  const netlist::Cell& cell = *gate.cell;
  const netlist::NetId out = gate.pin_nets[cell.output_pin()];
  early.rise[out] = kInf;
  early.fall[out] = kInf;
  util::DiagHandle gate_diag;
  if (diag != nullptr) {
    gate_diag = *diag;
    gate_diag.ctx.gate = static_cast<std::int64_t>(g);
    gate_diag.ctx.net = static_cast<std::int64_t>(out);
  }

  // Base load without any coupling capacitance: a same-direction
  // neighbour can cancel the charge through its own Cc, so dropping Cc
  // keeps the bound a lower one.
  const double base = design.parasitics->net(out).wire_cap +
                      tech.miller_gate_factor * nl.net_pin_cap(out);
  // Same per-scenario coupling derate as the classification this bound
  // feeds (1.0 = exact no-op).
  const double cc_sum = coupling_derate *
                        design.parasitics->net(out).total_coupling_cap();
  // An aiding kick of the full divider step can advance the threshold
  // crossing by roughly dV / slope.
  const double assist_dv = delaycalc::divider_step(tech.vdd, cc_sum, base);

  for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
    if (!netlist::is_timed_input(cell, p)) continue;
    const netlist::NetId in_net = gate.pin_nets[p];
    for (const bool in_rising : {true, false}) {
      const double t_in = in_rising ? early.rise[in_net] : early.fall[in_net];
      if (!std::isfinite(t_in)) continue;
      const util::Pwl& ramp = in_rising ? sharp_rise : sharp_fall;
      // Only the front and the first segment are read below, so the output
      // stage stops once past the threshold crossing.
      delaycalc::ArcEvaluation arc(calc, cell, p, in_rising, ramp, {},
                                   nullptr,
                                   diag != nullptr ? &gate_diag : nullptr);
      for (const delaycalc::ArcResult& r :
           arc.evaluate_to_threshold({base, 0.0})) {
        double& slot = r.output_rising ? early.rise[out] : early.fall[out];
        if (r.degraded) {
          // The degrade margin shifted this waveform later: fall back to
          // delay 0, the one lower bound that holds without the solve.
          slot = std::min(slot, t_in);
          continue;
        }
        // The waveform starts at the model threshold: its front time is
        // the arc's threshold-to-threshold delay for this sharp input.
        double d = r.waveform.front().t;
        // Slope at the start of the transition, for the assist bound.
        const auto& pts = r.waveform.points();
        if (options.aiding_coupling_assist && pts.size() >= 2 &&
            assist_dv > 0.0) {
          const double slope = std::abs(pts[1].v - pts[0].v) /
                               std::max(pts[1].t - pts[0].t, 1e-18);
          if (slope > 0.0) d -= assist_dv / slope;
        }
        d = std::max(d, 0.0);
        slot = std::min(slot, t_in + d);
      }
    }
  }
}

EarlyTimes compute_early_activity(const DesignView& design,
                                  const EarlyOptions& options,
                                  double coupling_derate,
                                  const util::DiagHandle* diag) {
  const netlist::Netlist& nl = *design.netlist;
  const device::Technology& tech = design.tables->tech();
  delaycalc::ArcDelayCalculator calc(*design.tables);

  EarlyTimes early;
  early.rise.assign(nl.num_nets(), kInf);
  early.fall.assign(nl.num_nets(), kInf);
  for (const netlist::NetId pi : nl.primary_inputs()) {
    early.rise[pi] = 0.0;
    early.fall[pi] = 0.0;
  }

  const util::Pwl sharp_rise = early_sharp_ramp(tech, options, true);
  const util::Pwl sharp_fall = early_sharp_ramp(tech, options, false);

  // Each gate writes only its own output slot and reads fanins from
  // earlier topological positions, so per-gate recomputation (the kernel)
  // composes to the same numbers in any topological order.
  for (const netlist::GateId g : design.dag->topo_order) {
    recompute_gate_early(design, options, coupling_derate, calc, sharp_rise,
                         sharp_fall, g, early, diag);
  }
  return early;
}

}  // namespace xtalk::sta
