// Earliest-activity (min-arrival) analysis.
//
// The paper's one-step rule keeps an aggressor active whenever its *latest*
// opposite activity can fall after the victim's earliest activity. The
// natural refinement from the follow-up literature is the full timing
// window: an aggressor whose *earliest* possible activity lies after the
// victim has completely settled cannot couple either. That needs a lower
// bound on every net's earliest activity, computed here by min-propagation:
//
//   early(out) = min over arcs ( early(in) + arc_min_delay )
//
// with arc_min_delay a lower bound on the arc's threshold-to-threshold
// delay: sharpest input ramp, no coupling capacitance in the load (a
// same-direction neighbour can cancel its own coupling charge), and an
// aiding-divider allowance subtracted (an opposite... same-direction
// aggressor kick of dV can advance the crossing by up to dV / slope). An
// arc whose solve took the fallback chain comes back *degraded*, shifted
// later by the degrade margin; that is the unsafe direction for a lower
// bound, so a degraded arc contributes delay 0 (its input's own early
// time), which is always sound.
#pragma once

#include <vector>

#include "sta/engine.hpp"

namespace xtalk::sta {

/// Lower bound on the earliest model-threshold crossing per net and
/// direction [s]. +inf where a direction is unreachable.
struct EarlyTimes {
  std::vector<double> rise;
  std::vector<double> fall;

  double start(netlist::NetId net, bool rising) const {
    return rising ? rise[net] : fall[net];
  }
};

/// Run the min-propagation pass. EarlyOptions is declared in engine.hpp
/// (it is part of StaOptions). `coupling_derate` scales the coupling caps
/// of the aiding-assist allowance; the engine passes
/// StaOptions::coupling_derate so the bound sees the same effective caps as
/// the classification it feeds. `diag`, if given, reports the arcs' solver
/// fallbacks and arms its fault injector, with each gate's context filled
/// in; null keeps the solves silent.
EarlyTimes compute_early_activity(const DesignView& design,
                                  const EarlyOptions& options = {},
                                  double coupling_derate = 1.0,
                                  const util::DiagHandle* diag = nullptr);

/// The sharpest input ramps the min-propagation evaluates arcs with.
/// Factored out so the incremental updater constructs bit-identical
/// stimuli.
util::Pwl early_sharp_ramp(const device::Technology& tech,
                           const EarlyOptions& options, bool rising);

/// Single-gate kernel of the min-propagation: overwrite `early` for
/// `gate`'s output net from the fanins' current values. Shared by
/// compute_early_activity and the incremental early updater
/// (sta/incremental/) so both produce bitwise-identical numbers. `diag` as
/// for compute_early_activity.
void recompute_gate_early(const DesignView& design, const EarlyOptions& options,
                          double coupling_derate,
                          delaycalc::ArcDelayCalculator& calc,
                          const util::Pwl& sharp_rise,
                          const util::Pwl& sharp_fall, netlist::GateId gate,
                          EarlyTimes& early,
                          const util::DiagHandle* diag = nullptr);

}  // namespace xtalk::sta
