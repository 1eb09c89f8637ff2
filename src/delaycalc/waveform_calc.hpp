// Transistor-level waveform computation for one switching stage (paper §3).
//
// The collapsed stage (one equivalent pull-up, one equivalent pull-down
// device, gates following the input waveform) drives its output load; the
// scalar output ODE
//
//   C_total * dVout/dt = I_pullup(Vin(t), Vout) - I_pulldown(Vin(t), Vout)
//
// is integrated with Backward Euler, each implicit step solved by Newton
// iteration on the tabulated device currents. Crosstalk enters through the
// three-phase coupling model of coupling_model.hpp: the active coupling
// capacitance is passive (part of C_total) except for one instantaneous
// divider step when the victim crosses the trigger voltage. Returned
// waveforms are clipped to start at the model threshold and are monotone.
#pragma once

#include <cstdint>

#include "delaycalc/coupling_model.hpp"
#include "device/device_table.hpp"
#include "util/diag.hpp"
#include "util/pwl.hpp"

namespace xtalk::delaycalc {

/// The collapsed electrical drive of a switching stage.
struct StageDrive {
  double wn_eq = 0.0;       ///< equivalent pull-down width [m] (0 = absent)
  double wp_eq = 0.0;       ///< equivalent pull-up width [m]
  const util::Pwl* vin = nullptr;  ///< input gate waveform, absolute time
  bool output_rising = true;
};

/// Capacitive load on the stage output.
struct OutputLoad {
  double c_passive = 0.0;  ///< grounded cap incl. passively-modeled coupling [F]
  double c_active = 0.0;   ///< coupling modeled actively (paper model) [F]
};

struct WaveformResult {
  util::Pwl waveform;       ///< monotone, starts at the model threshold
  double settle_time = 0.0; ///< time the output finished moving (quiet from here)
  bool coupled = false;     ///< an active coupling event fired
  double drop_time = 0.0;   ///< when it fired (if coupled)
  /// A solver fallback shaped this result. The waveform has been shifted
  /// right by the degrade margin, making it a conservative (never earlier)
  /// bound on the nominal solution.
  bool degraded = false;
  int fallback_steps = 0;   ///< BE steps that needed the fallback chain
  // Solver work counters (for the sta/metrics layer): accepted BE steps and
  // total Newton iterations spent on them. Bookkeeping of loop variables the
  // integrator maintains anyway — they never change the computed waveform.
  std::uint64_t be_steps = 0;
  std::uint64_t newton_iters = 0;
};

struct IntegrationOptions {
  double v_step_target = 0.033; ///< aimed-for voltage change per step [V]
  double h_min = 0.2e-12;       ///< [s]
  double h_max = 100e-12;       ///< [s]
  double settle_band = 1e-3;    ///< rail proximity counting as settled [V]
  double newton_tol = 1e-6;     ///< [V]
  int max_newton = 30;
  std::size_t max_steps = 500000;
  /// Fallback chain: maximum number of times a failed BE step is halved
  /// (2^k sub-steps) before falling back to bisection on the table model.
  int max_fallback_halvings = 4;
  /// Pessimistic time shift applied to any degraded waveform:
  /// margin = degrade_margin_abs + degrade_margin_rel * transition span.
  /// The absolute part dominates grid-truncation noise from the altered
  /// step sequence; the relative part scales with slow transitions.
  double degrade_margin_abs = 2e-12;  ///< [s]
  double degrade_margin_rel = 0.05;
};

/// Integrate one stage output transition.
///
/// `diag` (optional) attaches the fault-tolerance pipeline: diagnostics are
/// reported against its context, its policy selects strict (first Newton
/// failure throws util::DiagError) vs degrade (fallback chain: damped
/// retry -> step halving -> bisection on the table model; the result is
/// marked degraded and margin-shifted). Without a handle the degrade chain
/// still runs (a failure is never silent again) but nothing is recorded.
/// Unrecoverable faults (chain exhausted, integration stall, threshold
/// never crossed) throw util::DiagError for the caller to bound-substitute.
WaveformResult solve_stage_waveform(const device::DeviceTableSet& tables,
                                    const StageDrive& drive,
                                    const OutputLoad& load,
                                    const IntegrationOptions& options = {},
                                    const util::DiagHandle* diag = nullptr);

/// solve_stage_waveform as a resumable solve. The paper's best case needs
/// only its threshold crossing (t_bcs, §5.1), so an uncoupled solve can
/// stop there and, only if its waveform is wanted after all, go on to the
/// rail. The Backward-Euler state (step, voltage, raw samples, fallback
/// reports) is carried across the stop, so the finished solve is bitwise
/// the uninterrupted one, diagnostics and work counters included.
///
/// `tables`, `*drive.vin` and `diag` are borrowed and must outlive the
/// solver. A solver whose solve threw is spent.
class StageSolver {
 public:
  /// Throws std::runtime_error like solve_stage_waveform on a stage with no
  /// load capacitance or a cut-off drive network.
  StageSolver(const device::DeviceTableSet& tables, const StageDrive& drive,
              const OutputLoad& load, const IntegrationOptions& options = {},
              const util::DiagHandle* diag = nullptr);

  /// Integrate until the output has reached the model threshold and holds a
  /// sample after the crossing. The result is the waveform clipped so far:
  /// its first two samples are bitwise those of the finished solve (both
  /// shifted by a smaller margin if a fallback ran); settle_time is the stop
  /// time. Only for a load without active coupling, whose waveform starts
  /// at the threshold crossing rather than at a coupling drop.
  WaveformResult solve_to_threshold();

  /// Integrate (on from a stop, if any) until the output settles:
  /// solve_stage_waveform's result. The work counters of the result count
  /// only the steps this call took.
  WaveformResult solve_to_settle();

 private:
  /// The Backward-Euler loop; returns after the settle or, with `stop`, at
  /// the threshold crossing.
  WaveformResult integrate(bool stop);

  const device::DeviceTableSet* tables_;
  StageDrive drive_;
  OutputLoad load_;
  IntegrationOptions opt_;
  const util::DiagHandle* diag_;
  CouplingEvent ev_;

  // Integration state, carried across a stop.
  util::Pwl raw_;
  double t_ = 0.0;
  double v_ = 0.0;
  double h_ = 1e-12;
  bool fired_ = false;
  bool settled_ = false;
  bool coupled_ = false;
  double drop_time_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t vin_hint_ = 0;
  std::uint64_t newton_iters_ = 0;
  int fallback_steps_ = 0;
  bool reported_failure_ = false;
  bool reported_damped_ = false;
  bool reported_halving_ = false;
  bool reported_bisection_ = false;
  // Counters already handed out by a stopped solve.
  std::size_t steps_reported_ = 0;
  std::uint64_t newton_reported_ = 0;
  int fallback_reported_ = 0;
};

}  // namespace xtalk::delaycalc
