#include "delaycalc/waveform_calc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/fault_injection.hpp"

namespace xtalk::delaycalc {

namespace {

/// Initial capacity of the integrator's raw waveform, so the BE loop's
/// appends do not reallocate: on a one-step run of the s38417-like design
/// every stage solve stays below 240 samples (mean 137).
constexpr std::size_t kRawReserve = 256;

/// Earliest time >= t_min at which the waveform is at or past level `v` in
/// the given direction (at-or-above for rising, at-or-below for falling).
/// Handles waveforms that restart exactly at `v` (the post-drop state of
/// the coupling model). Returns +inf if the level is never reached.
double first_reach_after(const util::Pwl& w, double v, bool rising,
                         double t_min) {
  auto satisfied = [&](double value) {
    return rising ? value >= v - 1e-12 : value <= v + 1e-12;
  };
  const auto& pts = w.points();
  util::PwlPoint prev = pts.front();
  if (prev.t >= t_min && satisfied(prev.v)) return prev.t;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const util::PwlPoint& p = pts[i];
    if (p.t < t_min) {
      prev = p;
      continue;
    }
    const double seg_start = std::max(prev.t, t_min);
    const double va = prev.v + (p.v - prev.v) *
                                   (p.t > prev.t
                                        ? (seg_start - prev.t) / (p.t - prev.t)
                                        : 0.0);
    if (satisfied(va)) return seg_start;
    if (satisfied(p.v)) {
      const double dv = p.v - va;
      if (std::abs(dv) < 1e-300) return p.t;
      return seg_start + (v - va) / dv * (p.t - seg_start);
    }
    prev = p;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

WaveformResult solve_stage_waveform(const device::DeviceTableSet& tables,
                                    const StageDrive& drive,
                                    const OutputLoad& load,
                                    const IntegrationOptions& opt,
                                    const util::DiagHandle* diag) {
  return StageSolver(tables, drive, load, opt, diag).solve_to_settle();
}

StageSolver::StageSolver(const device::DeviceTableSet& tables,
                         const StageDrive& drive, const OutputLoad& load,
                         const IntegrationOptions& options,
                         const util::DiagHandle* diag)
    : tables_(&tables),
      drive_(drive),
      load_(load),
      opt_(options),
      diag_(diag) {
  const device::Technology& tech = tables.tech();
  const double vdd = tech.vdd;
  const bool rising = drive.output_rising;
  if (load.c_passive + load.c_active <= 0.0) {
    throw std::runtime_error("stage output has no load capacitance");
  }
  if ((rising && drive.wp_eq <= 0.0) || (!rising && drive.wn_eq <= 0.0)) {
    throw std::runtime_error("stage drive network is cut off");
  }
  ev_ = make_coupling_event(
      vdd, tech.model_vth, load.c_active, load.c_passive, rising,
      rising ? vdd - 2.0 * options.settle_band : 2.0 * options.settle_band);

  raw_.reserve(kRawReserve);
  v_ = rising ? 0.0 : vdd;
  t_ = drive.vin->front().t;
  raw_.append(t_, v_);
  fired_ = load.c_active <= 0.0;
}

WaveformResult StageSolver::solve_to_threshold() {
  if (load_.c_active > 0.0) {
    throw std::invalid_argument(
        "a coupled stage solve cannot stop at the threshold crossing");
  }
  return integrate(true);
}

WaveformResult StageSolver::solve_to_settle() { return integrate(false); }

WaveformResult StageSolver::integrate(bool stop) {
  const device::DeviceTableSet& tables = *tables_;
  const StageDrive& drive = drive_;
  const OutputLoad& load = load_;
  const IntegrationOptions& opt = opt_;
  const util::DiagHandle* diag = diag_;
  const CouplingEvent& ev = ev_;
  const device::Technology& tech = tables.tech();
  const double vdd = tech.vdd;
  const double vth = tech.model_vth;
  const bool rising = drive.output_rising;
  const util::Pwl& vin = *drive.vin;
  const double c_total = load.c_passive + load.c_active;

  util::FaultInjector* injector = diag != nullptr ? diag->faults : nullptr;
  const std::int64_t gate_ctx = diag != nullptr ? diag->ctx.gate : -1;
  const bool strict =
      diag != nullptr && diag->policy == util::FaultPolicy::kStrict;

  auto make_diag = [&](util::DiagCode code, util::Severity sev,
                       std::string msg) {
    if (diag != nullptr) return diag->make(code, sev, std::move(msg));
    util::Diagnostic d;
    d.code = code;
    d.severity = sev;
    d.message = std::move(msg);
    return d;
  };

  // Net device current into the output node and its dVout derivative;
  // `poison` models a corrupted table region (fault injection).
  auto eval_currents = [&](double vg, double v, bool poison) {
    struct Currents {
      double i;
      double di_dv;
    };
    if (poison) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      return Currents{nan, nan};
    }
    double i_net = 0.0;
    double di_dv = 0.0;
    if (drive.wp_eq > 0.0) {
      const device::CurrentDerivs d = tables.pmos().channel_current_derivs(
          drive.wp_eq, vg, vdd, v);  // current VDD -> out
      i_net += d.i;
      di_dv += d.d_vb;
    }
    if (drive.wn_eq > 0.0) {
      const device::CurrentDerivs d = tables.nmos().channel_current_derivs(
          drive.wn_eq, vg, v, 0.0);  // current out -> GND
      i_net -= d.i;
      di_dv -= d.d_va;
    }
    return Currents{i_net, di_dv};
  };

  struct Inject {
    bool diverge = false;
    bool nan = false;
    bool first_diverge = false;
    bool first_nan = false;
  };
  auto probe = [&]() {
    Inject inj;
    if (injector != nullptr) {
      const util::FireInfo a =
          injector->should_fire(util::FaultKind::kNewtonDiverge, gate_ctx);
      inj.diverge = a.fire;
      inj.first_diverge = a.first;
      const util::FireInfo b =
          injector->should_fire(util::FaultKind::kNanCurrent, gate_ctx);
      inj.nan = b.fire;
      inj.first_nan = b.first;
    }
    return inj;
  };

  struct StepAttempt {
    double v = 0.0;
    bool ok = false;
    bool nonfinite = false;
  };

  // The carried state lives in locals while the loop runs and is stored
  // back on every exit that leaves the solver resumable.
  std::size_t vin_hint = vin_hint_;
  std::uint64_t newton_iters = newton_iters_;
  int fallback_steps = fallback_steps_;
  bool reported_failure = reported_failure_;
  bool reported_damped = reported_damped_;
  bool reported_halving = reported_halving_;
  bool reported_bisection = reported_bisection_;

  // Cursor into vin for both step solvers (vin_hint). BE time moves forward
  // except after the coupling drop and in the step-halving rung, where
  // value_at falls back to binary search.

  // Backward-Euler implicit step solved by Newton on the table model. The
  // undamped (dv_clamp = 0.5) variant reproduces the historical fast path
  // bit-for-bit when it converges; exhausting max_iters now *reports*
  // failure instead of silently keeping the last iterate.
  auto newton_attempt = [&](double t_next, double h, double v_prev,
                            double dv_clamp, int max_iters,
                            const Inject& inj) {
    StepAttempt a;
    a.v = v_prev;
    if (inj.diverge) return a;
    const double vg = vin.value_at(t_next, vin_hint);
    double v = v_prev;
    for (int it = 0; it < max_iters; ++it) {
      ++newton_iters;
      const auto cur = eval_currents(vg, v, inj.nan);
      if (!std::isfinite(cur.i) || !std::isfinite(cur.di_dv)) {
        a.nonfinite = true;
        return a;
      }
      const double g = c_total * (v - v_prev) / h - cur.i;
      const double gp = c_total / h - cur.di_dv;
      double dv = -g / gp;
      if (!std::isfinite(dv)) {
        a.nonfinite = true;
        return a;
      }
      dv = std::clamp(dv, -dv_clamp, dv_clamp);
      v = std::clamp(v + dv, -0.5, vdd + 0.5);
      if (std::abs(dv) < opt.newton_tol) {
        a.v = v;
        a.ok = true;
        return a;
      }
    }
    a.v = v;
    return a;
  };

  // Last Newton-free resort for one BE step: the residual
  // g(v) = C (v - v_prev)/h - i_net(v) is strictly increasing in v
  // (C/h > 0, di_net/dv <= 0 for this stage topology), so bisection on the
  // clamp interval finds the unique root without derivatives.
  auto bisection_attempt = [&](double t_next, double h, double v_prev,
                               const Inject& inj) {
    StepAttempt a;
    a.v = v_prev;
    const double vg = vin.value_at(t_next, vin_hint);
    auto residual = [&](double v) {
      const auto cur = eval_currents(vg, v, inj.nan);
      return c_total * (v - v_prev) / h - cur.i;
    };
    double lo = -0.5;
    double hi = vdd + 0.5;
    const double g_lo = residual(lo);
    const double g_hi = residual(hi);
    if (!std::isfinite(g_lo) || !std::isfinite(g_hi)) {
      a.nonfinite = true;
      return a;
    }
    if (g_lo >= 0.0) {  // root at or below the clamp floor
      a.v = lo;
      a.ok = true;
      return a;
    }
    if (g_hi <= 0.0) {  // root at or above the clamp ceiling
      a.v = hi;
      a.ok = true;
      return a;
    }
    for (int it = 0; it < 80; ++it) {
      const double mid = 0.5 * (lo + hi);
      const double g_mid = residual(mid);
      if (!std::isfinite(g_mid)) {
        a.nonfinite = true;
        return a;
      }
      if (g_mid >= 0.0) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    a.v = 0.5 * (lo + hi);
    a.ok = true;
    return a;
  };

  // One report per fallback rung per solve (reported_* carried across a
  // stop) keeps the sink readable under sticky faults (a poisoned gate
  // takes hundreds of BE steps).
  auto advance = [&](double t_next, double h, double v_prev) {
    const Inject inj = probe();
    StepAttempt a = newton_attempt(t_next, h, v_prev, 0.5, opt.max_newton, inj);
    if (a.ok) return a.v;

    // Formerly the silent path: Newton exhausted max_newton (or produced a
    // non-finite value) and the last iterate was used as-is. Now: record,
    // honor strict policy, then walk the fallback chain.
    const util::DiagCode code = a.nonfinite
                                    ? util::DiagCode::kNonFiniteValue
                                    : util::DiagCode::kNewtonNonConvergence;
    const std::string what =
        a.nonfinite
            ? "non-finite value in BE/Newton step at t=" + std::to_string(t_next)
            : "Newton exhausted " + std::to_string(opt.max_newton) +
                  " iterations at t=" + std::to_string(t_next);
    if (diag != nullptr) {
      if (inj.first_diverge) {
        diag->report(util::DiagCode::kInjectedFault, util::Severity::kWarning,
                     "injected fault: newton-diverge");
      }
      if (inj.first_nan) {
        diag->report(util::DiagCode::kInjectedFault, util::Severity::kWarning,
                     "injected fault: nan-current");
      }
    }
    if (strict) {
      util::Diagnostic d = make_diag(code, util::Severity::kError, what);
      if (diag != nullptr && diag->sink != nullptr) diag->sink->report(d);
      throw util::DiagError(std::move(d));
    }
    if (diag != nullptr && !reported_failure) {
      diag->report(code, util::Severity::kWarning, what);
      reported_failure = true;
    }
    ++fallback_steps;

    // Rung 1: heavily damped Newton, more iterations.
    a = newton_attempt(t_next, h, v_prev, 0.05, opt.max_newton * 4, inj);
    if (a.ok) {
      if (diag != nullptr && !reported_damped) {
        diag->report(util::DiagCode::kDampedRetry, util::Severity::kInfo,
                     "damped Newton retry converged");
        reported_damped = true;
      }
      return a.v;
    }

    // Rung 2: halve the time step (2^k damped sub-steps across [t, t+h]).
    for (int k = 1; k <= opt.max_fallback_halvings; ++k) {
      const int n_sub = 1 << k;
      const double hs = h / n_sub;
      double v_sub = v_prev;
      bool ok = true;
      for (int s = 1; s <= n_sub; ++s) {
        const StepAttempt sub = newton_attempt(t_next - h + hs * s, hs, v_sub,
                                               0.05, opt.max_newton * 4, inj);
        if (!sub.ok) {
          ok = false;
          break;
        }
        v_sub = sub.v;
      }
      if (ok) {
        if (diag != nullptr && !reported_halving) {
          diag->report(util::DiagCode::kStepHalving, util::Severity::kInfo,
                       "step halving (" + std::to_string(n_sub) +
                           " sub-steps) recovered");
          reported_halving = true;
        }
        return v_sub;
      }
    }

    // Rung 3: bisection on the table model.
    a = bisection_attempt(t_next, h, v_prev, inj);
    if (a.ok) {
      if (diag != nullptr && !reported_bisection) {
        diag->report(util::DiagCode::kBisectionFallback,
                     util::Severity::kInfo,
                     "bisection on the table model recovered");
        reported_bisection = true;
      }
      return a.v;
    }

    // Chain exhausted (only non-finite device currents reach here): hand
    // the fault up for the caller to substitute a conservative bound.
    throw util::DiagError(make_diag(
        a.nonfinite ? util::DiagCode::kNonFiniteValue : code,
        util::Severity::kError,
        "solver fallback chain exhausted at t=" + std::to_string(t_next)));
  };

  util::Pwl raw = std::move(raw_);
  double v = v_;
  double t = t_;
  double h = h_;
  bool fired = fired_;
  WaveformResult result;
  result.coupled = coupled_;
  result.drop_time = drop_time_;
  const double t_in_end = vin.back().t;
  const double threshold = rising ? vth : vdd - vth;

  auto settled = [&](double voltage) {
    return rising ? voltage >= vdd - opt.settle_band
                  : voltage <= opt.settle_band;
  };
  // The clipped waveform's first two samples are final once a raw sample
  // lies past its start (first_reach_after's tolerance and interpolation).
  // `reached` only spares the scan while the output is short of it.
  auto past_threshold = [&]() {
    const bool reached = rising ? v >= threshold - 1e-12
                                : v <= threshold + 1e-12;
    return reached &&
           raw.back().t > first_reach_after(raw, threshold, rising, -1e300);
  };

  std::size_t steps = steps_;
  if (!settled_) {
    for (;; ++steps) {
      if (steps > opt.max_steps) {
        throw util::DiagError(make_diag(
            util::DiagCode::kIntegrationStall, util::Severity::kError,
            "waveform integration did not settle within " +
                std::to_string(opt.max_steps) + " steps"));
      }
      const double t_next = t + h;
      const double v_next = advance(t_next, h, v);

      if (!fired && !ev.clamped) {
        const bool crossed = rising
                                 ? (v < ev.trigger_voltage &&
                                    v_next >= ev.trigger_voltage)
                                 : (v > ev.trigger_voltage &&
                                    v_next <= ev.trigger_voltage);
        if (crossed) {
          const double frac = (ev.trigger_voltage - v) / (v_next - v);
          double t_cross = t + frac * h;
          t_cross = std::max(t_cross, raw.back().t + 1e-16);
          raw.append(t_cross, ev.trigger_voltage);
          v = rising ? ev.trigger_voltage - ev.delta_v
                     : ev.trigger_voltage + ev.delta_v;
          t = t_cross + 1e-15;
          raw.append(t, v);
          fired = true;
          result.coupled = true;
          result.drop_time = t_cross;
          h = std::max(h / 4.0, opt.h_min);
          continue;
        }
      }

      const double dv = std::abs(v_next - v);
      t = t_next;
      v = v_next;
      raw.append(t, v);
      h = std::clamp(h * std::clamp(opt.v_step_target / std::max(dv, 1e-6),
                                    0.5, 2.0),
                     opt.h_min, opt.h_max);

      if (t >= t_in_end && settled(v)) {
        if (!fired) {
          // Clamped event: the trigger lies beyond the final voltage, so
          // the worst case is a kick at the very end of the transition,
          // followed by a recovery (still an upper bound — DESIGN.md §6).
          v += rising ? -ev.delta_v : ev.delta_v;
          v = std::clamp(v, 0.0, vdd);
          t += 1e-15;
          raw.append(t, v);
          fired = true;
          result.coupled = true;
          result.drop_time = t;
          h = 1e-12;
          continue;
        }
        settled_ = true;
        break;
      }
      if (stop && past_threshold()) {
        ++steps;  // the increment the uninterrupted loop makes here
        break;
      }
    }
  }
  coupled_ = result.coupled;
  drop_time_ = result.drop_time;
  result.settle_time = t;
  result.be_steps = steps - steps_reported_;
  result.newton_iters = newton_iters - newton_reported_;

  // Clip: the propagated waveform starts at the model threshold, taken at
  // or after the coupling drop (paper: "the waveforms start with the value
  // of Vth"; the pre-drop glitch is discarded).
  const double t_min = result.coupled ? result.drop_time : -1e300;
  double t_start = first_reach_after(raw, threshold, rising, t_min);
  if (!std::isfinite(t_start)) {
    throw util::DiagError(
        make_diag(util::DiagCode::kThresholdNotCrossed,
                  util::Severity::kError,
                  "output waveform never crossed the model threshold"));
  }
  // Exact bound on the clipped waveform's length: the start sample plus
  // every raw sample after it.
  const auto& raw_pts = raw.points();
  const auto first_after = std::upper_bound(
      raw_pts.begin(), raw_pts.end(), t_start,
      [](double time, const util::PwlPoint& p) { return time < p.t; });
  util::Pwl out;
  out.reserve(1 + static_cast<std::size_t>(raw_pts.end() - first_after));
  out.append(t_start, threshold);
  double last_v = threshold;
  for (auto it = first_after; it != raw_pts.end(); ++it) {
    // Enforce monotonicity (tiny numerical wiggles only).
    const double vv =
        rising ? std::max(it->v, last_v) : std::min(it->v, last_v);
    out.append(it->t, vv);
    last_v = vv;
  }
  result.waveform = std::move(out);

  if (fallback_steps > 0) {
    // Degrade margin: the fallback chain alters the adaptive step sequence,
    // so the result carries grid-truncation noise relative to the nominal
    // solution. Shifting the whole transition right by a margin that
    // dominates that noise (and the iterative engine's best-pass drift)
    // turns "approximately equal" into "provably never earlier".
    result.degraded = true;
    result.fallback_steps = fallback_steps - fallback_reported_;
    const double span =
        std::max(result.settle_time - result.waveform.front().t, 0.0);
    const double margin =
        opt.degrade_margin_abs + opt.degrade_margin_rel * span;
    result.waveform = result.waveform.shifted(margin);
    result.settle_time += margin;
    if (result.coupled) result.drop_time += margin;
  }

  // Keep the state for a later solve_to_settle.
  raw_ = std::move(raw);
  t_ = t;
  v_ = v;
  h_ = h;
  fired_ = fired;
  steps_ = steps;
  vin_hint_ = vin_hint;
  newton_iters_ = newton_iters;
  fallback_steps_ = fallback_steps;
  reported_failure_ = reported_failure;
  reported_damped_ = reported_damped;
  reported_halving_ = reported_halving;
  reported_bisection_ = reported_bisection;
  steps_reported_ = steps;
  newton_reported_ = newton_iters;
  fallback_reported_ = fallback_steps;
  return result;
}

}  // namespace xtalk::delaycalc
