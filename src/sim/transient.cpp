#include "sim/transient.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/linear_solver.hpp"

namespace xtalk::sim {

namespace {

/// Banded matrix with equal lower/upper bandwidth, LU-factored in place
/// without pivoting. Row-major band storage.
class BandMatrix {
 public:
  void reset(std::size_t n, std::size_t bw) {
    n_ = n;
    bw_ = bw;
    stride_ = 2 * bw + 1;
    data_.assign(n * stride_, 0.0);
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  double& at(std::size_t r, std::size_t c) {
    return data_[r * stride_ + (c + bw_ - r)];
  }
  double get(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + (c + bw_ - r)];
  }

  /// LU factorization without pivoting. Returns false on a tiny pivot.
  bool factor() {
    for (std::size_t k = 0; k < n_; ++k) {
      const double piv = at(k, k);
      if (std::abs(piv) < 1e-30) return false;
      const double inv = 1.0 / piv;
      const std::size_t rmax = std::min(n_ - 1, k + bw_);
      for (std::size_t r = k + 1; r <= rmax; ++r) {
        const double m = at(r, k) * inv;
        at(r, k) = m;
        if (m == 0.0) continue;
        const std::size_t cmax = std::min(n_ - 1, k + bw_);
        for (std::size_t c = k + 1; c <= cmax; ++c) {
          at(r, c) -= m * at(k, c);
        }
      }
    }
    return true;
  }

  /// Solve with the factored matrix, overwriting rhs with the solution.
  void solve(std::vector<double>& rhs) const {
    for (std::size_t r = 0; r < n_; ++r) {
      const std::size_t c0 = r > bw_ ? r - bw_ : 0;
      double s = rhs[r];
      for (std::size_t c = c0; c < r; ++c) s -= get(r, c) * rhs[c];
      rhs[r] = s;
    }
    for (std::size_t ri = n_; ri-- > 0;) {
      const std::size_t cmax = std::min(n_ - 1, ri + bw_);
      double s = rhs[ri];
      for (std::size_t c = ri + 1; c <= cmax; ++c) s -= get(ri, c) * rhs[c];
      rhs[ri] = s / get(ri, ri);
    }
  }

 private:
  std::size_t n_ = 0, bw_ = 0, stride_ = 1;
  std::vector<double> data_;
};

/// Assembles the Newton system for the circuit at a given state.
class Assembler {
 public:
  Assembler(const Circuit& ckt, const device::DeviceTableSet& tables,
            const TransientOptions& opt)
      : ckt_(ckt), tables_(tables), opt_(opt) {
    const std::size_t nn = ckt.num_nodes();
    unknown_.assign(nn, -1);
    std::vector<char> forced(nn, 0);
    forced[ckt.ground()] = 1;
    for (const VSource& s : ckt.vsources()) forced[s.node] = 1;
    for (NodeId n = 0; n < nn; ++n) {
      if (!forced[n]) {
        unknown_[n] = static_cast<int>(unknown_nodes_.size());
        unknown_nodes_.push_back(n);
      }
    }
    // Bandwidth over all element stamps.
    std::size_t bw = 0;
    auto widen = [&](NodeId a, NodeId b) {
      const int ia = unknown_[a], ib = unknown_[b];
      if (ia >= 0 && ib >= 0) {
        bw = std::max<std::size_t>(bw, static_cast<std::size_t>(
                                           std::abs(ia - ib)));
      }
    };
    for (const Resistor& r : ckt.resistors()) widen(r.a, r.b);
    for (const Capacitor& c : ckt.capacitors()) widen(c.a, c.b);
    for (const Mosfet& m : ckt.mosfets()) {
      widen(m.drain, m.source);
      widen(m.drain, m.gate);
      widen(m.source, m.gate);
    }
    bandwidth_ = bw;
    use_dense_ = bw * 2 + 1 >= unknown_nodes_.size();
    if (use_dense_) {
      dense_ = util::Matrix(unknown_nodes_.size(), unknown_nodes_.size());
    } else {
      band_.reset(unknown_nodes_.size(), bandwidth_);
    }
    f_.resize(unknown_nodes_.size());
  }

  std::size_t num_unknowns() const { return unknown_nodes_.size(); }
  const std::vector<NodeId>& unknown_nodes() const { return unknown_nodes_; }

  /// Assemble residual f(v) and Jacobian at state `v` (full node vector).
  /// With `with_caps`, capacitors contribute BE terms using `v_prev` and
  /// step `h`.
  void assemble(const std::vector<double>& v, const std::vector<double>& v_prev,
                double h, bool with_caps) {
    if (use_dense_) {
      dense_.set_zero();
    } else {
      band_.set_zero();
    }
    std::fill(f_.begin(), f_.end(), 0.0);

    auto add_j = [&](int r, int c, double g) {
      if (r < 0 || c < 0) return;
      if (use_dense_) {
        dense_(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += g;
      } else {
        band_.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += g;
      }
    };
    auto add_f = [&](int r, double val) {
      if (r >= 0) f_[static_cast<std::size_t>(r)] += val;
    };

    // gmin to ground keeps floating nodes solvable.
    for (std::size_t u = 0; u < unknown_nodes_.size(); ++u) {
      add_j(static_cast<int>(u), static_cast<int>(u), opt_.gmin);
      f_[u] += opt_.gmin * v[unknown_nodes_[u]];
    }

    auto stamp_conductance = [&](NodeId a, NodeId b, double g, double i) {
      const int ia = unknown_[a], ib = unknown_[b];
      add_f(ia, i);
      add_f(ib, -i);
      add_j(ia, ia, g);
      add_j(ib, ib, g);
      add_j(ia, ib, -g);
      add_j(ib, ia, -g);
    };

    for (const Resistor& r : ckt_.resistors()) {
      const double g = 1.0 / r.r;
      stamp_conductance(r.a, r.b, g, g * (v[r.a] - v[r.b]));
    }
    if (with_caps) {
      for (const Capacitor& c : ckt_.capacitors()) {
        const double g = c.c / h;
        const double i = g * ((v[c.a] - v[c.b]) - (v_prev[c.a] - v_prev[c.b]));
        stamp_conductance(c.a, c.b, g, i);
      }
    }
    for (const Mosfet& m : ckt_.mosfets()) {
      const device::DeviceTable& tab = tables_.table(m.type);
      const device::CurrentDerivs cd = tab.channel_current_derivs(
          m.width, v[m.gate], v[m.drain], v[m.source]);
      const int id = unknown_[m.drain];
      const int is = unknown_[m.source];
      const int ig = unknown_[m.gate];
      add_f(id, cd.i);
      add_f(is, -cd.i);
      add_j(id, id, cd.d_va);
      add_j(id, is, cd.d_vb);
      add_j(id, ig, cd.d_vg);
      add_j(is, id, -cd.d_va);
      add_j(is, is, -cd.d_vb);
      add_j(is, ig, -cd.d_vg);
    }
  }

  /// Solve J * delta = -f. Returns false if the matrix is singular.
  bool solve_delta(std::vector<double>& delta) {
    delta.assign(f_.size(), 0.0);
    for (std::size_t i = 0; i < f_.size(); ++i) delta[i] = -f_[i];
    if (use_dense_) {
      util::LuSolver lu;
      if (!lu.factorize(dense_)) return false;
      delta = lu.solve(delta);
      return true;
    }
    if (!band_.factor()) return false;  // in place; band_ is rebuilt anyway
    band_.solve(delta);
    return true;
  }

 private:
  const Circuit& ckt_;
  const device::DeviceTableSet& tables_;
  const TransientOptions& opt_;
  std::vector<int> unknown_;
  std::vector<NodeId> unknown_nodes_;
  std::size_t bandwidth_ = 0;
  bool use_dense_ = false;
  util::Matrix dense_;
  BandMatrix band_;
  std::vector<double> f_;
};

/// Outcome of one Newton solve, distinguishing the failure modes so the
/// caller can report (and escalate) precisely.
struct NewtonOutcome {
  bool ok = false;
  bool singular = false;   ///< Jacobian factorization failed
  bool nonfinite = false;  ///< NaN/Inf escaped into the iteration
};

/// Newton iteration at one (DC or transient) point. Updates `v` in place
/// for the unknown nodes. `inject_*` force the corresponding failure
/// (deterministic fault injection).
NewtonOutcome newton_solve(Assembler& asem, std::vector<double>& v,
                           const std::vector<double>& v_prev, double h,
                           bool with_caps, const TransientOptions& opt,
                           double damping_limit, bool inject_diverge = false,
                           bool inject_singular = false) {
  NewtonOutcome out;
  if (inject_diverge) return out;
  std::vector<double> delta;
  for (int iter = 0; iter < opt.max_newton; ++iter) {
    asem.assemble(v, v_prev, h, with_caps);
    if (inject_singular || !asem.solve_delta(delta)) {
      out.singular = true;
      return out;
    }
    double err = 0.0;
    const auto& nodes = asem.unknown_nodes();
    for (std::size_t u = 0; u < nodes.size(); ++u) {
      double d = std::clamp(delta[u], -damping_limit, damping_limit);
      if (!std::isfinite(d)) {
        out.nonfinite = true;
        return out;
      }
      v[nodes[u]] += d;
      err = std::max(err, std::abs(d));
    }
    if (err < opt.abstol) {
      out.ok = true;
      return out;
    }
  }
  return out;
}

/// Report a solver diagnostic against the options' sink (no-op when null;
/// transient runs have no gate/net context).
void report(const TransientOptions& opt, util::DiagCode code,
            util::Severity sev, std::string msg) {
  if (opt.sink == nullptr) return;
  util::Diagnostic d;
  d.code = code;
  d.severity = sev;
  d.message = std::move(msg);
  opt.sink->report(std::move(d));
}

util::DiagError make_error(const TransientOptions& opt, util::DiagCode code,
                           std::string msg) {
  util::Diagnostic d;
  d.code = code;
  d.severity = util::Severity::kError;
  d.message = std::move(msg);
  if (opt.sink != nullptr) opt.sink->report(d);
  return util::DiagError(std::move(d));
}

void apply_sources(const Circuit& ckt, double t, std::vector<double>& v) {
  v[ckt.ground()] = 0.0;
  for (const VSource& s : ckt.vsources()) v[s.node] = s.v.value_at(t);
}

}  // namespace

void TransientResult::record(double t, const std::vector<double>& v) {
  assert(v.size() == num_nodes_);
  times_.push_back(t);
  values_.insert(values_.end(), v.begin(), v.end());
}

util::Pwl TransientResult::waveform(NodeId node) const {
  util::Pwl w;
  for (std::size_t s = 0; s < times_.size(); ++s) {
    if (!w.empty() && times_[s] <= w.back().t) continue;
    w.append(times_[s], voltage(s, node));
  }
  return w;
}

std::vector<double> dc_operating_point(const Circuit& ckt,
                                       const device::DeviceTableSet& tables,
                                       const TransientOptions& opt) {
  Assembler asem(ckt, tables, opt);
  std::vector<double> v(ckt.num_nodes(), 0.0);
  apply_sources(ckt, 0.0, v);
  // Heavily damped Newton from zero; a few restarts with decreasing damping
  // cover bistable structures.
  TransientOptions dc_opt = opt;
  dc_opt.max_newton = 400;
  if (newton_solve(asem, v, v, 1.0, /*with_caps=*/false, dc_opt, 0.3).ok) {
    return v;
  }
  // Retry from mid-rail.
  std::fill(v.begin(), v.end(), 1.0);
  apply_sources(ckt, 0.0, v);
  if (newton_solve(asem, v, v, 1.0, false, dc_opt, 0.1).ok) return v;
  // Last fallback: crawl from zero with very heavy damping and a large
  // iteration budget (slow, but monotone enough for pathological stacks).
  std::fill(v.begin(), v.end(), 0.0);
  apply_sources(ckt, 0.0, v);
  dc_opt.max_newton = 4000;
  if (newton_solve(asem, v, v, 1.0, false, dc_opt, 0.02).ok) {
    report(opt, util::DiagCode::kDcNonConvergence, util::Severity::kInfo,
           "DC operating point needed the heavily-damped fallback");
    return v;
  }
  if (opt.fault_policy == util::FaultPolicy::kDegrade) {
    // Degrade: proceed from the best-effort iterate, loudly. The transient
    // BE steps pull the state toward a consistent trajectory.
    report(opt, util::DiagCode::kDcNonConvergence, util::Severity::kError,
           "DC operating point did not converge; continuing from the last "
           "damped iterate");
    return v;
  }
  throw make_error(opt, util::DiagCode::kDcNonConvergence,
                   "DC operating point did not converge");
}

TransientResult simulate(const Circuit& ckt,
                         const device::DeviceTableSet& tables,
                         const TransientOptions& opt) {
  Assembler asem(ckt, tables, opt);
  std::vector<double> v = dc_operating_point(ckt, tables, opt);
  for (const auto& [node, value] : ckt.initials()) v[node] = value;

  TransientResult result(ckt.num_nodes());
  result.record(0.0, v);

  std::vector<double> v_prev = v;
  double t = 0.0;
  double h = opt.dt;
  const double h_min = opt.dt / std::pow(2.0, opt.max_step_halvings);
  int recorded = 0;
  bool reported_halving = false;
  bool reported_singular = false;
  bool reported_hold = false;
  std::size_t holds = 0;
  while (t < opt.tstop - 1e-18) {
    const double step = std::min(h, opt.tstop - t);
    const double t_next = t + step;
    v = v_prev;  // predictor: previous value
    apply_sources(ckt, t_next, v);
    bool inject_diverge = false;
    bool inject_singular = false;
    bool first_diverge = false;
    bool first_singular = false;
    if (opt.fault_injector != nullptr) {
      const util::FireInfo a =
          opt.fault_injector->should_fire(util::FaultKind::kNewtonDiverge, -1);
      inject_diverge = a.fire;
      first_diverge = a.first;
      const util::FireInfo b = opt.fault_injector->should_fire(
          util::FaultKind::kSingularMatrix, -1);
      inject_singular = b.fire;
      first_singular = b.first;
    }
    if (first_diverge) {
      report(opt, util::DiagCode::kInjectedFault, util::Severity::kWarning,
             "injected fault: newton-diverge");
    }
    if (first_singular) {
      report(opt, util::DiagCode::kInjectedFault, util::Severity::kWarning,
             "injected fault: singular-matrix");
    }
    NewtonOutcome nw = newton_solve(asem, v, v_prev, step, /*with_caps=*/true,
                                    opt, 1.0, inject_diverge, inject_singular);
    if (!nw.ok) {
      // Damped retry before halving: a hard transition that overshoots
      // full Newton often converges with a limited update.
      ++result.stats.newton_retries;
      v = v_prev;
      apply_sources(ckt, t_next, v);
      TransientOptions damped = opt;
      damped.max_newton = opt.max_newton * 4;
      nw = newton_solve(asem, v, v_prev, step, true, damped, 0.05,
                        inject_diverge, inject_singular);
      if (nw.ok) {
        report(opt, util::DiagCode::kDampedRetry, util::Severity::kInfo,
               "damped Newton retry converged at t=" + std::to_string(t));
      }
    }
    if (!nw.ok) {
      if (nw.singular && !reported_singular) {
        report(opt, util::DiagCode::kSingularMatrix, util::Severity::kWarning,
               "Jacobian factorization failed at t=" + std::to_string(t));
        reported_singular = true;
      }
      if (nw.nonfinite) {
        report(opt, util::DiagCode::kNonFiniteValue, util::Severity::kWarning,
               "non-finite Newton update at t=" + std::to_string(t));
      }
      h *= 0.5;
      ++result.stats.step_halvings;
      if (h >= h_min) {
        if (!reported_halving) {
          report(opt, util::DiagCode::kStepHalving, util::Severity::kInfo,
                 "time step halved after Newton failure at t=" +
                     std::to_string(t));
          reported_halving = true;
        }
        continue;
      }
      if (opt.fault_policy == util::FaultPolicy::kDegrade) {
        // Zero-order hold: carry the previous state across the bad step
        // and try again with the base step. The held waveform understates
        // nothing that was already recorded, and the hold itself is loud.
        ++holds;
        if (!reported_hold) {
          report(opt, util::DiagCode::kTransientHold, util::Severity::kError,
                 "Newton failed at the minimum step; holding state across "
                 "t=" + std::to_string(t));
          reported_hold = true;
        }
        v = v_prev;
        apply_sources(ckt, t_next, v);
        t = t_next;
        v_prev = v;
        if (++recorded >= opt.record_every) {
          result.record(t, v);
          recorded = 0;
        }
        h = opt.dt;
        continue;
      }
      throw make_error(opt, util::DiagCode::kTransientStepLimit,
                       "transient Newton failed at t=" + std::to_string(t) +
                           " (minimum step reached)");
    }
    t = t_next;
    v_prev = v;
    ++result.stats.accepted_steps;
    if (++recorded >= opt.record_every) {
      result.record(t, v);
      recorded = 0;
    }
    if (h < opt.dt) h = std::min(opt.dt, h * 2.0);
  }
  if (recorded != 0) result.record(t, v);
  result.stats.holds = holds;
  if (holds > 1) {
    report(opt, util::DiagCode::kTransientHold, util::Severity::kWarning,
           std::to_string(holds) + " zero-order holds in total");
  }
  return result;
}

}  // namespace xtalk::sim
