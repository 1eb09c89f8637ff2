// Transient analysis: Backward-Euler integration with full Newton
// iteration per time step on the tabulated device model.
//
// The Jacobian of a critical-path circuit is narrowly banded when nodes are
// created in path order, so the inner solve uses a banded LU without
// pivoting (the C/h capacitor terms make the matrix strongly diagonally
// dominant); a dense pivoted LU is the automatic fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device_table.hpp"
#include "sim/circuit.hpp"
#include "util/diag.hpp"
#include "util/fault_injection.hpp"
#include "util/pwl.hpp"

namespace xtalk::sim {

struct TransientOptions {
  double tstop = 10e-9;      ///< end time [s]
  double dt = 2e-12;         ///< base time step [s]
  double abstol = 1e-6;      ///< Newton convergence on voltage [V]
  int max_newton = 50;       ///< iterations per step before step halving
  int max_step_halvings = 10;
  double gmin = 1e-9;        ///< conductance to ground on every node [S]
  int record_every = 1;      ///< keep every k-th time point
  /// Diagnostic sink for solver events (borrowed; null = unrecorded).
  util::DiagSink* sink = nullptr;
  /// Test-only deterministic fault injection (borrowed; null = off).
  util::FaultInjector* fault_injector = nullptr;
  /// kStrict (default, the historical behaviour): an unrecoverable solver
  /// failure throws util::DiagError. kDegrade: the simulator records the
  /// failure, holds the previous state across the bad step (zero-order
  /// hold), and completes.
  util::FaultPolicy fault_policy = util::FaultPolicy::kStrict;
};

/// Integration-effort bookkeeping for one simulate() call. Pure counts of
/// control-flow events that already happen; recording them never perturbs
/// the integration.
struct SolverStats {
  std::uint64_t accepted_steps = 0;  ///< outer BE steps that converged
  std::uint64_t newton_retries = 0;  ///< damped retries after a failed solve
  std::uint64_t step_halvings = 0;   ///< h *= 0.5 events
  std::uint64_t holds = 0;           ///< zero-order holds (kDegrade only)
};

class TransientResult {
 public:
  TransientResult(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  SolverStats stats;

  void record(double t, const std::vector<double>& v);

  const std::vector<double>& times() const { return times_; }
  std::size_t num_steps() const { return times_.size(); }
  double voltage(std::size_t step, NodeId node) const {
    return values_[step * num_nodes_ + node];
  }

  /// Node voltage as a PWL waveform (collinear points merged).
  util::Pwl waveform(NodeId node) const;

 private:
  std::size_t num_nodes_;
  std::vector<double> times_;
  std::vector<double> values_;  ///< step-major
};

/// Run the transient. Under the default kStrict policy, throws
/// util::DiagError (code kTransientStepLimit / kDcNonConvergence) if Newton
/// fails to converge even at the minimum step size; under kDegrade the
/// failure is recorded in `options.sink` and the run completes with a
/// zero-order hold across the bad step.
TransientResult simulate(const Circuit& circuit,
                         const device::DeviceTableSet& tables,
                         const TransientOptions& options);

/// Solve the DC operating point with capacitors open and sources at their
/// t=0 values (exposed for tests). Returns one voltage per node.
std::vector<double> dc_operating_point(const Circuit& circuit,
                                       const device::DeviceTableSet& tables,
                                       const TransientOptions& options);

}  // namespace xtalk::sim
