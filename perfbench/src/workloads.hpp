// The benchmark's workloads, all closed loops on the paper's s38417
// stand-in (netlist::s38417_like):
//
//   signoff      one cold iterative analysis per process; the critical
//                path is simulated at transistor level after it.
//   eco_loop     a seeded order of single-gate resize_gate/set_wire_cap
//                edits on one DesignEditor, each re-timed by a one-step
//                IncrementalSta; checked against a from-scratch run.
//   service_mix  an in-process XtalkServer (2 executors, 1-thread pools) and
//                3 client connections sending a seeded mix of slack queries,
//                endpoint queries and ECO edit+run; answers are checked
//                against a local single-threaded mirror.
//
// Every workload times its calls into the analyzer's public functions from
// outside and reads the counters the analyzer already returns; nothing in
// the analyzer is instrumented.
#pragma once

#include <string>

#include "metrics.hpp"
#include "netlist/circuit_generator.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  unsigned long long seed = 1;
  /// Traced run: record spans, collect engine metrics, report per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Design scale (1 = full s38417 size); smaller values are for tests.
  double scale = 1.0;
  /// Where the traced run writes its spans; empty = not written.
  std::string spans_path;
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// The design every workload analyzes, at the given scale.
xtalk::netlist::GeneratorSpec design_spec(double scale);

/// Edits per eco_loop run, and requests of one service client per
/// service_mix run. The counts are fixed; they meet the tail-percentile rule
/// (at least 100 edits and ECO round trips, 1000 slack queries).
inline constexpr std::size_t kEcoEdits = 100;
struct ServiceMixCounts {
  std::size_t slack = 0;
  std::size_t endpoints = 0;
  std::size_t eco = 0;
};
inline constexpr std::size_t kServiceClients = 3;
ServiceMixCounts service_counts(std::size_t client);

/// Run one workload and collect its metrics and gate verdicts.
Outcome run_workload(const Config& config);

}  // namespace perfbench
