// Correctness gates of the benchmark. Each gate compares a program output
// with an independent reference and returns the first difference it finds
// ("" when the output passes). They are plain functions over results so the
// benchmark's tests can feed them deliberately corrupted outputs.
#pragma once

#include <string>

#include "service/protocol.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/oracle.hpp"

namespace perfbench {

/// Sign-off run: the transistor-level simulation of the critical path
/// (`sim_delay`) must not exceed the bound, and the run must be clean: no
/// diagnostics, no missing sink wires, no budget exhaustion.
std::string check_signoff(const xtalk::sta::StaResult& result,
                          double sim_delay);

/// The incremental oracle's verdict (bitwise equal to a from-scratch run).
std::string check_equivalence(
    const xtalk::sta::incremental::EquivalenceReport& r);

/// A service run answer (full run or ECO run) against a local result of
/// the same analysis: bitwise bound, passes, critical and every endpoint;
/// not truncated and free of diagnostics.
std::string check_remote_run(const xtalk::service::RunResultMsg& remote,
                             const xtalk::sta::StaResult& local);

/// An endpoint-query answer against the local baseline, bitwise.
std::string check_endpoints(const xtalk::service::EndpointsMsg& remote,
                            const xtalk::sta::StaResult& local);

/// A slack-query answer for `endpoint` of the local baseline.
std::string check_slack(const xtalk::service::SlackMsg& remote,
                        const xtalk::sta::EndpointArrival& endpoint,
                        double required_time);

}  // namespace perfbench
