#include "oracles.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

template <typename Endpoint>
std::string compare_endpoints(double remote_delay, const Endpoint& critical,
                              const std::vector<Endpoint>& endpoints,
                              const xtalk::sta::StaResult& local) {
  std::ostringstream why;
  if (!same_bits(remote_delay, local.longest_path_delay)) {
    why << "longest path " << remote_delay << " vs local "
        << local.longest_path_delay;
    return why.str();
  }
  if (critical.net != local.critical.net ||
      critical.rising != local.critical.rising ||
      !same_bits(critical.arrival, local.critical.arrival)) {
    why << "critical endpoint net " << critical.net << " vs local "
        << local.critical.net;
    return why.str();
  }
  if (endpoints.size() != local.endpoints.size()) {
    why << endpoints.size() << " endpoints vs local " << local.endpoints.size();
    return why.str();
  }
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const auto& r = endpoints[i];
    const auto& l = local.endpoints[i];
    if (r.net != l.net || r.rising != l.rising ||
        !same_bits(r.arrival, l.arrival)) {
      why << "endpoint " << i << " (net " << l.net << ") differs";
      return why.str();
    }
  }
  return "";
}

}  // namespace

std::string check_signoff(const xtalk::sta::StaResult& result,
                          double sim_delay) {
  std::ostringstream why;
  const double bound = result.longest_path_delay;
  if (!(bound > 0.0) || !std::isfinite(bound)) {
    why << "bound " << bound << " is not a positive delay";
  } else if (!(sim_delay > 0.0) || !std::isfinite(sim_delay)) {
    why << "simulated critical path delay " << sim_delay << " is not valid";
  } else if (sim_delay > bound) {
    why << "simulated delay " << sim_delay * 1e9 << " ns exceeds the bound "
        << bound * 1e9 << " ns";
  } else if (!result.diagnostics.empty()) {
    why << result.diagnostics.entries.size() << " diagnostics ("
        << result.diagnostics.dropped << " dropped)";
  } else if (result.missing_sink_wires != 0) {
    why << result.missing_sink_wires << " missing sink wires";
  } else if (result.budget.exhausted) {
    why << "run budget exhausted";
  }
  return why.str();
}

std::string check_equivalence(
    const xtalk::sta::incremental::EquivalenceReport& r) {
  return r.identical ? "" : "incremental differs from scratch: " + r.mismatch;
}

std::string check_remote_run(const xtalk::service::RunResultMsg& remote,
                             const xtalk::sta::StaResult& local) {
  if (remote.budget_exhausted) return "service run was truncated";
  if (!remote.diagnostics.empty() || remote.diagnostics_dropped != 0) {
    return "service run reported diagnostics";
  }
  if (remote.passes != local.passes) {
    std::ostringstream why;
    why << remote.passes << " passes vs local " << local.passes;
    return why.str();
  }
  return compare_endpoints(remote.longest_path_delay, remote.critical,
                           remote.endpoints, local);
}

std::string check_endpoints(const xtalk::service::EndpointsMsg& remote,
                            const xtalk::sta::StaResult& local) {
  return compare_endpoints(remote.longest_path_delay, remote.critical,
                           remote.endpoints, local);
}

std::string check_slack(const xtalk::service::SlackMsg& remote,
                        const xtalk::sta::EndpointArrival& endpoint,
                        double required_time) {
  std::ostringstream why;
  if (!remote.valid) {
    why << "slack of endpoint net " << endpoint.net << " reported invalid";
  } else if (!same_bits(remote.arrival, endpoint.arrival) ||
             !same_bits(remote.slack, required_time - endpoint.arrival)) {
    why << "slack of endpoint net " << endpoint.net << " is " << remote.slack
        << ", expected " << required_time - endpoint.arrival;
  }
  return why.str();
}

}  // namespace perfbench
