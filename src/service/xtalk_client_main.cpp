// xtalk_client: command-line client for a running xtalk_serve.
//
//   xtalk_client --socket /tmp/xtalk.sock hello
//   xtalk_client --socket /tmp/xtalk.sock run --mode one-step
//   xtalk_client --tcp-port 7380 endpoints
//   xtalk_client --tcp-port 7380 --retries 5 --timeout-ms 2000 health
//   xtalk_client --socket /tmp/xtalk.sock stats
//   xtalk_client --socket /tmp/xtalk.sock shutdown
//
// Over TCP the client retries idempotent requests through transport faults
// (--retries, exponential backoff) instead of failing on the first torn
// connection; --timeout-ms bounds every blocking read either way.
#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>

#include "service/cli_args.hpp"
#include "service/client.hpp"
#include "service/retry.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: xtalk_client [--socket PATH | --tcp-port N] COMMAND\n"
         "  --timeout-ms N            per-read deadline (default 10000 over\n"
         "                            TCP, unbounded on unix sockets)\n"
         "  --retries N               retry budget over TCP (default 5;\n"
         "                            0 = fail on the first fault)\n"
         "commands:\n"
         "  hello                     design summary\n"
         "  ping                      liveness check\n"
         "  run [run options]         full analysis, print summary\n"
         "  endpoints [run options]   all endpoint arrivals of the baseline\n"
         "  health                    load probe (answered on the event\n"
         "                            loop, never queued)\n"
         "  stats                     server counters\n"
         "  shutdown                  graceful drain\n"
         "run options:\n"
         "  --mode M                  best-case | static | worst-case |\n"
         "                            one-step | iterative (default one-step)\n"
         "  --nldm                    table delay model\n"
         "  --deadline-ms X           per-request deadline budget\n"
         "  --max-calcs N             per-request waveform-calc budget\n";
}

xtalk::sta::AnalysisMode parse_mode(const std::string& m) {
  using xtalk::sta::AnalysisMode;
  if (m == "best-case") return AnalysisMode::kBestCase;
  if (m == "static") return AnalysisMode::kStaticDoubled;
  if (m == "worst-case") return AnalysisMode::kWorstCase;
  if (m == "one-step") return AnalysisMode::kOneStep;
  if (m == "iterative") return AnalysisMode::kIterative;
  throw std::runtime_error("unknown mode " + m);
}

// The two client flavors agree on every method except the stats name.
xtalk::service::StatsMsg get_stats(xtalk::service::XtalkClient& c) {
  return c.stats();
}
xtalk::service::StatsMsg get_stats(xtalk::service::ResilientClient& c) {
  return c.server_stats();
}
void do_shutdown(xtalk::service::XtalkClient& c) { c.shutdown_server(); }
void do_shutdown(xtalk::service::ResilientClient& c) { c.shutdown_server(); }

/// Dispatch `command` against either client flavor.
template <typename Client>
int run_command(Client& client, const std::string& command,
                const xtalk::service::RunSpec& spec) {
  using namespace xtalk;
  if (command == "hello") {
    const service::HelloOkMsg m = client.hello();
    std::cout << "design " << m.design_name << ": " << m.num_gates
              << " gates, " << m.num_nets << " nets, " << m.num_levels
              << " levels (protocol v" << m.protocol_version << ")\n";
  } else if (command == "ping") {
    client.ping();
    std::cout << "pong\n";
  } else if (command == "run") {
    const service::RunResultMsg m = client.run_sta(spec);
    std::cout << "longest path delay: " << m.longest_path_delay * 1e9
              << " ns (net " << m.critical.net << ", "
              << (m.critical.rising ? "rising" : "falling") << ")\n"
              << "passes: " << m.passes
              << ", waveform calcs: " << m.waveform_calculations
              << ", runtime: " << m.runtime_seconds << " s\n";
    if (m.budget_exhausted) {
      std::cout << "TRUNCATED (conservative anytime result, "
                << m.untimed_endpoints.size() << " untimed endpoints)\n";
    }
  } else if (command == "endpoints") {
    const service::EndpointsMsg m = client.query_endpoints(spec);
    for (const service::WireEndpoint& e : m.endpoints) {
      std::cout << "net " << e.net << (e.rising ? " r " : " f ")
                << e.arrival * 1e9 << " ns\n";
    }
    std::cout << "longest path delay: " << m.longest_path_delay * 1e9
              << " ns\n";
  } else if (command == "health") {
    const service::HealthMsg h = client.health();
    std::cout << (h.accepting ? "accepting" : "draining") << " (protocol v"
              << h.protocol_version << ")\n"
              << "connections: " << h.connections
              << ", queue depth: " << h.queue_depth << "/"
              << h.soft_queue_limit
              << (h.clamping ? " (clamping budgets)" : "") << "\n"
              << "eco sessions open: " << h.eco_sessions_open
              << ", outbox backlog: " << h.outbox_bytes << " bytes\n";
  } else if (command == "stats") {
    const service::StatsMsg s = get_stats(client);
    std::cout << "requests: " << s.requests_total << " total, "
              << s.requests_ok << " ok, " << s.requests_error << " error, "
              << s.requests_truncated << " truncated, "
              << s.requests_degraded_admission << " degraded\n"
              << "eco sessions open: " << s.eco_sessions_open << " (reaped "
              << s.eco_sessions_reaped << "), connections: "
              << s.connections_total << " (evicted " << s.connections_evicted
              << ")\n"
              << "bytes in/out: " << s.bytes_in << "/" << s.bytes_out
              << ", queue peak: " << s.queue_peak << ", uptime: "
              << s.uptime_seconds << " s\n";
  } else if (command == "shutdown") {
    do_shutdown(client);
    std::cout << "server draining\n";
  } else {
    std::cerr << "unknown command " << command << "\n";
    usage();
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xtalk;

  std::string socket_path = "/tmp/xtalk.sock";
  bool use_tcp = false;
  std::uint16_t tcp_port = 0;
  int timeout_ms = -1;  // -1 = flavor default
  int retries = 5;
  std::string command;
  service::RunSpec spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--tcp-port") {
      use_tcp = true;
      tcp_port = static_cast<std::uint16_t>(
          service::parse_int_flag(arg, value(), 1, 65535));
    } else if (arg == "--timeout-ms") {
      timeout_ms =
          static_cast<int>(service::parse_int_flag(arg, value(), 0, INT_MAX));
    } else if (arg == "--retries") {
      retries =
          static_cast<int>(service::parse_int_flag(arg, value(), 0, 1000));
    } else if (arg == "--mode") {
      spec.mode = parse_mode(value());
    } else if (arg == "--nldm") {
      spec.delay_model = sta::DelayModel::kNldm;
    } else if (arg == "--deadline-ms") {
      spec.deadline_ms = service::parse_nonneg_real_flag(arg, value());
    } else if (arg == "--max-calcs") {
      spec.max_waveform_calcs = static_cast<std::uint64_t>(
          service::parse_int_flag(arg, value(), 0, LLONG_MAX));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (command.empty() && arg[0] != '-') {
      command = arg;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (command.empty()) {
    usage();
    return 2;
  }

  try {
    if (use_tcp) {
      service::RetryPolicy policy;
      policy.max_attempts = retries + 1;
      policy.read_timeout_ms = timeout_ms >= 0 ? timeout_ms : 10000;
      service::ResilientClient client(tcp_port, policy);
      return run_command(client, command, spec);
    }
    service::XtalkClient client = service::XtalkClient::connect_unix(socket_path);
    if (timeout_ms >= 0) client.set_read_timeout_ms(timeout_ms);
    return run_command(client, command, spec);
  } catch (const std::exception& e) {
    std::cerr << "xtalk_client: " << e.what() << "\n";
    return 1;
  }
}
