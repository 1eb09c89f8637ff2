// xtalk_serve: the long-lived analysis daemon.
//
//   xtalk_serve --socket /tmp/xtalk.sock --preset s38417
//   xtalk_serve --tcp-port 7380 --bench design.bench --executors 4
//
// Loads the design ONCE (netlist -> placement -> routing -> extraction ->
// levelization), then serves analysis requests over the binary protocol
// until SIGTERM/SIGINT (graceful drain: listener closes first, received
// requests finish, connections flush) or a client kShutdown.
//
// The server holds no state on disk: ECO sessions live as long as their
// connection, and a client recovers a lost session by replaying its own
// edit journal onto a fresh one (service/retry.hpp).
//
// Signals are handled async-signal-safely via a self-pipe: handlers only
// write() one byte; the event loop reads it and does the actual work on a
// normal thread.
#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "service/cli_args.hpp"
#include "service/server.hpp"

namespace {

// Self-pipe of the stop signals. Handlers do nothing but write one byte;
// draining the server happens outside signal context.
int g_stop_pipe[2] = {-1, -1};

void on_stop_signal(int) {
  const char tag = 't';
  // The pipe is non-blocking; if it is full a stop byte is already pending.
  [[maybe_unused]] ssize_t n = ::write(g_stop_pipe[1], &tag, 1);
}

bool make_stop_pipe() {
  if (::pipe(g_stop_pipe) != 0) return false;
  for (int fd : g_stop_pipe) {
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  return true;
}

void close_stop_pipe() {
  for (int& fd : g_stop_pipe) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void usage() {
  std::cerr
      << "usage: xtalk_serve [options]\n"
         "  --socket PATH       listen on a unix-domain socket (default\n"
         "                      /tmp/xtalk.sock when --tcp-port is absent)\n"
         "  --tcp-port N        listen on loopback TCP instead (0 = pick)\n"
         "  --preset NAME       synthetic design: s35932 | s38417 | s38584\n"
         "                      | tiny (default s38417)\n"
         "  --bench FILE        load a .bench netlist instead of a preset\n"
         "  --executors N       concurrent request executors (default 2)\n"
         "  --pool-threads N    worker threads per executor (default 1,\n"
         "                      0 = hardware concurrency)\n"
         "  --deadline-ms X     default per-request deadline budget\n"
         "  --max-calcs N       default per-request waveform-calc budget\n"
         "  --soft-queue N      admission clamp threshold (default 8)\n"
         "  --drain-truncate    truncate in-flight runs on shutdown instead\n"
         "                      of finishing them\n"
         "  --stall-timeout-ms N\n"
         "                      evict connections making no read/write\n"
         "                      progress for N ms (default 30000, 0 = never)\n"
         "  --drain-flush-ms N  per-connection flush grace during drain\n"
         "                      (default 5000)\n"
         "  --max-outbox-bytes N\n"
         "                      pause reading from a connection whose\n"
         "                      response backlog exceeds N (default 8 MiB)\n";
}

/// Run the server to completion in this process. Installs self-pipe signal
/// handlers (SIGTERM/SIGINT -> drain) and wires the pipe's read end into the
/// event loop via ServiceConfig::stop_event_fd.
int run_server(xtalk::core::Design&& design, const std::string& name,
               xtalk::service::ServiceConfig config) {
  using namespace xtalk;
  if (!make_stop_pipe()) {
    std::cerr << "xtalk_serve: fatal: cannot create signal pipe: "
              << std::strerror(errno) << "\n";
    return 1;
  }
  config.stop_event_fd = g_stop_pipe[0];
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);

  service::DesignSession session(std::move(design), name);
  service::XtalkServer server(session, config);
  server.start();
  if (config.unix_path.empty()) {
    std::cerr << "xtalk_serve: listening on tcp 127.0.0.1:" << server.port()
              << "\n";
  } else {
    std::cerr << "xtalk_serve: listening on " << config.unix_path << "\n";
  }
  server.join();
  const service::StatsMsg s = server.stats_snapshot();
  std::cerr << "xtalk_serve: drained after " << s.requests_total
            << " requests (" << s.requests_truncated << " truncated, "
            << s.requests_error << " errors)\n";
  close_stop_pipe();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xtalk;

  std::string socket_path;
  bool use_tcp = false;
  std::uint16_t tcp_port = 0;
  std::string preset = "s38417";
  std::string bench_file;
  service::ServiceConfig config;

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
          service::parse_int_flag(arg, value(), 0, 65535));
    } else if (arg == "--preset") {
      preset = value();
    } else if (arg == "--bench") {
      bench_file = value();
    } else if (arg == "--executors") {
      config.num_executors = static_cast<std::size_t>(
          service::parse_int_flag(arg, value(), 1, 1024));
    } else if (arg == "--pool-threads") {
      config.pool_threads =
          static_cast<int>(service::parse_int_flag(arg, value(), 0, 1024));
    } else if (arg == "--deadline-ms") {
      config.default_budget.deadline_ms =
          service::parse_nonneg_real_flag(arg, value());
    } else if (arg == "--max-calcs") {
      config.default_budget.max_waveform_calcs = static_cast<std::size_t>(
          service::parse_int_flag(arg, value(), 0, LLONG_MAX));
    } else if (arg == "--soft-queue") {
      config.admission.soft_queue = static_cast<std::size_t>(
          service::parse_int_flag(arg, value(), 0, LLONG_MAX));
    } else if (arg == "--drain-truncate") {
      config.drain = service::DrainPolicy::kTruncate;
    } else if (arg == "--stall-timeout-ms") {
      config.stall_timeout_ms =
          static_cast<int>(service::parse_int_flag(arg, value(), 0, INT_MAX));
    } else if (arg == "--drain-flush-ms") {
      config.drain_flush_timeout_ms =
          static_cast<int>(service::parse_int_flag(arg, value(), 0, INT_MAX));
    } else if (arg == "--max-outbox-bytes") {
      config.max_outbox_bytes = static_cast<std::size_t>(
          service::parse_int_flag(arg, value(), 1, LLONG_MAX));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (use_tcp) {
    config.tcp_port = tcp_port;
  } else {
    config.unix_path = socket_path.empty() ? "/tmp/xtalk.sock" : socket_path;
  }

  try {
    std::string name;
    core::Design design = [&] {
      if (!bench_file.empty()) {
        std::ifstream in(bench_file);
        if (!in) throw std::runtime_error("cannot open " + bench_file);
        std::ostringstream text;
        text << in.rdbuf();
        name = bench_file;
        return core::Design::from_bench(text.str());
      }
      netlist::GeneratorSpec spec;
      if (preset == "s35932") {
        spec = netlist::s35932_like();
      } else if (preset == "s38417") {
        spec = netlist::s38417_like();
      } else if (preset == "s38584") {
        spec = netlist::s38584_like();
      } else if (preset == "tiny") {
        spec = netlist::scaled_spec("tiny", 7, 300, 10);
      } else {
        throw std::runtime_error("unknown preset " + preset);
      }
      name = spec.name;
      std::cerr << "xtalk_serve: building " << name << " (" << spec.num_cells
                << " cells)...\n";
      return core::Design::generate(spec);
    }();

    return run_server(std::move(design), name, config);
  } catch (const std::exception& e) {
    std::cerr << "xtalk_serve: fatal: " << e.what() << "\n";
    return 1;
  }
}
