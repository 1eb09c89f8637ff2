#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/crosstalk_sta.hpp"
#include "core/validation.hpp"
#include "device/device_table.hpp"
#include "extract/extractor.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/levelize.hpp"
#include "oracles.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "sta/incremental/incremental_sta.hpp"

namespace perfbench {

namespace {

using namespace xtalk;

/// Worker threads of every local engine run. Fixed and never 0, which would
/// mean one per hardware thread; 3 keeps each process within the 4 cores
/// the benchmark was tuned on, next to the threads that drive it.
constexpr int kEngineThreads = 3;
/// Flows per signoff run; its setup_s is their median. The other workloads
/// set up once, and their setup_s includes the cold first engine run.
constexpr int kSignoffSetups = 21;
/// Required time of every slack query [s].
constexpr double kRequiredTime = 10e-9;
/// Idle health probes after the service loop.
constexpr std::size_t kHealthProbes = 200;

double ms_since(double t0) { return (now_s() - t0) * 1e3; }

void require_tail(Outcome& out, const char* what, std::size_t n, double p) {
  if (!tail_supported(n, p)) {
    out.fail(std::string(what) + ": too few samples for its tail percentile");
  }
}

/// Engine counters summed over the analyses of a workload's timed phase.
struct EngineTotals {
  double runs = 0, passes = 0, pass1_s = 0, later_passes_s = 0;
  double calcs = 0, gates_evaluated = 0, classifications = 0;
  double be_steps = 0, newton = 0, fallback = 0, degraded = 0;
  double busy_ns = 0, wait_ns = 0, thread_wall_s = 0;

  void add(const sta::StaResult& r) {
    runs += 1;
    passes += r.passes;
    calcs += static_cast<double>(r.waveform_calculations);
    const sta::MetricsSnapshot& m = r.metrics;
    if (!m.enabled) return;
    for (std::size_t i = 0; i < m.passes.size(); ++i) {
      (i == 0 ? pass1_s : later_passes_s) += m.passes[i].wall_seconds;
    }
    using C = sta::EngineCounter;
    gates_evaluated += static_cast<double>(m.counter(C::kGatesEvaluated));
    classifications +=
        static_cast<double>(m.counter(C::kCouplingClassifications));
    be_steps += static_cast<double>(m.counter(C::kBeSteps));
    newton += static_cast<double>(m.counter(C::kNewtonIterations));
    fallback += static_cast<double>(m.counter(C::kFallbackBeSteps));
    degraded += static_cast<double>(m.counter(C::kDegradedArcs));
    busy_ns += static_cast<double>(m.pool_busy_ns);
    wait_ns += static_cast<double>(m.pool_wait_ns);
    thread_wall_s += m.run_wall_seconds * m.threads;
  }

  void report(Outcome& out) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.set("sta.passes", ratio(passes, runs));
    out.set("sta.pass1_s", pass1_s);
    out.set("sta.later_passes_s", later_passes_s);
    out.set("sta.waveform_calcs", calcs);
    out.set("sta.gates_evaluated", gates_evaluated);
    out.set("sta.coupling_classifications", classifications);
    out.set("delaycalc.be_steps", be_steps);
    out.set("delaycalc.newton_iters", newton);
    out.set("delaycalc.fallback_be_steps", fallback);
    out.set("delaycalc.busy_ns_per_be_step", ratio(busy_ns, be_steps));
    out.set("delaycalc.degraded_arcs", degraded);
    out.set("pool.busy_s", busy_ns * 1e-9);
    out.set("pool.wait_s", wait_ns * 1e-9);
    out.set("pool.wait_share", ratio(wait_ns, busy_ns + wait_ns));
    out.set("pool.utilization", ratio(busy_ns * 1e-9, thread_wall_s));
  }
};

/// Per-edit samples of incremental re-timing.
struct EditSamples {
  std::vector<double> apply_ms, retime_ms, engine_ms, dirty_frac, calcs;
  double reused = 0, evaluated = 0;

  void add(double apply, double retime, const sta::StaResult& r,
           const sta::incremental::IncrementalStats& stats) {
    apply_ms.push_back(apply);
    retime_ms.push_back(retime);
    engine_ms.push_back(r.metrics.run_wall_seconds * 1e3);
    dirty_frac.push_back(
        stats.total_nets == 0
            ? 0.0
            : static_cast<double>(stats.dirty_nets) /
                  static_cast<double>(stats.total_nets));
    calcs.push_back(static_cast<double>(r.waveform_calculations));
    reused += static_cast<double>(r.gates_reused);
    evaluated += static_cast<double>(
        r.metrics.counter(sta::EngineCounter::kGatesEvaluated));
  }

  void report(Outcome& out) const {
    out.set("incremental.edit_apply_ms", median(apply_ms));
    out.set("incremental.retime_ms", median(retime_ms));
    out.set("incremental.engine_ms", median(engine_ms));
    out.set("incremental.overhead_ms", median(retime_ms) - median(engine_ms));
    out.set("incremental.dirty_frac", median(dirty_frac));
    out.set("incremental.calcs_per_edit", median(calcs));
    out.set("incremental.reuse_ratio",
            reused + evaluated > 0 ? reused / (reused + evaluated) : 0.0);
  }
};

/// Layers the benchmark does not exercise on a workload read zero.
void zero_layers(Outcome& out) {
  for (const MetricSpec& m : per_layer_specs()) out.set(m.name, 0.0);
}

/// The physical flow, step by step through the same public calls
/// core::Design::build makes, in the same order. Traced runs do this before
/// anything else, so device.tables_s includes building the shared tables.
void time_flow_layers(const netlist::GeneratorSpec& spec, Outcome& out) {
  constexpr int kReps = 3;
  std::vector<double> gen, clock, lev, place, route, ext, tables;
  for (int rep = 0; rep < kReps; ++rep) {
    double t = now_s();
    std::optional<netlist::Netlist> nl;
    {
      Scope s("netlist.generate");
      nl.emplace(netlist::generate_circuit(
          spec, netlist::CellLibrary::half_micron()));
    }
    gen.push_back(now_s() - t);
    t = now_s();
    {
      Scope s("netlist.clock_tree");
      netlist::build_clock_tree(*nl, netlist::ClockTreeOptions{});
    }
    clock.push_back(now_s() - t);
    t = now_s();
    std::optional<netlist::LevelizedDag> dag;
    {
      Scope s("netlist.levelize");
      dag.emplace(netlist::levelize(*nl));
    }
    lev.push_back(now_s() - t);
    t = now_s();
    std::optional<layout::Placement> placement;
    {
      Scope s("layout.place");
      placement.emplace(*nl, *dag, layout::PlacementOptions{});
    }
    place.push_back(now_s() - t);
    t = now_s();
    std::optional<layout::RoutedDesign> routing;
    {
      Scope s("layout.route");
      routing.emplace(*nl, *placement, layout::RouterOptions{});
    }
    route.push_back(now_s() - t);
    t = now_s();
    std::optional<extract::Parasitics> parasitics;
    {
      Scope s("extract.extract");
      parasitics.emplace(extract::extract(*nl, *routing,
                                          nl->library().tech(),
                                          extract::ExtractionOptions{}));
    }
    ext.push_back(now_s() - t);
    t = now_s();
    {
      Scope s("device.tables");
      (void)device::DeviceTableSet::half_micron();
    }
    tables.push_back(now_s() - t);
    if (rep == 0) {
      out.set("netlist.gates", static_cast<double>(nl->num_gates()));
      out.set("netlist.levels", static_cast<double>(dag->num_levels));
      out.set("extract.coupling_pairs",
              static_cast<double>(parasitics->coupling_pairs().size()));
    }
  }
  out.set("netlist.generate_s", median(gen));
  out.set("netlist.clock_tree_s", median(clock));
  out.set("netlist.levelize_s", median(lev));
  out.set("layout.place_s", median(place));
  out.set("layout.route_s", median(route));
  out.set("extract.extract_s", median(ext));
  // Later calls return the shared static; the first one builds it.
  out.set("device.tables_s", tables.front());
}

sta::StaOptions engine_options(sta::AnalysisMode mode, bool trace) {
  sta::StaOptions opt;
  opt.mode = mode;
  opt.num_threads = kEngineThreads;
  opt.collect_metrics = trace;
  return opt;
}

// ---------------------------------------------------------------------------
// signoff
// ---------------------------------------------------------------------------

void run_signoff(const Config& cfg, Outcome& out) {
  const netlist::GeneratorSpec spec = design_spec(cfg.scale);
  std::optional<core::Design> design;
  std::vector<double> setups;
  for (int rep = 0; rep < kSignoffSetups; ++rep) {
    design.reset();
    const double t = now_s();
    {
      Scope s("core.generate");
      design.emplace(core::Design::generate(spec));
    }
    setups.push_back(now_s() - t);
  }
  out.set("setup_s", median(setups));

  // Timed: one cold iterative analysis, the paper's sign-off bound. It is
  // the workload's only operation, so its p50 and tail are this one run.
  const double t_run = now_s();
  sta::StaResult result;
  {
    Scope s("sta.run", 1);
    result =
        design->run(engine_options(sta::AnalysisMode::kIterative, cfg.trace));
  }
  const double run_s = now_s() - t_run;
  out.phase_s = run_s;
  out.attempted += 1;
  out.set("full_run_s", run_s);
  out.set("op_p50_ms", run_s * 1e3);
  out.set("op_tail_ms", run_s * 1e3);
  out.set("ops_per_s", 1.0 / run_s);
  out.set("bound_delay", result.longest_path_delay * 1e9);

  // Gate, after the timed phase: simulate the critical path at transistor
  // level with the aggressors the run says can switch.
  double sim_delay = 0.0;
  {
    Scope s("sim.validate");
    core::ValidationOptions vopt;
    vopt.policy = core::AggressorPolicy::kFromTiming;
    sim_delay = core::validate_critical_path(*design, result, vopt).sim_delay;
  }
  const std::string why = check_signoff(result, sim_delay);
  if (!why.empty()) {
    out.fail("signoff: " + why);
    out.failed += 1;
  }
  std::cerr << "signoff: bound " << result.longest_path_delay * 1e9
            << " ns, simulated " << sim_delay * 1e9 << " ns, " << result.passes
            << " passes, " << run_s << " s\n";

  if (cfg.trace) {
    EngineTotals totals;
    totals.add(result);
    totals.report(out);
  }
}

// ---------------------------------------------------------------------------
// eco_loop
// ---------------------------------------------------------------------------

struct EcoState {
  std::unique_ptr<core::Design> design;
  std::unique_ptr<sta::incremental::DesignEditor> editor;
  std::unique_ptr<sta::incremental::IncrementalSta> session;
};

EcoState eco_setup(const netlist::GeneratorSpec& spec, const Config& cfg) {
  EcoState st;
  {
    Scope s("core.generate");
    st.design = std::make_unique<core::Design>(core::Design::generate(spec));
  }
  st.editor =
      std::make_unique<sta::incremental::DesignEditor>(st.design->view());
  st.session = std::make_unique<sta::incremental::IncrementalSta>(
      *st.editor,
      engine_options(sta::AnalysisMode::kOneStep, cfg.trace));
  Scope s("incremental.baseline");
  st.session->run();
  return st;
}

/// Edit targets: the data-path gates and signal nets. The clock network is
/// left alone: one clock-buffer edit re-times every flip-flop it feeds and
/// costs seconds, which would dominate a 100-edit run.
struct EditTargets {
  std::vector<std::uint32_t> gates;
  std::vector<std::uint32_t> nets;
};

EditTargets edit_targets(const netlist::Netlist& nl) {
  EditTargets t;
  std::vector<char> data_gate(nl.num_gates(), 0);
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(static_cast<netlist::NetId>(n));
    if (net.kind != netlist::NetKind::kSignal) continue;
    t.nets.push_back(static_cast<std::uint32_t>(n));
    if (net.driver.gate != netlist::kNoGate) data_gate[net.driver.gate] = 1;
  }
  for (std::size_t g = 0; g < data_gate.size(); ++g) {
    if (data_gate[g]) t.gates.push_back(static_cast<std::uint32_t>(g));
  }
  return t;
}

/// The edit set: `n` single-gate edits, 70% resize_gate (factor in
/// [0.8, 1.3)) and 30% set_wire_cap (1 to 21 fF). Edit k of m hits the
/// target at fraction (k + offset) / m of its list, a stratified sample
/// that covers shallow and deep logic alike. Targets and values are fixed;
/// the run's seed only shuffles the order. Whether an edit's change is
/// masked downstream or re-times a large cone depends on its target and
/// value, and the p90 of 100 edits sits near that divide, so drawing the
/// set anew per seed would make the tail a property of the seed.
std::vector<service::EcoOp> edit_sequence(Rng& rng, std::size_t n,
                                          const EditTargets& targets,
                                          double offset = 0.5) {
  Rng values(0x5eed0f1e5ull);
  const std::size_t resizes = (n * 7 + 5) / 10;
  const auto pick = [offset](std::size_t k, std::size_t m,
                             const std::vector<std::uint32_t>& from) {
    const double x = (static_cast<double>(k) + offset) /
                     static_cast<double>(m) * static_cast<double>(from.size());
    return from[std::min(from.size() - 1, static_cast<std::size_t>(x))];
  };
  std::vector<service::EcoOp> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::EcoOp& op = ops[i];
    if (i < resizes) {
      op.kind = service::EcoOp::Kind::kResizeGate;
      op.gate = pick(i, resizes, targets.gates);
      op.value_a = values.uniform(0.8, 1.3);
    } else {
      op.kind = service::EcoOp::Kind::kSetWireCap;
      op.net_a = pick(i - resizes, n - resizes, targets.nets);
      op.value_a = values.uniform(1e-15, 21e-15);
    }
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.below(i)]);
  }
  return ops;
}

void apply_op(sta::incremental::DesignEditor& editor,
              const service::EcoOp& op) {
  if (op.kind == service::EcoOp::Kind::kResizeGate) {
    editor.resize_gate(op.gate, op.value_a);
  } else {
    editor.set_wire_cap(op.net_a, op.value_a);
  }
}

void run_eco_loop(const Config& cfg, Outcome& out) {
  const double t_setup = now_s();
  const EcoState st = eco_setup(design_spec(cfg.scale), cfg);
  out.set("setup_s", now_s() - t_setup);

  const std::size_t edits = kEcoEdits;
  Rng rng(cfg.seed);
  const std::vector<service::EcoOp> sequence =
      edit_sequence(rng, edits, edit_targets(st.editor->netlist()));
  std::vector<double> edit_ms;
  EditSamples samples;
  EngineTotals totals;
  sta::StaResult last;
  std::size_t edit_failures = 0;
  const double t_loop = now_s();
  for (std::size_t i = 0; i < edits; ++i) {
    const std::uint64_t op = i + 1;
    try {
      Scope s_op("bench.edit", op);
      const double t0 = now_s();
      {
        Scope s("incremental.edit_apply", op);
        apply_op(*st.editor, sequence[i]);
      }
      const double t1 = now_s();
      {
        Scope s("incremental.retime", op);
        last = st.session->run();
      }
      const double t2 = now_s();
      edit_ms.push_back((t2 - t0) * 1e3);
      samples.add((t1 - t0) * 1e3, (t2 - t1) * 1e3, last,
                  st.session->stats());
      totals.add(last);
    } catch (const std::exception& e) {
      if (edit_failures++ == 0) out.fail(std::string("edit: ") + e.what());
    }
  }
  const double loop_s = now_s() - t_loop;
  out.phase_s = loop_s;
  out.attempted += edits;
  out.failed += edit_failures;
  require_tail(out, "eco edits", edit_ms.size(), 0.90);
  out.set("op_p50_ms", median(edit_ms));
  out.set("op_tail_ms", percentile(edit_ms, 0.90));
  out.set("ops_per_s", loop_s > 0 ? edit_ms.size() / loop_s : 0.0);
  out.set("bound_delay", last.longest_path_delay * 1e9);
  if (!last.diagnostics.empty() || last.budget.exhausted) {
    out.fail("eco_loop: last re-time has diagnostics or hit its budget");
    out.failed += 1;
  }

  // Gate: the oracle re-times the edited design from scratch at the
  // workload's thread count and compares bitwise. full_run_s is this warm
  // full run; the cold baseline run is part of setup_s.
  const double t_verify = now_s();
  sta::incremental::EquivalenceReport eq;
  {
    Scope s("incremental.verify");
    eq = sta::incremental::verify_incremental(*st.editor, *st.session,
                                              kEngineThreads);
  }
  out.set("full_run_s", now_s() - t_verify);
  out.attempted += 1;
  if (const std::string why = check_equivalence(eq); !why.empty()) {
    out.fail("eco_loop: " + why);
    out.failed += 1;
  }
  std::cerr << "eco_loop: " << edit_ms.size() << " edits in " << loop_s
            << " s, p50 " << median(edit_ms) << " ms, bound "
            << last.longest_path_delay * 1e9 << " ns, oracle "
            << (eq.identical ? "identical" : "DIFFERS") << "\n";

  if (cfg.trace) {
    totals.report(out);
    samples.report(out);
  }
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

enum class Req : std::uint8_t { kSlack, kEndpoints, kEco };

struct EcoAnswer {
  std::vector<service::EcoOp> ops;
  service::RunResultMsg answer;
};

struct ClientLog {
  std::vector<double> slack_ms, endpoints_ms, eco_ms;
  std::vector<EcoAnswer> eco;  ///< kept by the mirrored client only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;

  void error(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

service::RunSpec service_spec() {
  service::RunSpec spec;
  spec.mode = sta::AnalysisMode::kOneStep;
  return spec;
}

/// The seeded, shuffled request schedule of one client.
std::vector<Req> client_schedule(Rng& rng, const ServiceMixCounts& n) {
  std::vector<Req> s;
  s.insert(s.end(), n.slack, Req::kSlack);
  s.insert(s.end(), n.endpoints, Req::kEndpoints);
  s.insert(s.end(), n.eco, Req::kEco);
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng.below(i)]);
  }
  return s;
}

void run_service_mix(const Config& cfg, Outcome& out) {
  const netlist::GeneratorSpec spec = design_spec(cfg.scale);
  const service::RunSpec run_spec = service_spec();

  const double t_setup = now_s();
  std::unique_ptr<service::DesignSession> session;
  {
    Scope s("core.generate");
    session = std::make_unique<service::DesignSession>(
        core::Design::generate(spec), spec.name);
  }
  service::ServiceConfig config;
  config.tcp_port = 0;
  config.num_executors = 2;
  config.pool_threads = 1;
  service::XtalkServer server(*session, config);
  {
    Scope s("service.start");
    server.start();
  }
  // Connections are pinned round-robin: clients 0 and 2 share executor 0,
  // client 1 has executor 1.
  std::vector<std::unique_ptr<service::XtalkClient>> clients;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    clients.push_back(std::make_unique<service::XtalkClient>(
        service::XtalkClient::connect_tcp(server.port())));
  }

  // Warm-up: one thread per executor, so no request waits behind another.
  // Executor 0: client 0 opens its ECO session and runs it once (its full
  // baseline run), then client 2 fills the query baseline. Executor 1:
  // client 1 does the same, then sends the uncapped full run_sta. Each of
  // the four is a full one-step run; full_run_s is their median round trip.
  // Meanwhile the local single-threaded mirror computes the reference
  // every answer is checked against.
  sta::StaOptions mirror_opt = run_spec.to_options();
  mirror_opt.num_threads = 1;
  mirror_opt.collect_metrics = cfg.trace;
  sta::incremental::DesignEditor mirror_editor(session->view());
  sta::incremental::IncrementalSta mirror(mirror_editor, mirror_opt);
  sta::StaResult reference;
  std::thread mirror_thread([&] {
    Scope s("incremental.mirror_baseline");
    reference = mirror.run();
  });
  std::vector<ClientLog> logs(kServiceClients);
  std::vector<std::uint32_t> eco_ids(kServiceClients, 0);
  std::vector<service::RunResultMsg> first_runs(kServiceClients);
  std::optional<service::EndpointsMsg> first_endpoints;
  service::RunResultMsg full_run;
  std::vector<double> full_runs_s(4, 0.0);
  {
    // Opens client c's session and runs it once; returns the run's time.
    const auto eco_baseline = [&](std::size_t c) {
      ++logs[c].attempted;
      {
        Scope s("service.eco_open");
        eco_ids[c] = clients[c]->eco_open(run_spec).session_id;
      }
      ++logs[c].attempted;
      const double t0 = now_s();
      Scope s("service.eco_run");
      first_runs[c] = clients[c]->eco_run(eco_ids[c]);
      return now_s() - t0;
    };
    std::thread exec0([&] {
      try {
        full_runs_s[0] = eco_baseline(0);
      } catch (const std::exception& e) {
        logs[0].error(std::string("warm-up: ") + e.what());
      }
      try {
        ++logs[2].attempted;
        const double t0 = now_s();
        Scope s("service.endpoints");
        first_endpoints = clients[2]->query_endpoints(run_spec);
        full_runs_s[1] = now_s() - t0;
      } catch (const std::exception& e) {
        logs[2].error(std::string("warm-up: ") + e.what());
      }
    });
    try {
      full_runs_s[2] = eco_baseline(1);
      ++logs[1].attempted;
      const double t0 = now_s();
      Scope s("service.run_sta");
      full_run = clients[1]->run_sta(run_spec);
      full_runs_s[3] = now_s() - t0;
    } catch (const std::exception& e) {
      logs[1].error(std::string("warm-up: ") + e.what());
    }
    exec0.join();
  }
  out.set("setup_s", now_s() - t_setup);
  mirror_thread.join();

  out.set("full_run_s", median(full_runs_s));
  for (std::size_t c = 0; c < 2; ++c) {
    if (logs[c].failed != 0) continue;
    if (const std::string why = check_remote_run(first_runs[c], reference);
        !why.empty()) {
      logs[c].error("first ECO run: " + why);
    }
  }
  if (logs[1].failed == 0) {
    if (const std::string why = check_remote_run(full_run, reference);
        !why.empty()) {
      logs[1].error("run_sta: " + why);
    }
  }
  if (!first_endpoints) {
    logs[2].error("warm-up endpoint query missing");
  } else if (const std::string why =
                 check_endpoints(*first_endpoints, reference);
             !why.empty()) {
    logs[2].error("endpoints: " + why);
  }

  // Timed: the closed loop. Each client sends its schedule back to back.
  const std::size_t num_endpoints = reference.endpoints.size();
  const auto view = session->view();
  const EditTargets targets = edit_targets(*view.netlist);
  std::atomic<std::size_t> ready{0};
  double t_loop = 0.0;
  std::vector<double> client_end(kServiceClients, 0.0);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServiceClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        service::XtalkClient& client = *clients[c];
        Rng rng(cfg.seed * 0x100000001b3ull + c + 1);
        const ServiceMixCounts counts = service_counts(c);
        const std::vector<Req> schedule = client_schedule(rng, counts);
        const std::vector<service::EcoOp> edits =
            edit_sequence(rng, counts.eco, targets, c == 0 ? 0.25 : 0.75);
        std::size_t next_edit = 0;
        ready.fetch_add(1);
        while (ready.load() < kServiceClients + 1) std::this_thread::yield();
        std::uint64_t op = (c + 1) * 1000000ull;
        for (const Req req : schedule) {
          ++op;
          ++log.attempted;
          try {
            if (req == Req::kSlack) {
              const sta::EndpointArrival& ep =
                  reference.endpoints[rng.below(num_endpoints)];
              service::SlackQueryMsg q;
              q.spec = run_spec;
              q.net = ep.net;
              q.rising = ep.rising;
              q.required_time = kRequiredTime;
              const double t0 = now_s();
              service::SlackMsg m;
              {
                Scope s("service.slack", op);
                m = client.query_slack(q);
              }
              log.slack_ms.push_back(ms_since(t0));
              if (const std::string why = check_slack(m, ep, kRequiredTime);
                  !why.empty()) {
                log.error(why);
              }
            } else if (req == Req::kEndpoints) {
              const double t0 = now_s();
              service::EndpointsMsg m;
              {
                Scope s("service.endpoints", op);
                m = client.query_endpoints(run_spec);
              }
              log.endpoints_ms.push_back(ms_since(t0));
              if (const std::string why = check_endpoints(m, reference);
                  !why.empty()) {
                log.error("endpoints: " + why);
              }
            } else {
              const std::vector<service::EcoOp> ops{edits[next_edit++]};
              const double t0 = now_s();
              service::RunResultMsg m;
              {
                Scope s("service.eco", op);
                {
                  Scope s_edit("service.eco_edit", op);
                  client.eco_edit(eco_ids[c], ops);
                }
                Scope s_run("service.eco_run", op);
                m = client.eco_run(eco_ids[c]);
              }
              log.eco_ms.push_back(ms_since(t0));
              if (m.budget_exhausted || !m.diagnostics.empty()) {
                log.error("ECO run truncated or with diagnostics");
              }
              if (c == 0) log.eco.push_back({ops, std::move(m)});
            }
          } catch (const std::exception& e) {
            log.error(e.what());
          }
        }
        client_end[c] = now_s();
      });
    }
    while (ready.load() < kServiceClients) std::this_thread::yield();
    t_loop = now_s();
    ready.fetch_add(1);
    for (std::thread& t : threads) t.join();
  }
  const double loop_s =
      *std::max_element(client_end.begin(), client_end.end()) - t_loop;
  out.phase_s = loop_s;

  std::vector<double> slack_ms, endpoints_ms, eco_ms;
  for (const ClientLog& log : logs) {
    slack_ms.insert(slack_ms.end(), log.slack_ms.begin(), log.slack_ms.end());
    endpoints_ms.insert(endpoints_ms.end(), log.endpoints_ms.begin(),
                        log.endpoints_ms.end());
    eco_ms.insert(eco_ms.end(), log.eco_ms.begin(), log.eco_ms.end());
  }
  const std::size_t requests =
      slack_ms.size() + endpoints_ms.size() + eco_ms.size();
  require_tail(out, "slack queries", slack_ms.size(), 0.99);
  require_tail(out, "ECO round trips", eco_ms.size(), 0.90);
  out.set("op_p50_ms", median(eco_ms));
  out.set("op_tail_ms", percentile(eco_ms, 0.90));
  out.set("ops_per_s", loop_s > 0 ? requests / loop_s : 0.0);

  // After the loop: server counters and the idle health floor.
  service::StatsMsg stats;
  std::vector<double> health_ms;
  try {
    stats = clients[1]->stats();
    for (std::size_t i = 0; i < kHealthProbes; ++i) {
      const double t0 = now_s();
      {
        Scope s("service.health");
        clients[1]->health();
      }
      health_ms.push_back(ms_since(t0));
    }
  } catch (const std::exception& e) {
    logs[1].error(e.what());
  }

  // Gate: the mirror replays client 0's edits single-threaded and every
  // ECO answer must match it bitwise.
  EditSamples samples;
  EngineTotals totals;
  sta::StaResult mirrored = reference;
  for (const EcoAnswer& a : logs[0].eco) {
    const double t0 = now_s();
    {
      Scope s("incremental.edit_apply");
      for (const service::EcoOp& op : a.ops) apply_op(mirror_editor, op);
    }
    const double t1 = now_s();
    {
      Scope s("incremental.retime");
      mirrored = mirror.run();
    }
    samples.add((t1 - t0) * 1e3, ms_since(t1), mirrored, mirror.stats());
    totals.add(mirrored);
    if (const std::string why = check_remote_run(a.answer, mirrored);
        !why.empty()) {
      logs[0].error("ECO answer vs mirror: " + why);
    }
  }
  out.set("bound_delay", mirrored.longest_path_delay * 1e9);

  for (std::size_t c = 0; c < 2; ++c) {
    try {
      clients[c]->eco_close(eco_ids[c]);
    } catch (const std::exception& e) {
      logs[c].error(e.what());
    }
  }
  clients.clear();
  server.stop();

  for (const ClientLog& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    if (!log.first_error.empty()) out.fail("service_mix: " + log.first_error);
  }
  std::cerr << "service_mix: " << requests << " requests in " << loop_s
            << " s (" << slack_ms.size() << " slack, " << endpoints_ms.size()
            << " endpoints, " << eco_ms.size() << " eco), slack p50 "
            << median(slack_ms) << " ms, eco p50 " << median(eco_ms)
            << " ms\n";

  if (cfg.trace) {
    totals.report(out);
    samples.report(out);
    util::WireWriter w;
    if (first_endpoints) first_endpoints->encode(w);
    out.set("service.health_p50_ms", median(health_ms));
    out.set("service.endpoints_p50_ms", median(endpoints_ms));
    out.set("service.slack_p50_ms", median(slack_ms));
    out.set("service.slack_p99_ms", percentile(slack_ms, 0.99));
    // The mirror re-times client 0's edits only.
    out.set("service.eco_overhead_ms",
            median(logs[0].eco_ms) - median(samples.retime_ms));
    out.set("service.bytes_per_endpoints_reply",
            static_cast<double>(w.data().size()));
    out.set("service.queue_peak", static_cast<double>(stats.queue_peak));
    out.set("service.degraded_admissions",
            static_cast<double>(stats.requests_degraded_admission));
    out.set("service.truncated", static_cast<double>(stats.requests_truncated));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"signoff", "eco_loop",
                                                 "service_mix"};
  return names;
}

netlist::GeneratorSpec design_spec(double scale) {
  netlist::GeneratorSpec spec = netlist::s38417_like();
  if (scale == 1.0) return spec;
  return netlist::scaled_spec(
      "s38417_scaled", spec.seed,
      std::max<std::size_t>(
          60, static_cast<std::size_t>(
                  static_cast<double>(spec.num_cells) * scale)),
      std::max<std::size_t>(
          6, static_cast<std::size_t>(static_cast<double>(spec.depth) *
                                      std::sqrt(scale))));
}

ServiceMixCounts service_counts(std::size_t client) {
  // The mix follows bench_service_load (60% slack, 15% endpoint queries, 23%
  // ECO, 2% full runs) without its full runs: slack and endpoint queries
  // keep its 4:1 ratio. ECO round trips stay at the 100 the p90 needs, below
  // its share, because each holds an executor for about a quarter second.
  // Clients 0 and 1 edit (one per executor); client 2 only reads and shares
  // executor 0 with client 0, so its reads queue behind client 0's ECO runs.
  if (client == 2) return {400, 100, 0};
  return {300, 75, 50};
}

Outcome run_workload(const Config& cfg) {
  SpanRecorder::instance().clear();
  SpanRecorder::instance().enable(cfg.trace);
  Outcome out;
  if (cfg.trace) {
    zero_layers(out);
    time_flow_layers(design_spec(cfg.scale), out);
  }
  if (cfg.workload == "signoff") {
    run_signoff(cfg, out);
  } else if (cfg.workload == "eco_loop") {
    run_eco_loop(cfg, out);
  } else if (cfg.workload == "service_mix") {
    run_service_mix(cfg, out);
  } else {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  out.set("peak_rss_mb", peak_rss_mib());
  if (cfg.trace) {
    const std::vector<Span> spans = SpanRecorder::instance().spans();
    const auto self = SpanRecorder::self_seconds(spans);
    for (const char* layer : {"netlist", "layout", "extract", "device", "sta",
                              "incremental", "service", "sim"}) {
      const auto it = self.find(layer);
      out.set(std::string("self.") + layer + "_s",
              it == self.end() ? 0.0 : it->second);
    }
    out.set("trace.spans", static_cast<double>(spans.size()));
    if (!cfg.spans_path.empty() &&
        !SpanRecorder::instance().write_json(cfg.spans_path)) {
      out.fail("cannot write spans to " + cfg.spans_path);
    }
  }
  return out;
}

}  // namespace perfbench
