// Fault-tolerance acceptance bench: inject deterministic solver faults into
// several gates of an s38417-scale run and verify the degrade-mode contract:
//
//   1. the run completes (no throw) under kDegrade;
//   2. exactly one injected-fault diagnostic per faulted gate, carrying the
//      gate and output-net context;
//   3. endpoints outside the faults' influence closure (transitive fanout
//      union coupling neighbours) are bitwise identical to the fault-free
//      run;
//   4. every endpoint is conservative — never earlier than fault-free;
//   5. kStrict throws util::DiagError on the first injected fault, with the
//      diagnostic attached.
//
// Exits nonzero on any violated check. Supports --json <path> and the
// XTALK_BENCH_SCALE / XTALK_THREADS environment overrides of the other
// benches.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <unordered_set>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "table_common.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace xtalk;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  ok: " << what << "\n";
  } else {
    std::cout << "  FAIL: " << what << "\n";
    ++g_failures;
  }
}

/// Output nets that can differ once the given gates are faulted: seed with
/// the faulted gates' outputs, then close under (a) fanout — a gate reading
/// an affected net rewrites its own output — and (b) coupling adjacency
/// toward *strictly higher* driver levels. The level restriction is exact
/// for single-pass modes: a victim at the same or a lower level sees the
/// affected neighbour as "not calculated" in its level-start snapshot and
/// applies the fixed conservative coupling assumption, which is independent
/// of the neighbour's timing.
std::unordered_set<netlist::NetId> influence_closure(
    const core::Design& design, const std::vector<netlist::GateId>& gates) {
  const netlist::Netlist& nl = design.netlist();
  const netlist::LevelizedDag& dag = design.dag();
  const auto driver_level = [&](netlist::NetId n) -> long {
    const netlist::PinRef& d = nl.net(n).driver;
    if (d.gate == netlist::kNoGate) return -1;  // primary input: never changes
    return static_cast<long>(dag.gate_level[d.gate]);
  };
  std::unordered_set<netlist::NetId> affected;
  std::vector<netlist::NetId> frontier;
  const auto visit = [&](netlist::NetId n) {
    if (driver_level(n) < 0) return;
    if (affected.insert(n).second) frontier.push_back(n);
  };
  for (const netlist::GateId g : gates) {
    const netlist::Gate& gate = nl.gate(g);
    visit(gate.pin_nets[gate.cell->output_pin()]);
  }
  while (!frontier.empty()) {
    const netlist::NetId n = frontier.back();
    frontier.pop_back();
    for (const netlist::PinRef& sink : nl.net(n).sinks) {
      const netlist::Gate& gate = nl.gate(sink.gate);
      // A flip-flop's Q event launches from the clock; its D-input arrival
      // is an endpoint, not a propagation — the walk stops there.
      if (gate.cell->is_sequential()) continue;
      visit(gate.pin_nets[gate.cell->output_pin()]);
    }
    const long level = driver_level(n);
    for (const extract::NeighborCap& nb :
         design.parasitics().net(n).couplings) {
      if (driver_level(nb.neighbor) > level) visit(nb.neighbor);
    }
  }
  return affected;
}

}  // namespace

int main(int argc, char** argv) {
  netlist::GeneratorSpec spec = netlist::s38417_like();
  const auto [scale, num_threads] = bench::size_from_env(spec);

  std::cout << "=== fault degrade: " << spec.name << " (" << spec.num_cells
            << " cells, seed " << spec.seed << ") ===\n";
  const core::Design design = core::Design::generate(spec);
  const netlist::Netlist& nl = design.netlist();

  // Five distinct combinational gates, chosen deep in the DAG so their
  // influence closure stays well short of the full endpoint set and the
  // bitwise-identical check has something outside it to compare.
  std::vector<netlist::GateId> deep;
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    if (!nl.gate(g).cell->is_sequential()) deep.push_back(g);
  }
  const netlist::LevelizedDag& dag = design.dag();
  std::sort(deep.begin(), deep.end(),
            [&](netlist::GateId a, netlist::GateId b) {
              return dag.gate_level[a] > dag.gate_level[b];
            });
  constexpr std::size_t kFaultedGates = 5;
  std::vector<netlist::GateId> victims(
      deep.begin(), deep.begin() + std::min(kFaultedGates, deep.size()));
  std::cout << "injecting sticky Newton divergence into " << victims.size()
            << " gates:";
  for (const netlist::GateId g : victims) std::cout << " " << g;
  std::cout << "\n\n";

  sta::StaOptions opt;
  opt.mode = sta::AnalysisMode::kOneStep;
  opt.num_threads = num_threads;

  const sta::StaResult clean = design.run(opt);
  std::cout << "fault-free:  " << std::fixed << std::setprecision(3)
            << clean.longest_path_delay * 1e9 << " ns, "
            << clean.diagnostics.entries.size() << " diagnostics\n";

  util::FaultInjector injector;
  for (const netlist::GateId g : victims) {
    util::FaultSpec fs;
    fs.kind = util::FaultKind::kNewtonDiverge;
    fs.gate = static_cast<std::int64_t>(g);
    injector.add(fs);
  }
  opt.fault_injector = &injector;
  opt.fault_policy = util::FaultPolicy::kDegrade;
  const sta::StaResult faulted = design.run(opt);
  std::cout << "degraded:    " << faulted.longest_path_delay * 1e9 << " ns, "
            << faulted.diagnostics.entries.size() << " diagnostics ("
            << faulted.diagnostics.count(util::Severity::kError) << " error, "
            << faulted.diagnostics.count(util::Severity::kWarning)
            << " warning)\n\n";

  check(true, "degrade-mode run completed");

  // One injected-fault diagnostic per gate, with gate and net context.
  bench::JsonReport json;
  for (const netlist::GateId g : victims) {
    const netlist::Gate& gate = nl.gate(g);
    const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
    std::size_t hits = 0;
    bool ctx_ok = true;
    for (const util::Diagnostic& d : faulted.diagnostics.entries) {
      if (d.code != util::DiagCode::kInjectedFault) continue;
      if (d.ctx.gate != static_cast<std::int64_t>(g)) continue;
      ++hits;
      ctx_ok = ctx_ok && d.ctx.net == static_cast<std::int64_t>(out) &&
               d.ctx.level >= 0;
    }
    check(hits == 1, "gate " + std::to_string(g) +
                         ": exactly one injected-fault diagnostic (got " +
                         std::to_string(hits) + ")");
    check(ctx_ok, "gate " + std::to_string(g) + ": diagnostic carries gate/" +
                      "net/level context");
    json.add_row("injected")
        .set("gate", g)
        .set("net", out)
        .set("diagnostics", hits);
  }

  // Unaffected endpoints bitwise identical; every endpoint conservative.
  const std::unordered_set<netlist::NetId> affected =
      influence_closure(design, victims);
  std::size_t compared = 0, outside = 0, mismatched = 0, early = 0;
  for (std::size_t i = 0; i < clean.endpoints.size(); ++i) {
    const sta::EndpointArrival& a = clean.endpoints[i];
    const sta::EndpointArrival& b = faulted.endpoints[i];
    ++compared;
    if (b.arrival < a.arrival) ++early;
    if (affected.count(a.net)) continue;
    ++outside;
    if (b.arrival != a.arrival) ++mismatched;
  }
  check(clean.endpoints.size() == faulted.endpoints.size(),
        "same endpoint list in both runs");
  check(outside > 0, "influence closure leaves endpoints to compare (" +
                         std::to_string(outside) + " of " +
                         std::to_string(compared) + ")");
  check(mismatched == 0,
        "unaffected endpoints bitwise identical (" +
            std::to_string(mismatched) + " of " + std::to_string(outside) +
            " differ)");
  check(early == 0, "no endpoint earlier than fault-free (" +
                        std::to_string(early) + " of " +
                        std::to_string(compared) + " earlier)");

  // Strict mode: first injected fault throws, diagnostic attached.
  opt.fault_policy = util::FaultPolicy::kStrict;
  bool threw = false;
  bool diag_attached = false;
  try {
    (void)design.run(opt);
  } catch (const util::DiagError& err) {
    threw = true;
    const util::Diagnostic& d = err.diagnostic();
    diag_attached =
        d.severity == util::Severity::kError &&
        std::find(victims.begin(), victims.end(),
                  static_cast<netlist::GateId>(d.ctx.gate)) != victims.end();
    std::cout << "\nstrict mode threw: " << err.what() << "\n";
  }
  check(threw, "strict mode throws util::DiagError on the first fault");
  check(diag_attached, "thrown error carries the faulted gate's diagnostic");

  json.root()
      .set("benchmark", "fault_degrade")
      .set("circuit", spec.name)
      .set("seed", spec.seed)
      .set("scale", scale)
      .set("injected_gates", victims.size())
      .set("clean_delay_ns", clean.longest_path_delay * 1e9)
      .set("degraded_delay_ns", faulted.longest_path_delay * 1e9)
      .set("endpoints", compared)
      .set("endpoints_outside_closure", outside)
      .set("endpoints_mismatched", mismatched)
      .set("endpoints_earlier", early)
      .set("strict_threw", threw)
      .set("failures", g_failures);
  {
    bench::JsonObject& row = json.add_row("runs");
    row.set("label", "clean");
    bench::fill_result_row(row, clean);
  }
  {
    bench::JsonObject& row = json.add_row("runs");
    row.set("label", "degraded");
    bench::fill_result_row(row, faulted);
  }
  json.write_file(bench::json_path_from_args(argc, argv));

  std::cout << "\n" << (g_failures == 0 ? "PASS" : "FAIL") << " ("
            << g_failures << " failed checks)\n";
  return g_failures == 0 ? 0 : 1;
}
