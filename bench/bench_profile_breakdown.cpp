// Phase breakdown of the crosstalk STA run (Table-2-style): per-pass wall
// time, waveform calculations, gates evaluated/reused, and level counts for
// the one-step and iterative modes on the s38417-scale circuit, from the
// engine metrics layer. With --trace <path> the run also emits a Chrome
// trace (chrome://tracing / Perfetto) and the bench cross-checks it: the
// "sta.pass" span duration must agree with the metrics pass wall time, and
// the "sta.level" spans must cover the pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/report.hpp"
#include "table_common.hpp"
#include "util/json_lint.hpp"

using namespace xtalk;

namespace {

std::string trace_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --trace needs a file path\n";
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return "";
}

struct SpanInfo {
  double ts = 0.0;   // micros
  double dur = 0.0;  // micros
  std::int64_t tid = 0;
};

/// Pull every "X" span with the given name out of a parsed Chrome trace.
std::vector<SpanInfo> spans_named(const util::JsonValue& trace,
                                  const std::string& name) {
  std::vector<SpanInfo> out;
  const util::JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const util::JsonValue& e : events->items) {
    if (!e.is_object()) continue;
    const util::JsonValue* n = e.find("name");
    const util::JsonValue* ph = e.find("ph");
    if (n == nullptr || ph == nullptr || n->str != name || ph->str != "X") {
      continue;
    }
    SpanInfo s;
    if (const util::JsonValue* ts = e.find("ts")) s.ts = ts->number;
    if (const util::JsonValue* dur = e.find("dur")) s.dur = dur->number;
    if (const util::JsonValue* tid = e.find("tid")) {
      s.tid = static_cast<std::int64_t>(tid->number);
    }
    out.push_back(s);
  }
  return out;
}

/// Cross-check the emitted trace against the metrics pass breakdown.
/// Returns false (and explains) when a pass span disagrees with the
/// metrics wall time by more than 5%.
bool check_trace(const std::string& path, const sta::MetricsSnapshot& m,
                 bench::JsonObject& json_root) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  util::JsonValue trace;
  std::string err;
  if (!in || !util::parse_json(buf.str(), &trace, &err)) {
    std::cout << "trace check: FAILED to parse " << path << ": " << err
              << "\n";
    return false;
  }
  const std::vector<SpanInfo> passes = spans_named(trace, "sta.pass");
  const std::vector<SpanInfo> levels = spans_named(trace, "sta.level");
  std::cout << "trace check: " << path << " parses; " << passes.size()
            << " pass span(s), " << levels.size() << " level span(s)\n";
  if (passes.size() != m.passes.size()) {
    std::cout << "trace check: FAILED, " << passes.size()
              << " pass spans vs " << m.passes.size() << " metric passes\n";
    return false;
  }
  bool ok = true;
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const double span_s = passes[i].dur * 1e-6;
    const double wall_s = m.passes[i].wall_seconds;
    const double rel =
        wall_s > 0.0 ? std::abs(span_s - wall_s) / wall_s : 0.0;
    worst_rel = std::max(worst_rel, rel);
    double covered = 0.0;
    for (const SpanInfo& l : levels) {
      if (l.ts >= passes[i].ts - 0.5 &&
          l.ts + l.dur <= passes[i].ts + passes[i].dur + 0.5) {
        covered += l.dur;
      }
    }
    const double coverage =
        passes[i].dur > 0.0 ? covered / passes[i].dur : 0.0;
    std::cout << "  pass " << i << ": span " << std::fixed
              << std::setprecision(4) << span_s << " s vs metrics " << wall_s
              << " s (delta " << std::setprecision(2) << rel * 100.0
              << "%), level coverage " << coverage * 100.0 << "%\n";
    if (rel > 0.05) ok = false;
  }
  json_root.set("trace_pass_spans", passes.size())
      .set("trace_worst_pass_delta", worst_rel);
  std::cout << "trace check: " << (ok ? "OK" : "FAILED")
            << " (pass spans within 5% of metrics wall: worst "
            << std::setprecision(2) << worst_rel * 100.0 << "%)\n";
  return ok;
}

void print_breakdown(const char* label, const sta::StaResult& r) {
  const sta::MetricsSnapshot& m = r.metrics;
  std::cout << "--- " << label << ": phase breakdown ---\n";
  std::cout << std::left << std::setw(7) << "pass" << std::right
            << std::setw(11) << "wall[s]" << std::setw(10) << "levels"
            << std::setw(11) << "gates" << std::setw(11) << "reused"
            << std::setw(11) << "calcs" << "\n";
  for (const sta::PassMetrics& p : m.passes) {
    std::cout << std::left << std::setw(7) << p.pass_index << std::right
              << std::fixed << std::setprecision(4) << std::setw(11)
              << p.wall_seconds << std::setw(10) << p.level_gates.size()
              << std::setw(11) << p.gates_evaluated << std::setw(11)
              << p.gates_reused << std::setw(11) << p.waveform_calcs << "\n";
  }
  std::cout << sta::format_result_summary(r) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string trace_path = trace_path_from_args(argc, argv);

  netlist::GeneratorSpec spec = netlist::s38417_like();
  double scale = 1.0;
  if (const char* env = std::getenv("XTALK_BENCH_SCALE")) {
    scale = std::strtod(env, nullptr);
  }
  int num_threads = 0;
  if (const char* env = std::getenv("XTALK_THREADS")) {
    num_threads = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  if (scale != 1.0) {
    spec.num_cells = std::max<std::size_t>(
        64,
        static_cast<std::size_t>(static_cast<double>(spec.num_cells) * scale));
    spec.num_ffs = std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(spec.num_ffs) * scale));
    spec.num_pos = std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(spec.num_pos) * scale));
  }

  std::cout << "=== Profile breakdown: " << spec.name << " ("
            << spec.num_cells << " cells, seed " << spec.seed << ") ===\n\n";
  const core::Design design = core::Design::generate(spec);

  bench::JsonReport json;
  json.root()
      .set("benchmark", "profile_breakdown")
      .set("circuit", spec.name)
      .set("seed", spec.seed)
      .set("scale", scale);

  bool trace_ok = true;
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kOneStep, sta::AnalysisMode::kIterative}) {
    sta::StaOptions opt;
    opt.mode = mode;
    opt.num_threads = num_threads;
    opt.collect_metrics = true;
    const bool traced =
        mode == sta::AnalysisMode::kIterative && !trace_path.empty();
    if (traced) opt.trace_path = trace_path;
    const sta::StaResult r = design.run(opt);
    print_breakdown(sta::mode_name(mode), r);
    bench::JsonObject& row = json.add_row("modes");
    row.set("mode", sta::mode_name(mode));
    bench::fill_result_row(row, r);
    if (traced) trace_ok = check_trace(trace_path, r.metrics, json.root());
  }
  json.write_file(json_path);
  std::cout << std::endl;
  return trace_ok ? 0 : 1;
}
