#include "table_common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/validation.hpp"
#include "sta/path.hpp"
#include "sta/report.hpp"

namespace xtalk::bench {

namespace {

std::string json_number(double v) {
  if (v != v || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    return "null";  // JSON has no inf/nan
  }
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

JsonObject& JsonObject::set_raw(const std::string& key,
                                std::string serialized) {
  fields_.emplace_back(key, std::move(serialized));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, double value) {
  return set_raw(key, json_number(value));
}
JsonObject& JsonObject::set(const std::string& key, long long value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key,
                            unsigned long long value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key, long value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key, unsigned long value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key, int value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key, unsigned value) {
  return set_raw(key, std::to_string(value));
}
JsonObject& JsonObject::set(const std::string& key, bool value) {
  return set_raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  return set_raw(key, json_string(value));
}
JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set_raw(key, json_string(value));
}

bool JsonObject::has(const std::string& key) const {
  for (const auto& [name, value] : fields_) {
    if (name == key) return true;
  }
  return false;
}

std::vector<std::string> JsonObject::keys() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& [name, value] : fields_) out.push_back(name);
  return out;
}

std::string JsonObject::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  out += '}';
  return out;
}

JsonObject& JsonReport::add_row(const std::string& array_name) {
  for (auto& [name, rows] : arrays_) {
    if (name == array_name) {
      rows.emplace_back();
      return rows.back();
    }
  }
  arrays_.emplace_back(array_name, std::vector<JsonObject>(1));
  return arrays_.back().second.back();
}

std::string JsonReport::to_string() const {
  std::string body = root_.to_string();
  body.pop_back();  // reopen the root object to splice the arrays in
  for (const auto& [name, rows] : arrays_) {
    if (body.size() > 1) body += ", ";
    body += json_string(name) + ": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) body += ", ";
      body += rows[i].to_string();
    }
    body += ']';
  }
  body += "}\n";
  return body;
}

bool JsonReport::write_file(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write JSON report to " << path << "\n";
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

BenchSize parse_bench_size(const char* scale_text, const char* threads_text,
                           double default_scale) {
  BenchSize size{default_scale, 0};
  if (scale_text != nullptr) {
    char* end = nullptr;
    size.scale = std::strtod(scale_text, &end);
    if (end == scale_text || *end != '\0' || !std::isfinite(size.scale) ||
        size.scale <= 0.0) {
      throw std::invalid_argument(
          std::string("XTALK_BENCH_SCALE must be a finite number > 0, got '") +
          scale_text + "'");
    }
  }
  if (threads_text != nullptr) {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(threads_text, &end, 10);
    if (end == threads_text || *end != '\0' || errno == ERANGE || n < 0 ||
        n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          std::string("XTALK_THREADS must be an integer >= 0, got '") +
          threads_text + "'");
    }
    size.num_threads = static_cast<int>(n);
  }
  return size;
}

netlist::GeneratorSpec scale_spec(netlist::GeneratorSpec spec, double scale) {
  if (scale == 1.0) return spec;
  const auto scaled = [scale](std::size_t count, std::size_t floor) {
    const double x = static_cast<double>(count) * scale;
    // 2^64: the first double past size_t, so the cast below is defined.
    if (!(x < 18446744073709551616.0)) {
      throw std::invalid_argument(
          "XTALK_BENCH_SCALE is too large: the circuit size overflows");
    }
    return std::max(floor, static_cast<std::size_t>(x));
  };
  spec.num_cells = scaled(spec.num_cells, 64);
  spec.num_ffs = scaled(spec.num_ffs, 4);
  spec.num_pos = scaled(spec.num_pos, 4);
  return spec;
}

BenchSize size_from_env(netlist::GeneratorSpec& spec, double default_scale) {
  try {
    const BenchSize size =
        parse_bench_size(std::getenv("XTALK_BENCH_SCALE"),
                         std::getenv("XTALK_THREADS"), default_scale);
    spec = scale_spec(std::move(spec), size.scale);
    return size;
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --json needs a file path\n";
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return "";
}

const std::vector<std::string>& result_row_required_keys() {
  static const std::vector<std::string> kKeys = {
      "delay_ns",
      "runtime_s",
      "passes",
      "waveform_calculations",
      "gates_reused",
      "threads_used",
      "missing_sink_wires",
      "diag_errors",
      "diag_warnings",
      "diag_dropped",
      "budget_exhausted",
      "budget_reason",
      "completed_passes",
      "completed_levels",
      "total_levels",
      "untimed_endpoints",
      "governor_checks",
      "metrics_enabled",
      "be_steps",
      "newton_iterations",
      "fallback_be_steps",
      "coupling_classifications",
      "coupling_reclassifications",
      "pool_utilization",
      "pool_busy_ns",
      "pool_wait_ns",
      "scenario",
      "scenarios_total",
      "worst_scenario",
  };
  return kKeys;
}

void assert_result_row_schema(const JsonObject& row) {
  std::string missing;
  for (const std::string& key : result_row_required_keys()) {
    if (!row.has(key)) {
      if (!missing.empty()) missing += ", ";
      missing += key;
    }
  }
  if (!missing.empty()) {
    throw std::logic_error("bench result row missing required key(s): " +
                           missing);
  }
}

void fill_result_row(JsonObject& row, const sta::StaResult& result,
                     const ScenarioRowInfo& info) {
  const sta::MetricsSnapshot& m = result.metrics;
  row.set("delay_ns", result.longest_path_delay * 1e9)
      .set("runtime_s", result.runtime_seconds)
      .set("passes", result.passes)
      .set("waveform_calculations", result.waveform_calculations)
      .set("gates_reused", result.gates_reused)
      .set("threads_used", result.threads_used)
      .set("missing_sink_wires", result.missing_sink_wires)
      .set("diag_errors", result.diagnostics.count(util::Severity::kError))
      .set("diag_warnings", result.diagnostics.count(util::Severity::kWarning))
      .set("diag_dropped", result.diagnostics.dropped)
      .set("budget_exhausted", result.budget.exhausted)
      .set("budget_reason", util::budget_reason_name(result.budget.reason))
      .set("completed_passes", result.budget.completed_passes)
      .set("completed_levels", result.budget.completed_levels)
      .set("total_levels", result.budget.total_levels)
      .set("untimed_endpoints", result.budget.untimed_endpoints.size())
      .set("governor_checks", result.budget.governor_checks)
      .set("metrics_enabled", m.enabled)
      .set("be_steps", m.counter(sta::EngineCounter::kBeSteps))
      .set("newton_iterations",
           m.counter(sta::EngineCounter::kNewtonIterations))
      .set("fallback_be_steps",
           m.counter(sta::EngineCounter::kFallbackBeSteps))
      .set("coupling_classifications",
           m.counter(sta::EngineCounter::kCouplingClassifications))
      .set("coupling_reclassifications",
           m.counter(sta::EngineCounter::kCouplingReclassifications))
      .set("pool_utilization", m.pool_utilization)
      .set("pool_busy_ns", m.pool_busy_ns)
      .set("pool_wait_ns", m.pool_wait_ns)
      .set("scenario", info.scenario)
      .set("scenarios_total", info.scenarios_total)
      .set("worst_scenario", info.worst_scenario);
  assert_result_row_schema(row);
}

double run_table_benchmark(const char* table_name,
                           const netlist::GeneratorSpec& base_spec,
                           const TableOptions& options) {
  netlist::GeneratorSpec spec = base_spec;
  const auto [scale, num_threads] = size_from_env(spec, options.scale);

  std::cout << "=== " << table_name << ": " << spec.name << " (" << spec.num_cells
            << " cells, seed " << spec.seed << ") ===\n";
  const core::Design design = core::Design::generate(spec);
  const core::DesignStats st = design.stats();
  std::cout << "cells " << st.cells << " (" << st.flip_flops << " FF), nets "
            << st.nets << ", transistors " << st.transistors << "\n"
            << "wire " << std::fixed << std::setprecision(2)
            << st.total_wire_length * 1e3 << " mm, coupling pairs "
            << st.coupling_pairs << ", Cc total " << st.total_coupling_cap * 1e12
            << " pF, Cg total " << st.total_wire_cap * 1e12 << " pF\n\n";

  JsonReport json;
  json.root()
      .set("benchmark", table_name)
      .set("circuit", spec.name)
      .set("seed", spec.seed)
      .set("scale", scale)
      .set("cells", st.cells)
      .set("flip_flops", st.flip_flops)
      .set("nets", st.nets)
      .set("transistors", st.transistors)
      .set("coupling_pairs", st.coupling_pairs)
      .set("wire_mm", st.total_wire_length * 1e3)
      .set("coupling_cap_pf", st.total_coupling_cap * 1e12)
      .set("wire_cap_pf", st.total_wire_cap * 1e12);

  std::vector<sta::TableRow> rows;
  sta::StaResult worst_result;
  sta::StaResult iter_result;
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kBestCase, sta::AnalysisMode::kStaticDoubled,
        sta::AnalysisMode::kWorstCase, sta::AnalysisMode::kOneStep,
        sta::AnalysisMode::kIterative}) {
    sta::StaOptions opt;
    opt.mode = mode;
    opt.num_threads = num_threads;
    sta::StaResult r = design.run(opt);
    rows.push_back(sta::row_from_result(mode, r));
    JsonObject& row = json.add_row("modes");
    row.set("mode", sta::mode_name(mode));
    fill_result_row(row, r);
    if (mode == sta::AnalysisMode::kWorstCase) worst_result = std::move(r);
    else if (mode == sta::AnalysisMode::kIterative) iter_result = std::move(r);
  }
  std::cout << sta::format_mode_table("longest path of the synchronous circuit",
                                      rows);
  std::cout << "\niterative run: "
            << sta::format_result_summary(iter_result);

  const double best = rows[0].delay_seconds;
  const double worst = rows[2].delay_seconds;
  const double iter = rows[4].delay_seconds;
  std::cout << "\ncoupling impact (worst - best): " << std::setprecision(3)
            << (worst - best) * 1e9 << " ns\n"
            << "bound tightening (worst - iterative): "
            << (worst - iter) * 1e9 << " ns\n";
  json.root()
      .set("coupling_impact_ns", (worst - best) * 1e9)
      .set("bound_tightening_ns", (worst - iter) * 1e9);

  if (options.run_validation) {
    std::cout << "\nsimulation of the longest path (lumped extracted RC, "
                 "iteratively aligned PWL aggressors):\n";
    core::ValidationOptions vopt;
    vopt.policy = core::AggressorPolicy::kAll;
    vopt.aggressor_slew = 0.05e-9;  // near-instantaneous, like the model
    const core::ValidationResult vw =
        core::validate_critical_path(design, worst_result, vopt);
    std::cout << "  worst-case path:  sim " << vw.sim_delay * 1e9
              << " ns vs STA " << vw.sta_delay * 1e9 << " ns  ("
              << vw.path_gates << " gates, " << vw.devices << " devices, "
              << vw.aggressors << " aggressors)\n";

    core::ValidationOptions vi = vopt;
    vi.policy = core::AggressorPolicy::kFromTiming;
    const core::ValidationResult vr =
        core::validate_critical_path(design, iter_result, vi);
    std::cout << "  iterative path:   sim " << vr.sim_delay * 1e9
              << " ns vs STA " << vr.sta_delay * 1e9 << " ns  ("
              << vr.aggressors << " active aggressors)\n";
    json.add_row("validation")
        .set("path", "worst_case")
        .set("sim_ns", vw.sim_delay * 1e9)
        .set("sta_ns", vw.sta_delay * 1e9)
        .set("aggressors", vw.aggressors);
    json.add_row("validation")
        .set("path", "iterative")
        .set("sim_ns", vr.sim_delay * 1e9)
        .set("sta_ns", vr.sta_delay * 1e9)
        .set("aggressors", vr.aggressors);
  }
  json.write_file(options.json_path);
  std::cout << std::endl;
  return iter;
}

}  // namespace xtalk::bench
