#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      // The longest-path bound is a deterministic result, not a timing, so
      // its unit is not a time unit: it reads identically on every run.
      {"bound_delay", "ns_bound"},
      {"full_run_s", "s"},
      {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},
      {"ops_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // Physical flow, timed around the calls core::Design::build makes.
      {"netlist.generate_s", "s"},
      {"netlist.clock_tree_s", "s"},
      {"netlist.levelize_s", "s"},
      {"layout.place_s", "s"},
      {"layout.route_s", "s"},
      {"extract.extract_s", "s"},
      {"device.tables_s", "s"},
      {"netlist.gates", "count"},
      {"netlist.levels", "count"},
      {"extract.coupling_pairs", "count"},
      // STA engine.
      {"sta.passes", "count"},
      {"sta.pass1_s", "s"},
      {"sta.later_passes_s", "s"},
      {"sta.waveform_calcs", "count"},
      {"sta.gates_evaluated", "count"},
      {"sta.coupling_classifications", "count"},
      // Waveform kernel.
      {"delaycalc.be_steps", "count"},
      {"delaycalc.newton_iters", "count"},
      {"delaycalc.fallback_be_steps", "count"},
      {"delaycalc.busy_ns_per_be_step", "ns"},
      {"delaycalc.degraded_arcs", "count"},
      // Worker pool.
      {"pool.busy_s", "s"},
      {"pool.wait_s", "s"},
      {"pool.wait_share", "ratio"},
      {"pool.utilization", "ratio"},
      // Incremental re-timing.
      {"incremental.edit_apply_ms", "ms"},
      {"incremental.retime_ms", "ms"},
      {"incremental.engine_ms", "ms"},
      {"incremental.overhead_ms", "ms"},
      {"incremental.dirty_frac", "ratio"},
      {"incremental.calcs_per_edit", "count"},
      {"incremental.reuse_ratio", "ratio"},
      // Analysis service.
      {"service.health_p50_ms", "ms"},
      {"service.endpoints_p50_ms", "ms"},
      {"service.slack_p50_ms", "ms"},
      {"service.slack_p99_ms", "ms"},
      {"service.eco_overhead_ms", "ms"},
      {"service.bytes_per_endpoints_reply", "bytes"},
      {"service.queue_peak", "count"},
      {"service.degraded_admissions", "count"},
      {"service.truncated", "count"},
      // Self time per layer, from the spans of the traced run.
      {"self.netlist_s", "s"},
      {"self.layout_s", "s"},
      {"self.extract_s", "s"},
      {"self.device_s", "s"},
      {"self.sta_s", "s"},
      {"self.incremental_s", "s"},
      {"self.service_s", "s"},
      {"self.sim_s", "s"},
      {"trace.spans", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto ok = [](char c, bool first) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    return alnum || (!first && (c == '_' || c == '.' || c == '-'));
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!ok(name[i], i == 0)) return false;
  }
  return true;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned long long Rng::next() {
  unsigned long long z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double unit =
      static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  return lo + (hi - lo) * unit;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_line(const Outcome& out,
                        const std::vector<MetricSpec>& specs) {
  std::vector<std::string> errors = out.errors;
  std::ostringstream metrics;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) {
      errors.push_back(std::string("metric not measured: ") + spec.name);
      continue;
    }
    if (!std::isfinite(it->second)) {
      errors.push_back(std::string("metric not finite: ") + spec.name);
      continue;
    }
    metrics << (first ? "" : ", ") << json_string(spec.name)
            << ": {\"value\": " << json_number(it->second)
            << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  }
  const bool correct = errors.empty() && out.failed == 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics.str()
       << "}, \"phase_s\": " << json_number(out.phase_s) << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    line << (i ? ", " : "") << json_string(errors[i]);
  }
  line << "]}";
  return line.str();
}

}  // namespace perfbench
