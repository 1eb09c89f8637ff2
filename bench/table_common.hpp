// Shared driver for the paper's Tables 1-3: run the five analysis modes on
// one circuit, print the table in the paper's layout, and validate the
// longest path against the transistor-level simulator with worst-case
// aligned aggressors (paper §6).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"

namespace xtalk::bench {

struct TableOptions {
  /// Scale factor on the circuit size (1.0 = the paper's cell count). The
  /// XTALK_BENCH_SCALE environment variable overrides it (useful for quick
  /// smoke runs: XTALK_BENCH_SCALE=0.1); see size_from_env.
  double scale = 1.0;
  bool run_validation = true;
  /// When non-empty, write a machine-readable JSON report here (the
  /// --json <path> flag; see json_path_from_args).
  std::string json_path;
};

// ---------------------------------------------------------------------------
// Bench sizing (XTALK_BENCH_SCALE, XTALK_THREADS)
// ---------------------------------------------------------------------------

/// Circuit scale and engine thread count of one bench run.
struct BenchSize {
  double scale = 1.0;   ///< factor on the spec's cell, FF and PO counts
  int num_threads = 0;  ///< StaOptions::num_threads (0 = hardware threads)
};

/// Parse the values of XTALK_BENCH_SCALE and XTALK_THREADS; nullptr means
/// unset and gives `default_scale` and 0 threads. Throws
/// std::invalid_argument naming the variable on a scale that is not a
/// finite number > 0, or a thread count that is not an integer >= 0.
BenchSize parse_bench_size(const char* scale_text, const char* threads_text,
                           double default_scale);

/// `spec` with num_cells, num_ffs and num_pos multiplied by `scale`,
/// truncated and floored at 64, 4 and 4; unchanged at scale 1.0. Throws
/// std::invalid_argument when a scaled count does not fit a size_t.
netlist::GeneratorSpec scale_spec(netlist::GeneratorSpec spec, double scale);

/// Size `spec` in place from the environment (parse_bench_size, then
/// scale_spec). On a bad value prints the message and exits with code 2,
/// like json_path_from_args.
BenchSize size_from_env(netlist::GeneratorSpec& spec,
                        double default_scale = 1.0);

/// Runs the full table experiment and prints it to stdout. Returns the
/// iterative-mode longest path delay [s] (for cross-checks).
double run_table_benchmark(const char* table_name,
                           const netlist::GeneratorSpec& spec,
                           const TableOptions& options = {});

// ---------------------------------------------------------------------------
// Machine-readable bench output (--json <path>)
// ---------------------------------------------------------------------------

/// A flat JSON object under construction (values are serialized on set).
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double value);
  JsonObject& set(const std::string& key, long long value);
  JsonObject& set(const std::string& key, unsigned long long value);
  JsonObject& set(const std::string& key, long value);
  JsonObject& set(const std::string& key, unsigned long value);
  JsonObject& set(const std::string& key, int value);
  JsonObject& set(const std::string& key, unsigned value);
  JsonObject& set(const std::string& key, bool value);
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);

  std::string to_string() const;

  bool has(const std::string& key) const;
  /// Field names in insertion order.
  std::vector<std::string> keys() const;

 private:
  JsonObject& set_raw(const std::string& key, std::string serialized);

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Minimal writer for bench JSON reports: one root object of scalar fields
/// plus named arrays of flat objects. No external dependencies; field and
/// row order is insertion order, so reports diff cleanly between runs.
class JsonReport {
 public:
  JsonObject& root() { return root_; }
  /// Append a row to the named array (created on first use) and return it
  /// for field fills.
  JsonObject& add_row(const std::string& array_name);

  std::string to_string() const;
  /// Serialize to `path`; no-op (returns true) when path is empty. On I/O
  /// failure prints to stderr and returns false.
  bool write_file(const std::string& path) const;

 private:
  JsonObject root_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

/// Extract the `--json <path>` flag every bench binary supports; empty
/// string when absent. Exits with a message on a missing path argument.
std::string json_path_from_args(int argc, char** argv);

/// Scenario annotation of a result row (MCMM benches). Defaults describe a
/// single-scenario run, so every bench emits the same uniform schema.
struct ScenarioRowInfo {
  std::string scenario = "nominal";     ///< scenario this row belongs to
  std::size_t scenarios_total = 1;      ///< scenarios in the invocation
  std::string worst_scenario = "nominal";  ///< owner of the worst slack
};

/// Append the per-mode fields of a result to a JSON row (shared shape
/// across all benches: delay_ns, runtime_s, passes, waveform counters,
/// engine metrics, scenario annotation). Asserts the row schema on exit —
/// see assert_result_row_schema.
void fill_result_row(JsonObject& row, const sta::StaResult& result,
                     const ScenarioRowInfo& info = {});

/// The keys every result row must carry. Downstream dashboards key on
/// these; renaming or dropping one is a breaking schema change.
const std::vector<std::string>& result_row_required_keys();

/// Throws std::logic_error naming every missing required key. Called by
/// fill_result_row so a bench binary cannot silently emit a partial row.
void assert_result_row_schema(const JsonObject& row);

}  // namespace xtalk::bench
