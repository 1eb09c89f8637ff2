// Metric catalog, sample statistics and the result line of the benchmark.
//
// Every workload reports the same metric names: BENCHMARK.json lists them
// once, and the benchmark contract has each run print every end-to-end metric
// (untraced run) or every per-layer metric (traced run). What a name means
// on each workload is documented in perfbench/NOTES.md.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a user of the analyzer sees; measured with tracing off.
const std::vector<MetricSpec>& end_to_end_specs();
/// Metrics of single layers; measured by the traced run.
const std::vector<MetricSpec>& per_layer_specs();
/// True when `name` matches [A-Za-z0-9][A-Za-z0-9_.-]* and is at most 64
/// characters long.
bool valid_metric_name(const std::string& name);

/// Nearest-rank percentile (p in (0, 1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> samples, double p);
/// Middle sample, or the mean of the two middle samples when the count is
/// even; 0 when empty.
double median(std::vector<double> samples);
/// Samples strictly above the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);
/// The percentile rule: a tail percentile is only reported with at least
/// ten samples beyond it.
bool tail_supported(std::size_t n, double p);

/// Peak resident set of this process [MiB].
double peak_rss_mib();
/// Seconds on a monotonic clock.
double now_s();

/// Deterministic generator for the seeded inputs (splitmix64; no standard
/// library distribution, so sequences do not depend on the library).
class Rng {
 public:
  explicit Rng(unsigned long long seed) : state_(seed) {}
  unsigned long long next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  unsigned long long state_;
};

/// Collected outcome of one workload run.
struct Outcome {
  std::map<std::string, double> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness-gate failures; empty means every gate passed.
  std::vector<std::string> errors;
  /// Wall time of the timed phase, for the tracing-overhead comparison.
  double phase_s = 0.0;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& why) { errors.push_back(why); }
  bool correct() const { return errors.empty() && failed == 0; }
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics",
/// "phase_s", "errors"}. `specs` selects and orders the metrics; a metric
/// the run did not set is an error recorded in the line (correct = false).
std::string result_line(const Outcome& out,
                        const std::vector<MetricSpec>& specs);

}  // namespace perfbench
