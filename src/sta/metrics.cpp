#include "sta/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/thread_pool.hpp"

namespace xtalk::sta {

namespace {

std::size_t bucket_index(std::uint64_t value) {
  std::size_t b = 0;
  while (value != 0 && b + 1 < HistogramSummary::kBuckets) {
    value >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

const char* engine_counter_name(EngineCounter c) {
  switch (c) {
    case EngineCounter::kBeSteps: return "be_steps";
    case EngineCounter::kBeStepsShared: return "be_steps_shared";
    case EngineCounter::kNewtonIterations: return "newton_iterations";
    case EngineCounter::kFallbackBeSteps: return "fallback_be_steps";
    case EngineCounter::kDegradedArcs: return "degraded_arcs";
    case EngineCounter::kCouplingClassifications:
      return "coupling_classifications";
    case EngineCounter::kCouplingReclassifications:
      return "coupling_reclassifications";
    case EngineCounter::kGatesEvaluated: return "gates_evaluated";
    case EngineCounter::kGatesCarried: return "gates_carried";
    case EngineCounter::kCount: break;
  }
  return "?";
}

const char* engine_histogram_name(EngineHistogram h) {
  switch (h) {
    case EngineHistogram::kFallbackDepth: return "fallback_depth";
    case EngineHistogram::kPwlPointsPerNet: return "pwl_points_per_net";
    case EngineHistogram::kLevelGates: return "level_gates";
    case EngineHistogram::kCount: break;
  }
  return "?";
}

MetricsRegistry::MetricsRegistry(std::size_t num_threads)
    : shards_(std::max<std::size_t>(num_threads, 1)) {}

void MetricsRegistry::observe(std::size_t thread_id, EngineHistogram h,
                              std::uint64_t value) {
  Hist& hist = shards_[thread_id].hists[static_cast<std::size_t>(h)];
  if (hist.count == 0) {
    hist.min = value;
    hist.max = value;
  } else {
    hist.min = std::min(hist.min, value);
    hist.max = std::max(hist.max, value);
  }
  ++hist.count;
  hist.sum += value;
  ++hist.buckets[bucket_index(value)];
}

void MetricsRegistry::begin_pass(int pass_index, std::uint64_t waveform_calcs,
                                 std::uint64_t gates_reused) {
  passes_.emplace_back();
  passes_.back().pass_index = pass_index;
  pass_calcs_base_ = waveform_calcs;
  pass_reused_base_ = gates_reused;
  pass_gates_base_ = counter_total(EngineCounter::kGatesEvaluated);
  pass_carried_base_ = counter_total(EngineCounter::kGatesCarried);
  pass_shared_base_ = counter_total(EngineCounter::kBeStepsShared);
  pass_start_ns_ = util::monotonic_ns();
  pass_open_ = true;
}

void MetricsRegistry::add_level(std::uint64_t gates, double wall_seconds) {
  if (!pass_open_) return;
  passes_.back().level_gates.push_back(gates);
  passes_.back().level_wall_seconds.push_back(wall_seconds);
}

void MetricsRegistry::add_governor_wall(double wall_seconds) {
  if (!pass_open_) return;
  passes_.back().governor_wall_seconds += wall_seconds;
}

void MetricsRegistry::end_pass(std::uint64_t waveform_calcs,
                               std::uint64_t gates_reused) {
  if (!pass_open_) return;
  PassMetrics& pm = passes_.back();
  pm.wall_seconds =
      static_cast<double>(util::monotonic_ns() - pass_start_ns_) * 1e-9;
  pm.waveform_calcs = waveform_calcs - pass_calcs_base_;
  pm.gates_evaluated =
      counter_total(EngineCounter::kGatesEvaluated) - pass_gates_base_;
  pm.gates_reused = gates_reused - pass_reused_base_;
  pm.gates_carried =
      counter_total(EngineCounter::kGatesCarried) - pass_carried_base_;
  pm.be_steps_shared =
      counter_total(EngineCounter::kBeStepsShared) - pass_shared_base_;
  pass_open_ = false;
}

void MetricsRegistry::clear() {
  for (Shard& s : shards_) s = Shard{};
  passes_.clear();
  pass_open_ = false;
}

std::uint64_t MetricsRegistry::counter_total(EngineCounter c) const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.counters[static_cast<std::size_t>(c)];
  }
  return total;
}

void MetricsRegistry::reduce_into(MetricsSnapshot* out) const {
  out->enabled = true;
  for (std::size_t c = 0; c < kNumEngineCounters; ++c) {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.counters[c];
    out->counters[c] = total;
  }
  for (std::size_t h = 0; h < kNumEngineHistograms; ++h) {
    HistogramSummary& dst = out->histograms[h];
    dst = HistogramSummary{};
    for (const Shard& s : shards_) {
      const Hist& src = s.hists[h];
      if (src.count == 0) continue;
      if (dst.count == 0) {
        dst.min = src.min;
        dst.max = src.max;
      } else {
        dst.min = std::min(dst.min, src.min);
        dst.max = std::max(dst.max, src.max);
      }
      dst.count += src.count;
      dst.sum += src.sum;
      for (std::size_t b = 0; b < HistogramSummary::kBuckets; ++b) {
        dst.buckets[b] += src.buckets[b];
      }
    }
  }
  out->passes = passes_;
}

std::string format_metrics_summary(const MetricsSnapshot& m) {
  if (!m.enabled) return "";
  std::ostringstream os;
  os << "metrics: waveform calcs " << m.waveform_calcs << " (be steps "
     << m.counter(EngineCounter::kBeSteps) << " + "
     << m.counter(EngineCounter::kBeStepsShared) << " shared, newton iters "
     << m.counter(EngineCounter::kNewtonIterations) << ", fallback steps "
     << m.counter(EngineCounter::kFallbackBeSteps) << "), coupling class "
     << m.counter(EngineCounter::kCouplingClassifications) << " (+"
     << m.counter(EngineCounter::kCouplingReclassifications) << " reclass)";
  if (m.counter(EngineCounter::kDegradedArcs) > 0) {
    os << ", degraded arcs " << m.counter(EngineCounter::kDegradedArcs);
  }
  os << "\n";
  const HistogramSummary& pwl = m.histogram(EngineHistogram::kPwlPointsPerNet);
  if (pwl.count > 0) {
    os << "  pwl points/net: mean " << std::fixed << std::setprecision(1)
       << pwl.mean() << ", max " << pwl.max << " over " << pwl.count
       << " net events\n";
  }
  for (const PassMetrics& p : m.passes) {
    os << "  pass " << p.pass_index << ": " << std::fixed
       << std::setprecision(3) << p.wall_seconds << " s, "
       << p.level_gates.size() << " levels, " << p.gates_evaluated
       << " gates";
    if (p.gates_reused > 0) os << " (+" << p.gates_reused << " reused)";
    if (p.gates_carried > 0) os << " (+" << p.gates_carried << " carried)";
    os << ", " << p.waveform_calcs << " calcs";
    if (p.be_steps_shared > 0) {
      os << ", " << p.be_steps_shared << " be steps shared";
    }
    if (p.governor_wall_seconds > 0.0) {
      os << ", governor " << std::fixed << std::setprecision(3)
         << p.governor_wall_seconds << " s";
    }
    os << "\n";
  }
  if (m.run_wall_seconds > 0.0) {
    // The serial work between passes: early activity, pass records,
    // quiet-time collection, esperance masks and result assembly.
    double in_passes = 0.0;
    for (const PassMetrics& p : m.passes) in_passes += p.wall_seconds;
    os << "  outside passes: " << std::fixed << std::setprecision(3)
       << m.run_wall_seconds - in_passes << " s of " << m.run_wall_seconds
       << " s run\n";
  }
  if (m.pool_busy_ns > 0 || m.pool_wait_ns > 0) {
    os << "  pool: utilization " << std::fixed << std::setprecision(1)
       << m.pool_utilization * 100.0 << "% (busy "
       << static_cast<double>(m.pool_busy_ns) * 1e-9 << " s, wait "
       << static_cast<double>(m.pool_wait_ns) * 1e-9 << " s)\n";
  }
  return os.str();
}

}  // namespace xtalk::sta
