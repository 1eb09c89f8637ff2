#pragma once

// Engine metrics: named counters and integer histograms accumulated into
// per-thread shards (no locks, no atomics on the hot path) and reduced at
// serial points, plus a per-pass / per-level wall-time breakdown maintained
// by the engine thread.
//
// Determinism: every counter and histogram is integer-valued and summed
// shard-by-shard in a fixed order, so totals are bitwise invariant under the
// thread count whenever the underlying engine work is (which the snapshot
// classification guarantees). Wall times and pool busy/wait figures are
// measurements and carry no such guarantee.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xtalk::sta {

/// Hot-path counters bumped from worker threads via per-thread shards.
enum class EngineCounter : std::size_t {
  kBeSteps,                    ///< backward-Euler steps across stage solves
  kBeStepsShared,              ///< BE steps of pre-output hops reused
  kNewtonIterations,           ///< Newton iterations inside those steps
  kFallbackBeSteps,            ///< BE steps that needed the fallback chain
  kDegradedArcs,               ///< arc evaluations with a degraded waveform
  kCouplingClassifications,    ///< aggressor classification computations
  kCouplingReclassifications,  ///< timing-window refinements that recomputed
  kGatesEvaluated,             ///< gates actually processed (not reused)
  kGatesCarried,               ///< gates copied from the run's previous pass
  kCount,
};
constexpr std::size_t kNumEngineCounters =
    static_cast<std::size_t>(EngineCounter::kCount);

const char* engine_counter_name(EngineCounter c);

enum class EngineHistogram : std::size_t {
  kFallbackDepth,    ///< fallback BE steps per arc evaluation
  kPwlPointsPerNet,  ///< final waveform points per timed net event
  kLevelGates,       ///< gates per topological level
  kCount,
};
constexpr std::size_t kNumEngineHistograms =
    static_cast<std::size_t>(EngineHistogram::kCount);

const char* engine_histogram_name(EngineHistogram h);

/// Power-of-two bucketed integer histogram: bucket i counts values v with
/// bit_width(v) == i (bucket 0 is v == 0), the last bucket absorbs the rest.
struct HistogramSummary {
  static constexpr std::size_t kBuckets = 16;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// One row of the Table-2-style phase breakdown.
struct PassMetrics {
  int pass_index = 0;
  double wall_seconds = 0.0;      ///< level loop + endpoint collection
  std::uint64_t waveform_calcs = 0;
  std::uint64_t gates_evaluated = 0;
  std::uint64_t gates_reused = 0;
  /// Gates copied unchanged from the previous pass of the same run.
  std::uint64_t gates_carried = 0;
  /// BE steps of pre-output stage hops a worst case reused from its best
  /// case instead of integrating them again.
  std::uint64_t be_steps_shared = 0;
  std::vector<std::uint64_t> level_gates;
  /// Per-level dispatch wall only — the serial governor checkpoints are
  /// attributed to governor_wall_seconds instead, so the level walls stay
  /// an honest Table-2-style breakdown.
  std::vector<double> level_wall_seconds;
  /// Serial governor checkpoint time of this pass (one per level
  /// boundary).
  double governor_wall_seconds = 0.0;
};

/// Aggregated view attached to StaResult::metrics. Default-constructed
/// (enabled == false) when the run did not collect metrics.
struct MetricsSnapshot {
  bool enabled = false;
  int threads = 1;

  // Mirrors of the engine's relaxed atomics, for a self-contained snapshot.
  std::uint64_t waveform_calcs = 0;
  std::uint64_t gates_reused = 0;
  std::uint64_t governor_checkpoints = 0;

  std::array<std::uint64_t, kNumEngineCounters> counters{};
  std::array<HistogramSummary, kNumEngineHistograms> histograms{};
  std::vector<PassMetrics> passes;

  double run_wall_seconds = 0.0;
  std::uint64_t pool_busy_ns = 0;
  std::uint64_t pool_wait_ns = 0;
  /// sum(busy) / (run wall * threads); 0 when unknown. Computed from
  /// timing_total() at run end — the pool's quiescence contract makes the
  /// numbers exact, never torn mid-loop.
  double pool_utilization = 0.0;

  std::uint64_t counter(EngineCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistogramSummary& histogram(EngineHistogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
};

/// Shard container. add()/observe() may be called concurrently from
/// different thread ids (each id owns its shard); the pass bookkeeping and
/// snapshot() are serial-only (engine thread at level/pass barriers).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t num_threads);

  void add(std::size_t thread_id, EngineCounter c, std::uint64_t v = 1) {
    shards_[thread_id].counters[static_cast<std::size_t>(c)] += v;
  }
  void observe(std::size_t thread_id, EngineHistogram h, std::uint64_t value);

  // --- serial pass bookkeeping (engine thread only) ---
  void begin_pass(int pass_index, std::uint64_t waveform_calcs,
                  std::uint64_t gates_reused);
  void add_level(std::uint64_t gates, double wall_seconds);
  /// Accumulate serial governor-checkpoint time into the open pass.
  void add_governor_wall(double wall_seconds);
  void end_pass(std::uint64_t waveform_calcs, std::uint64_t gates_reused);

  void clear();

  std::uint64_t counter_total(EngineCounter c) const;

  /// Reduces shards into `out->counters` / `out->histograms` / `out->passes`
  /// and sets enabled; the engine fills the remaining snapshot fields.
  void reduce_into(MetricsSnapshot* out) const;

 private:
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, HistogramSummary::kBuckets> buckets{};
  };
  struct alignas(64) Shard {
    std::array<std::uint64_t, kNumEngineCounters> counters{};
    std::array<Hist, kNumEngineHistograms> hists{};
  };

  std::vector<Shard> shards_;
  std::vector<PassMetrics> passes_;
  // begin_pass baselines for the per-pass deltas.
  std::uint64_t pass_calcs_base_ = 0;
  std::uint64_t pass_reused_base_ = 0;
  std::uint64_t pass_gates_base_ = 0;
  std::uint64_t pass_carried_base_ = 0;
  std::uint64_t pass_shared_base_ = 0;
  std::uint64_t pass_start_ns_ = 0;
  bool pass_open_ = false;
};

/// Human-readable metrics block appended to format_result_summary.
std::string format_metrics_summary(const MetricsSnapshot& m);

}  // namespace xtalk::sta
