// Cell timing-arc evaluation: input-pin waveform in, output waveform out.
//
// Chains the cell's stages along every pin-to-output stage path (one for
// simple cells, several for XOR-class cells), collapsing and integrating
// each stage. Internal stage outputs carry their topological node
// capacitance and never couple; the paper's coupling model applies to the
// final output stage, whose load is supplied by the caller.
#pragma once

#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "delaycalc/stage.hpp"
#include "delaycalc/waveform_calc.hpp"
#include "netlist/cell_library.hpp"

namespace xtalk::delaycalc {

struct ArcResult {
  bool output_rising = true;
  util::Pwl waveform;        ///< at the cell output, absolute time
  double settle_time = 0.0;  ///< when the output stopped moving
  bool coupled = false;      ///< the active coupling event fired
  bool degraded = false;     ///< any stage hop took the solver fallback chain
  /// The output stage stopped past the model threshold
  /// (ArcEvaluation::evaluate_to_threshold): `waveform` holds only its
  /// first samples and `settle_time` is the stop time.
  bool stopped = false;
  // Solver work this call performed over the stage hops of this path
  // (metrics layer), and the BE steps of pre-output hops it reused from an
  // earlier evaluation of the same ArcEvaluation instead.
  std::uint64_t be_steps = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t fallback_steps = 0;
  std::uint64_t be_steps_shared = 0;
};

/// Reusable per-thread scratch for arc evaluation. Path enumeration and
/// stage collapse are pure functions of the cell structure (and the fixed
/// device tables), so they are memoized here instead of being re-derived —
/// and re-allocated — for every waveform calculation. The calculator itself
/// stays immutable; each engine thread owns one ArcScratch, which keeps the
/// parallel pass free of shared mutable state.
class ArcScratch {
 public:
  /// Memoized enumerate_paths(cell, pin).
  const std::vector<StagePath>& paths(const netlist::Cell& cell,
                                      std::size_t pin);
  /// Memoized collapse_dc(sensitize()) for one stage hop.
  const CollapsedStage& collapsed(const netlist::Cell& cell,
                                  std::size_t stage_index, std::size_t input,
                                  const device::DeviceTableSet& tables);

 private:
  std::map<std::pair<const netlist::Cell*, std::size_t>,
           std::vector<StagePath>>
      paths_;
  std::map<std::tuple<const netlist::Cell*, std::size_t, std::size_t>,
           CollapsedStage>
      collapsed_;
};

class ArcDelayCalculator {
 public:
  explicit ArcDelayCalculator(const device::DeviceTableSet& tables)
      : tables_(&tables) {}

  const device::DeviceTableSet& tables() const { return *tables_; }

  /// Evaluate the arc from `input_pin` (switching with `input_rising` and
  /// waveform `input_waveform`) to the cell output, driving `load`.
  /// Returns one result per stage path (mixed output directions possible
  /// for non-unate cells). `scratch`, if given, must not be shared between
  /// threads. `diag`, if given, attaches the fault-tolerance pipeline of
  /// solve_stage_waveform (diagnostics, policy, fault injection).
  std::vector<ArcResult> compute(const netlist::Cell& cell,
                                 std::size_t input_pin, bool input_rising,
                                 const util::Pwl& input_waveform,
                                 const OutputLoad& load,
                                 const IntegrationOptions& options = {},
                                 ArcScratch* scratch = nullptr,
                                 const util::DiagHandle* diag = nullptr) const;

 private:
  const device::DeviceTableSet* tables_;
};

/// One arc evaluation (cell, input pin, input edge, input waveform) split at
/// the output stage, for evaluating several output loads. The hops before
/// the output stage drive internal nodes only, so every load sees the same
/// pre-output waveform: each path's prefix is solved once, on first use,
/// and shared by every later evaluation (the paper's best and worst case,
/// §5.1). The output stage of an uncoupled load can stop at the model
/// threshold crossing — all the best case is needed for — and be finished
/// to the rail later, bitwise as if it had never stopped.
///
/// Everything passed in is borrowed and must outlive the evaluation. Every
/// result is bitwise what a fresh evaluation of the same load gives; a
/// prefix's solver diagnostics are reported once, and a prefix that threw
/// util::DiagError throws the same error on every later use.
class ArcEvaluation {
 public:
  ArcEvaluation(const ArcDelayCalculator& calc, const netlist::Cell& cell,
                std::size_t input_pin, bool input_rising,
                const util::Pwl& input_waveform,
                const IntegrationOptions& options = {},
                ArcScratch* scratch = nullptr,
                const util::DiagHandle* diag = nullptr);
  ArcEvaluation(const ArcEvaluation&) = delete;
  ArcEvaluation& operator=(const ArcEvaluation&) = delete;

  const netlist::Cell& cell() const { return *cell_; }
  std::size_t input_pin() const { return pin_; }
  bool input_rising() const { return input_rising_; }
  const util::Pwl& input_waveform() const { return *input_; }

  /// One result per stage path, driving `load` to the rail.
  std::vector<ArcResult> evaluate(const OutputLoad& load);

  /// One result per stage path, each output stage stopped once past the
  /// model threshold (ArcResult::stopped): waveform.front() and the sample
  /// after it are bitwise evaluate()'s when no solver fallback ran. Needs
  /// load.c_active <= 0. Replaces the stops of an earlier call.
  std::vector<ArcResult> evaluate_to_threshold(const OutputLoad& load);

  /// Finish path `path` of the last evaluate_to_threshold to the rail. The
  /// result is evaluate()'s for that load and path; its work counters count
  /// only the finishing steps.
  ArcResult complete(std::size_t path);

 private:
  /// A path's waveform at the input of its output stage.
  struct Prefix {
    bool ready = false;
    util::Pwl waveform;  ///< empty for a one-hop path (the input waveform)
    bool dir = true;     ///< output-stage input direction
    bool degraded = false;
    std::uint64_t be_steps = 0;
    std::uint64_t newton_iters = 0;
    std::uint64_t fallback_steps = 0;
    bool charged = false;  ///< its work went into a result already
    std::optional<util::Diagnostic> error;
  };

  /// Solve path `i`'s pre-output hops unless done already.
  const Prefix& prefix(std::size_t i);
  /// The output stage of path `i`, driving `load`.
  StageSolver output_stage(std::size_t i, const OutputLoad& load);
  /// A result for path `i` from an output-stage solve, with the prefix's
  /// taint and work folded in.
  ArcResult result(std::size_t i, WaveformResult&& wr);

  const ArcDelayCalculator* calc_;
  const netlist::Cell* cell_;
  std::size_t pin_;
  bool input_rising_;
  const util::Pwl* input_;
  IntegrationOptions options_;
  ArcScratch* scratch_;
  const util::DiagHandle* diag_;
  std::vector<StagePath> local_paths_;
  const std::vector<StagePath>* paths_;
  std::vector<Prefix> prefixes_;  ///< one per path, never resized
  std::vector<StageSolver> stopped_;  ///< output stages of the last stop
};

}  // namespace xtalk::delaycalc
