// The crosstalk-aware STA engine (paper §4-5).
//
// One pass is a breadth-first (levelized topological) traversal of the
// gate DAG, propagating one worst-case waveform per net and direction. For
// the crosstalk-aware modes every arc is evaluated twice (§5.1): first a
// best-case run with all neighbours quiet, whose Vth crossing t_bcs is the
// earliest possible victim activity; then each adjacent wire whose
// opposite-direction quiet time exceeds t_bcs — or which is not calculated
// yet — keeps an active coupling cap, the rest are grounded with unchanged
// value, and the worst-case waveform is computed and inserted into the
// victim's event queue. Complexity stays linear in the graph size.
//
// The pass is parallel over gates: one parallel-for per topological level
// with a barrier in between ("TopoBarrier"). Coupling classification reads
// neighbour nets that may be computed concurrently; to stay deterministic
// for any thread count, it is anchored to pass start: a neighbour is
// readable iff its static ready level (driver level + 1; 0 for primary
// inputs) is <= the victim gate's level — exactly the nets the barrier
// completed before the victim's level — and everything else falls back to
// §5.1's conservative coupling assumption (or the previous pass's quiet
// times) regardless of execution order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/diag.hpp"
#include "util/fault_injection.hpp"
#include "util/run_governor.hpp"
#include "util/thread_pool.hpp"

#include "delaycalc/arc_delay.hpp"
#include "delaycalc/nldm.hpp"
#include "extract/parasitics.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sta/metrics.hpp"
#include "sta/modes.hpp"
#include "sta/timing_graph.hpp"

namespace xtalk::sta {

/// Options of the earliest-activity (min-arrival) analysis backing the
/// timing-window extension (sta/early.hpp).
struct EarlyOptions {
  double sharp_slew = 20e-12;  ///< input ramp for the min-delay bound [s]
  /// Subtract the full aiding-divider allowance from every arc's minimum
  /// delay (a same-direction aggressor kick can advance the threshold
  /// crossing). Keeping it guarantees a sound lower bound but weakens the
  /// windows considerably; industrial analyzers typically drop it.
  bool aiding_coupling_assist = true;
};

/// Which gate delay engine the analysis uses.
enum class DelayModel {
  /// The paper's transistor-level table/Newton waveform engine, including
  /// the active coupling model.
  kTransistorLevel,
  /// Classical characterized-table (NLDM) lookups; crosstalk can only be
  /// represented as grounded (active caps folded in doubled). Provided as
  /// the baseline the paper argues against — much faster, but modes
  /// kWorstCase/kOneStep/kIterative degenerate toward kStaticDoubled.
  kNldm,
};

struct StaOptions {
  AnalysisMode mode = AnalysisMode::kOneStep;
  DelayModel delay_model = DelayModel::kTransistorLevel;
  double input_slew = 0.2e-9;  ///< primary-input ramp 0->VDD [s]
  delaycalc::IntegrationOptions integration;
  /// Iterative mode: stop when the longest-path delay improves by less
  /// than this [s], or after max_passes.
  double convergence_eps = 0.1e-12;
  int max_passes = 10;
  /// Esperance speed-up (§5.2 / Benkoski): from pass 2 on, recalculate
  /// only gates on paths within `esperance_window` of the longest path;
  /// other nets keep their previous (conservative) timing.
  bool esperance = false;
  double esperance_window = 1.0e-9;
  /// Timing-window extension (beyond the paper): additionally ground
  /// aggressors whose *earliest* possible opposite activity (min-arrival
  /// analysis, sta/early.hpp) starts only after the victim has completely
  /// settled under the unrefined worst case. Costs one min-propagation
  /// pass plus occasional arc re-evaluations; tightens the bound further.
  bool timing_windows = false;
  EarlyOptions early;
  /// Multiplier on every coupling cap the analysis sees: the best-case /
  /// static-doubled / worst-case load splits, the one-step classification,
  /// and the timing-window early-activity assist all scale each extracted
  /// coupling cap by this factor. 1.0 (the default) is an exact no-op;
  /// > 1.0 adds pessimism (e.g. a derated signoff scenario), values in
  /// (0, 1) relax it. Must be finite and >= 0.
  double coupling_derate = 1.0;
  /// Worker threads for the parallel pass: 0 = one per hardware thread,
  /// 1 = serial. Results are bit-identical for any value — the coupling
  /// classification is anchored to pass start (static ready levels).
  int num_threads = 0;
  /// Externally-owned worker pool (borrowed; must outlive the engine). When
  /// set, the engine runs its parallel passes on it instead of spawning a
  /// private pool, so a long-lived caller (the analysis service's executor
  /// threads) pays thread spawn/teardown once, not per request;
  /// num_threads is then ignored. Exclusivity contract: at most one engine
  /// may be running on the pool at a time — the engine keeps the per-run
  /// quiescent-timing contract (reset_timing()/timing_total() only between
  /// its own loops) but cannot defend against a second concurrent driver.
  /// Results are bitwise identical for any pool size, shared or owned.
  util::ThreadPool* pool = nullptr;
  /// What to do when a delay calculation fails (Newton non-convergence,
  /// NaN escape, solver divergence): kStrict throws util::DiagError on the
  /// first failure; kDegrade walks the solver fallback chain, isolates a
  /// still-failing gate behind a conservative bound, records everything in
  /// StaResult::diagnostics, and completes the run.
  util::FaultPolicy fault_policy = util::FaultPolicy::kDegrade;
  /// Test-only deterministic fault injection hook (borrowed; null in
  /// production). Reset at the start of every run. Gate-scoped FaultSpecs
  /// fire deterministically at any thread count; a gate=-1 spec with
  /// after > 0 is only deterministic single-threaded.
  util::FaultInjector* fault_injector = nullptr;
  /// Run budget: wall-clock deadline and waveform-calc cap. Defaults to
  /// unlimited (the governor's checkpoints are then pure reads and results
  /// are bitwise identical to an ungoverned run). On exhaustion the run
  /// finishes the level in flight and returns the anytime result described
  /// at StaResult::BudgetStatus.
  util::RunBudget budget;
  /// Optional external cancellation (borrowed; null = none). request()
  /// truncates the run at the next level boundary like an exhausted budget.
  util::CancelToken* cancel = nullptr;
  /// Collect the per-run metrics snapshot (StaResult::metrics): engine
  /// counters and histograms, the per-pass/per-level breakdown, and
  /// thread-pool utilization. Accumulated into per-thread shards — cheap,
  /// but not free, hence default off.
  /// Never changes computed delays; integer metrics are bitwise
  /// thread-count invariant like the results themselves.
  bool collect_metrics = false;
};

struct EndpointArrival {
  netlist::NetId net = netlist::kNoNet;
  bool rising = true;
  double arrival = 0.0;  ///< including the endpoint sink's Elmore delay
};

struct StaResult {
  double longest_path_delay = 0.0;
  EndpointArrival critical;                ///< the worst endpoint
  std::vector<EndpointArrival> endpoints;  ///< all endpoints, both directions
  std::vector<NetTiming> timing;           ///< final per-net state
  int passes = 0;                          ///< full BFS passes executed
  std::size_t waveform_calculations = 0;
  double runtime_seconds = 0.0;
  int threads_used = 1;  ///< resolved worker count of the parallel pass
  /// Sinks encountered during propagation with no entry in the extracted
  /// parasitics (treated as zero wire delay). Nonzero means the extraction
  /// has gaps — investigate instead of trusting the bound.
  std::size_t missing_sink_wires = 0;
  /// Gate evaluations answered from a baseline RunTrace instead of being
  /// recomputed (incremental runs only; summed over all passes).
  std::size_t gates_reused = 0;
  /// Everything the fault-tolerance pipeline recorded this run, in the
  /// deterministic diagnostic_order (empty on a clean run). Incremental
  /// runs replay the diagnostics of reused gates from the baseline trace,
  /// so this matches a from-scratch run of the edited design.
  util::DiagReport diagnostics;
  /// Outcome of the run governor (StaOptions::budget). On a truncated run
  /// the result is *anytime*: the last completed coupling pass (iterative
  /// truncation discards the pass in flight), or — when even the first
  /// pass could not finish — its completed level prefix, whose per-net
  /// values are bitwise what the full first pass would have computed.
  /// Either way every reported endpoint arrival is >= the corresponding
  /// fully-converged arrival of the same mode (each pass only tightens the
  /// pass-1 bound, and a level prefix equals the full pass on its nets),
  /// and endpoints the truncated pass never reached are listed in
  /// `untimed_endpoints` instead of carrying stale numbers.
  struct BudgetStatus {
    bool exhausted = false;
    util::BudgetReason reason = util::BudgetReason::kNone;
    /// Fully completed BFS passes (== passes when not exhausted).
    int completed_passes = 0;
    /// Levels the truncated pass finished (== total_levels otherwise).
    std::size_t completed_levels = 0;
    std::size_t total_levels = 0;
    std::uint64_t governor_checks = 0;
    /// Endpoint nets with no timing in the returned result (their driver
    /// cone was cut off by the truncation). Empty on a complete run.
    std::vector<netlist::NetId> untimed_endpoints;
  };
  BudgetStatus budget;
  /// Aggregated observability snapshot (StaOptions::collect_metrics).
  /// Default-constructed — metrics.enabled == false — when the run did not
  /// collect metrics.
  MetricsSnapshot metrics;
};

/// The coupling classification of one arc evaluation in a coupling-aware
/// pass, per (timed input pin, input edge, output edge): the best-case
/// crossing t_bcs it classified against and the load it decided (§5.1).
/// It is the reuse key. With bitwise-equal fanin, the best case is
/// bitwise the recorded one, so re-running classify_coupling on the
/// recorded t_bcs tells whether process_gate would see the same loads —
/// and hence compute the same output (StaEngine::gate_reusable).
struct ArcClass {
  enum Kind : std::uint8_t {
    kUnclassified,  ///< no arc, or an all-active load (degraded input or
                    ///< best case): nothing a neighbour can change
    kClassified,    ///< load classified against t_bcs
    kRefined,       ///< kClassified plus a timing-window refinement
  };
  double t_bcs = 0.0;
  delaycalc::OutputLoad load;
  Kind kind = kUnclassified;
};

/// Timing-window part of an ArcClass: the unrefined worst case's settle
/// bound and the load the refinement classified against it.
struct ArcWindow {
  double settle_upper = 0.0;
  delaycalc::OutputLoad refined;
};

/// The ArcClass records of one pass. Gate g owns slots
/// [begin[g], begin[g + 1]): four per timed input pin, input edge major
/// (rise first), output edge minor; none in the modes that do not
/// classify. `windows` parallels `arcs` under timing windows and is empty
/// otherwise.
struct ClassRecord {
  enum GateFlag : std::uint8_t {
    kDiagnosed = 1,   ///< the evaluation reported a diagnostic
    kUnrecorded = 2,  ///< no evaluation of this pass stands behind the slots
  };
  std::vector<std::uint32_t> begin;
  std::vector<ArcClass> arcs;
  std::vector<ArcWindow> windows;
  std::vector<std::uint8_t> gate_flags;  ///< GateFlag bits per gate
};

/// Everything one pass of one run produced, recorded so a later incremental
/// run (sta/incremental/) can replay the pass sequence and copy per-net
/// results for gates untouched by the edits. `basis_pass` identifies the
/// pass whose timing supplied this pass's quiet times and esperance
/// baseline (-1 for the first pass, which runs on §5.1's conservative
/// assumption instead of stored quiet times).
struct PassRecord {
  std::vector<NetTiming> timing;
  std::vector<char> active_gates;  ///< esperance mask; empty when unused
  int basis_pass = -1;
  /// Diagnostics this pass emitted (sink arrival order). An incremental
  /// replay re-emits the entries of reused gates so its final report stays
  /// consistent with a from-scratch run.
  std::vector<util::Diagnostic> diagnostics;
  /// Classification records, the reuse key of a replay of this pass.
  ClassRecord classes;
};

/// Per-run recording: pass snapshots plus the early-activity arrays of the
/// timing-window extension. Only meaningful for replay under the same
/// StaOptions (num_threads excepted — results are thread-count invariant).
struct RunTrace {
  std::vector<PassRecord> passes;
  std::vector<double> early_rise;
  std::vector<double> early_fall;
};

struct EarlyTimes;  // sta/early.hpp

/// Inputs for an incremental (cached) run: the previous run's trace and the
/// per-net *seed* set — true meaning the net's own structure changed (its
/// driver cell, its parasitics, a coupling cap on it, or its driver's
/// level). A neighbour's moved level or early-activity bound needs no
/// seed: the reuse test re-classifies against them. From the seeds the engine
/// propagates dirtiness dynamically with value cut-off: a recomputed net
/// whose timing comes out bitwise identical to the baseline stops the
/// propagation, so reuse reaches far beyond the structural fanout cone.
/// `early` optionally injects already-updated early-activity arrays so the
/// min-propagation isn't redone from scratch. All borrowed; null = unused.
struct ReuseHints {
  const RunTrace* baseline = nullptr;
  const std::vector<char>* seed_dirty = nullptr;
  const EarlyTimes* early = nullptr;
};

/// All inputs of an analysis run (netlist + DAG + extracted parasitics +
/// device tables). Borrowed; must outlive the engine.
struct DesignView {
  const netlist::Netlist* netlist = nullptr;
  const netlist::LevelizedDag* dag = nullptr;
  const extract::Parasitics* parasitics = nullptr;
  const device::DeviceTableSet* tables = nullptr;
  /// Characterized NLDM library matching `tables`' technology, for kNldm
  /// runs and the degrade fallback bound. Null = the shared half-micron
  /// characterization (the pre-MCMM behaviour; only exact for the default
  /// technology — scenario corners supply their own, see ScenarioContext).
  const delaycalc::NldmLibrary* nldm = nullptr;
};

class StaEngine {
 public:
  StaEngine(const DesignView& design, const StaOptions& options);
  ~StaEngine();

  /// Run the configured analysis (single pass for the three baseline modes
  /// and one-step; the convergence loop for iterative). Validates the
  /// options first (throws std::invalid_argument). When `trace_out` is
  /// given, per-pass snapshots are recorded into it; when `hints` carries a
  /// baseline trace + clean mask, clean gates copy their cached per-pass
  /// results instead of recomputing — bitwise identical to a full run as
  /// long as the clean mask honours the ReuseHints contract.
  StaResult run(RunTrace* trace_out = nullptr,
                const ReuseHints* hints = nullptr);

  /// The run governor enforcing StaOptions::budget. Exposed so a caller
  /// doing preparatory work on the run's clock (IncrementalSta's
  /// early-activity update) can start the epoch early and checkpoint its
  /// own loops; run() keeps a pre-started epoch.
  util::RunGovernor& governor() { return governor_; }

 private:
  /// A replayed pass's baseline diagnostics grouped by gate, built once per
  /// pass: gate g's entries are entries[order[i]] for i in
  /// [begin[g], begin[g + 1]), in their recorded order.
  struct DiagsByGate {
    const std::vector<util::Diagnostic>* entries = nullptr;
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> order;

    void build(const std::vector<util::Diagnostic>& diags,
               std::size_t num_gates);
  };

  struct PassConfig {
    /// Quiet times from the previous pass; null on the first pass (then
    /// uncalculated neighbours are assumed coupling, §5.1).
    const QuietTimes* previous = nullptr;
    /// Esperance restriction; null = recalculate everything.
    const std::vector<char>* active_gates = nullptr;
    /// Timing from the previous pass (for gates skipped by Esperance).
    const std::vector<NetTiming>* previous_timing = nullptr;
    /// Reuse baseline: when non-null, a gate whose fanin and coupling
    /// classification are unchanged vs. this baseline pass (gate_reusable)
    /// copies its output from here instead of being recomputed. It is
    /// pass k of a RunTrace being replayed, or this run's pass k-1
    /// (`cross_pass`). Null = no reuse.
    const std::vector<NetTiming>* reuse_timing = nullptr;
    /// Classification records of the baseline pass (the reuse key).
    const ClassRecord* reuse_classes = nullptr;
    /// The baseline is this run's previous pass, not a RunTrace.
    bool cross_pass = false;
    /// Per-net structural seeds of the edit batch (ReuseHints contract);
    /// null = none.
    const std::vector<char>* seed_dirty = nullptr;
    /// Written by the pass: per net, 1 iff the net's final timing in this
    /// pass differs (bitwise) from the baseline pass. Gates of level L
    /// write only their own output; levels >L read it after the barrier.
    std::vector<char>* value_dirty = nullptr;
    /// value_dirty of the basis pass against its RunTrace baseline, for
    /// Esperance-skipped gates of a replayed pass. Null when no quiet
    /// basis exists.
    const std::vector<char>* basis_dirty = nullptr;
    /// Written by the pass: the classification records of its gates.
    ClassRecord* classes = nullptr;
    /// Index of this pass in the run (diagnostic context).
    int pass_index = 0;
    /// Baseline diagnostics of the replayed pass: a reused gate re-emits
    /// its entries so incremental reports match from-scratch runs. Null
    /// when not replaying.
    const DiagsByGate* reuse_diags = nullptr;
  };

  /// Per-thread delay-calculation scratch (memoized path enumeration /
  /// stage collapse / NLDM arc lookups). Indexed by the pool's thread id.
  struct DelayScratch {
    delaycalc::ArcScratch arc;
    delaycalc::NldmScratch nldm;
  };

  /// Where a pass stopped: complete, or truncated at a level boundary by
  /// the run governor (the completed prefix is untouched and bitwise what
  /// the full pass would compute for those levels).
  struct PassStatus {
    bool truncated = false;
    std::size_t completed_levels = 0;
    std::size_t total_levels = 0;
    /// Endpoint nets left untimed by the truncation (empty if complete).
    std::vector<netlist::NetId> untimed_endpoints;
  };

  /// One full BFS pass (parallel, level by level); fills `timing` and
  /// returns the longest-path delay. Checks the run governor at every
  /// level boundary; on exhaustion starts no further level and reports the
  /// cut in `status`.
  double run_pass(const PassConfig& config, std::vector<NetTiming>& timing,
                  std::vector<EndpointArrival>& endpoints,
                  EndpointArrival& critical, PassStatus& status);

  /// Level-barrier traversal: one pool parallel_for per level, serial
  /// governor checkpoint (own governor-wall metric) before
  /// each, level walls measured strictly around the dispatch.
  void run_levels(const PassConfig& config, std::vector<NetTiming>& timing,
                  PassStatus& status);

  /// The per-gate work item of a pass: esperance skip / incremental reuse /
  /// process_gate for one gate, on `thread_id`'s scratch.
  void run_gate(netlist::GateId gate, const PassConfig& config,
                std::vector<NetTiming>& timing, std::size_t thread_id);

  /// Reuse decision for one gate, the same for both baseline sources:
  /// true iff its evaluation would reproduce the baseline's bitwise. False
  /// on a structural seed of its output or fanins, a value-dirty fanin, a
  /// baseline evaluation without a record, or — cross-pass only — one that
  /// reported diagnostics (their pass index differs). Otherwise re-run
  /// classify_coupling on every recorded t_bcs (and settle bound) against
  /// this pass's timing and quiet basis: true iff every load is bitwise
  /// the recorded one.
  bool gate_reusable(netlist::GateId gate, const PassConfig& config,
                     const std::vector<NetTiming>& timing) const;

  /// Evaluate every arc of `gate` and merge results into the output net's
  /// events, recording its classifications into config.classes.
  /// Thread-safe against other gates of the same pass: coupling reads go
  /// through the pass-anchored ready-level predicate (see
  /// classify_coupling); `thread_id` selects the scratch.
  void process_gate(netlist::GateId gate, const PassConfig& config,
                    std::vector<NetTiming>& timing, std::size_t thread_id);

  /// Decide the coupling load split for one victim arc evaluation.
  /// `victim_level` anchors the snapshot to pass start: a neighbour's
  /// current-pass timing is readable iff net_ready_level_[neighbour] <=
  /// victim_level (static structure, identical for every thread count);
  /// otherwise §5.1's conservative assumption or the
  /// previous pass's quiet times apply. `victim_settle_upper` enables the
  /// timing-window refinement: an aggressor whose earliest opposite
  /// activity starts at or after it is grounded (pass +inf to disable).
  delaycalc::OutputLoad classify_coupling(netlist::NetId victim,
                                          bool victim_rising, double t_bcs,
                                          const PassConfig& config,
                                          const std::vector<NetTiming>& timing,
                                          std::uint32_t victim_level,
                                          double base_cap,
                                          double victim_settle_upper) const;

  /// Grounded lumped cap on a net before coupling treatment: wire cap plus
  /// sink pin caps.
  double base_load(netlist::NetId net) const;

  /// Elmore shift for a specific sink of a net.
  double sink_elmore(netlist::NetId net, const netlist::PinRef& sink) const;

  /// Collect per-net quiet times from a finished pass.
  QuietTimes collect_quiet(const std::vector<NetTiming>& timing) const;

  /// One waveform calculation of `arc` driving `load`, dispatched to the
  /// configured delay engine and counted as one calc. With `to_threshold`
  /// a transistor-level output stage stops past the model threshold
  /// (ArcResult::stopped; finish_arc completes it); NLDM and bound results
  /// are always complete. Under kDegrade a util::DiagError from the solver
  /// is caught here and a conservative bound substituted (bound_arc);
  /// under kStrict it propagates.
  std::vector<delaycalc::ArcResult> compute_arc(
      delaycalc::ArcEvaluation& arc, const delaycalc::OutputLoad& load,
      std::size_t thread_id, const util::DiagHandle& diag,
      bool to_threshold = false);

  /// Finish the stopped results of direction `out_rising` in `results`, in
  /// place, to the rail. They belong to the calc that stopped them and are
  /// not counted again. Returns false when a finish failed under kDegrade
  /// (reported; the caller substitutes bound_arc); under kStrict the error
  /// propagates.
  bool finish_arc(delaycalc::ArcEvaluation& arc,
                  std::vector<delaycalc::ArcResult>& results, bool out_rising,
                  std::size_t thread_id, const util::DiagHandle& diag);

  /// Add one arc result's solver work to the metrics shards.
  void count_solver_work(const delaycalc::ArcResult& r, std::size_t thread_id);

  /// Conservative upper-bound arc results when the transistor-level solver
  /// is unrecoverable: the characterized NLDM delay/slew doubled (plus the
  /// degrade margin), or — for cells without NLDM arcs — an analytic
  /// fixed-delay bound covering both output directions.
  std::vector<delaycalc::ArcResult> bound_arc(
      const netlist::Cell& cell, std::uint32_t pin, bool in_rising,
      const util::Pwl& input_waveform, const delaycalc::OutputLoad& load,
      std::size_t thread_id, const util::DiagHandle& diag);

  /// Per-gate isolation (kDegrade): replace the whole gate's output with a
  /// pessimistic bound event after an unexpected evaluation failure.
  void degrade_gate(netlist::GateId gate, const PassConfig& config,
                    std::vector<NetTiming>& timing, const char* why);

  /// The diagnostic capability for one gate evaluation.
  util::DiagHandle gate_diag(netlist::GateId gate, netlist::NetId out,
                             const PassConfig& config) const;

  /// Emit the per-truncation diagnostic record (anytime path).
  void report_truncation(util::BudgetReason reason, int pass,
                         const PassStatus& status, const char* what);

  DesignView design_;
  StaOptions options_;
  delaycalc::ArcDelayCalculator calculator_;
  std::unique_ptr<delaycalc::NldmDelayCalculator> nldm_;
  /// Owned pool (null when StaOptions::pool lends one); pool_ is the pool
  /// actually driven — owned_pool_.get() or the borrowed handle.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  /// True when this engine flipped timing collection on a *borrowed* pool;
  /// the destructor flips it back so the lender's cold path stays cold.
  bool borrowed_pool_timing_ = false;
  std::vector<DelayScratch> scratch_;  ///< one per pool thread
  std::atomic<std::size_t> waveform_calcs_{0};
  std::atomic<std::size_t> gates_reused_{0};
  /// Sinks with no extracted wire seen during propagation (see
  /// StaResult::missing_sink_wires). Mutable: sink_elmore is logically
  /// const but must record the gap.
  mutable std::atomic<std::size_t> missing_sinks_{0};
  /// Per-net earliest activity (only when options_.timing_windows is set).
  std::vector<double> early_rise_;
  std::vector<double> early_fall_;
  /// Pass-anchored coupling snapshot, as static structure: the earliest
  /// gate level at which net n's current-pass timing is readable. 0 for
  /// primary inputs (stimulus, set before dispatch), driver level + 1 for
  /// gate-driven nets, UINT32_MAX for driverless non-PI nets (never
  /// readable — matching the old per-level snapshot, where such nets never
  /// got a calculated flag). Built once per engine in run().
  std::vector<std::uint32_t> net_ready_level_;
  /// Bounded thread-safe diagnostic collector (cleared at every run).
  util::DiagSink sink_;
  /// Lazily-built NLDM calculator backing bound_arc in transistor-level
  /// runs (kNldm runs use nldm_ directly).
  std::unique_ptr<delaycalc::NldmDelayCalculator> fallback_nldm_;
  std::once_flag fallback_nldm_once_;
  /// Budget enforcement for this engine's runs (one epoch per run).
  util::RunGovernor governor_;
  /// Observability (null when StaOptions::collect_metrics is off, which
  /// reduces every instrumentation site to a null-pointer test).
  std::unique_ptr<MetricsRegistry> metrics_;
};

/// Gates on origin chains of endpoints within `window` of `delay` (the
/// Esperance restriction, §5.2). Chains are walked and deduplicated per
/// (net, edge) *event*, not per gate: in reconvergent logic a gate's rise
/// and fall events can arrive through different upstream origins, so a gate
/// already marked via one edge's chain must not terminate the walk of the
/// other edge's chain. Exposed for testing.
std::vector<char> collect_esperance_gates(
    std::size_t num_gates, const std::vector<NetTiming>& timing,
    const std::vector<EndpointArrival>& endpoints, double delay,
    double window);

/// Bitwise equality of two per-net timing states (NaN == NaN): every field
/// a downstream evaluation can read — validity, arrival/start/settle times,
/// coupled flag, origin, and all waveform points. The value cut-off of the
/// incremental reuse and its tests both depend on this exact notion.
bool net_timing_identical(const NetTiming& a, const NetTiming& b);

/// Convenience wrapper: run one mode on a design.
StaResult run_sta(const DesignView& design, const StaOptions& options);

}  // namespace xtalk::sta
