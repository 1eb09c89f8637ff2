// Structured diagnostics for the fault-tolerant analysis pipeline.
//
// Production STA cannot assume clean inputs: a non-converged Newton step, a
// NaN escaping a table, a singular Jacobian must all surface as *recorded,
// attributable events* — never a silent wrong number, never (in degrade
// mode) an aborted run. Every recovery step of the solver fallback chain
// (delaycalc/waveform_calc.cpp, sim/transient.cpp) and every per-gate
// degradation of the STA engine reports here.
//
// The pieces:
//   Diagnostic  — one error-coded, severity-ranked event with analysis
//                 context (gate, net, level, pass).
//   DiagSink    — bounded, thread-safe collector; the engine owns one and
//                 threads a handle through the delay calculators.
//   DiagHandle  — the per-gate capability passed down the call chain: sink +
//                 fault-injection hook + context + fault policy.
//   DiagError   — exception carrying a Diagnostic (strict-policy failures
//                 and unrecoverable solver faults).
//   FaultPolicy — strict (first failure throws) vs degrade (fallback chain
//                 substitutes a conservative bound and the run completes).
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace xtalk::util {

class FaultInjector;  // util/fault_injection.hpp

/// Stable error codes. Append only — bench JSON reports and tests key on
/// the names.
enum class DiagCode {
  kNewtonNonConvergence,  ///< Newton exhausted max iterations (was silent)
  kNonFiniteValue,        ///< NaN/Inf escaped into or out of a computation
  kNonFiniteTableEntry,   ///< interpolation table built with NaN/Inf samples
  kDampedRetry,           ///< fallback chain: damped Newton retry engaged
  kStepHalving,           ///< fallback chain: time step halved after failure
  kBisectionFallback,     ///< fallback chain: bisection on the table model
  kBoundSubstituted,      ///< last resort: conservative NLDM-derived bound
  kGateDegraded,          ///< per-gate isolation: whole gate replaced by bound
  kIntegrationStall,      ///< waveform integration hit max_steps
  kThresholdNotCrossed,   ///< output waveform never reached the model Vth
  kDcNonConvergence,      ///< transient DC operating point did not converge
  kTransientStepLimit,    ///< transient Newton failed at the minimum step
  kTransientHold,         ///< degrade: transient held state past a bad step
  kSingularMatrix,        ///< Jacobian factorization failed
  kInjectedFault,         ///< a test fault-injection site fired
  kBudgetExhausted,       ///< run governor truncated the run
  kParseError,            ///< malformed input line/statement (recovered)
  kInputLimit,            ///< input exceeded a parser resource limit
  kFileError,             ///< file could not be opened/read
  kTableRange,            ///< analysis voltage exceeds the device-table grid
};

enum class Severity {
  kInfo,     ///< a fallback engaged and fully recovered
  kWarning,  ///< result degraded to a conservative bound
  kError,    ///< a whole gate/step was replaced or abandoned
};

/// Failure policy of an analysis run (StaOptions::fault_policy).
enum class FaultPolicy {
  kStrict,   ///< first failure throws DiagError (classic fail-fast)
  kDegrade,  ///< fallback chain + diagnostic; run completes conservatively
};

const char* diag_code_name(DiagCode code);
const char* severity_name(Severity severity);
const char* fault_policy_name(FaultPolicy policy);

/// Analysis context a diagnostic is attributed to. -1 = not applicable.
/// Parser diagnostics fill the source-location fields instead of the
/// analysis ones; an empty `file` means no file context.
struct DiagContext {
  std::int64_t gate = -1;  ///< netlist::GateId of the gate being evaluated
  std::int64_t net = -1;   ///< output net of that gate
  int level = -1;          ///< topological level
  int pass = -1;           ///< STA pass index
  std::string file;        ///< source file (parser/front-end diagnostics)
  std::int64_t line = -1;  ///< 1-based source line
  std::int64_t column = -1;///< 1-based source column
};

struct Diagnostic {
  DiagCode code = DiagCode::kNewtonNonConvergence;
  Severity severity = Severity::kInfo;
  DiagContext ctx;
  std::string message;
};

/// One-line rendering: "[warning bisection-fallback] gate 12 net 7 pass 0:
/// message" — parser diagnostics render their source location instead:
/// "[error parse-error] file.bench line 2 col 7: message".
std::string format_diagnostic(const Diagnostic& d);

/// Resource limits of the text front-ends (bench/verilog/SPEF parsers).
/// They bound what adversarial input can make the parser allocate; the
/// defaults are far above any legitimate netlist of this code base's
/// scale. A limit hit is reported as kInputLimit and aborts the parse.
struct ParseLimits {
  std::size_t max_line_length = 1u << 16;  ///< bytes per logical line
  std::size_t max_tokens = 8u << 20;       ///< tokens per file
  std::size_t max_errors = 64;   ///< recovered errors before giving up
  std::size_t max_nets = 2u << 20;         ///< distinct nets created
  std::size_t max_instances = 2u << 20;    ///< gates/instances created
  std::size_t max_gate_args = 4096;        ///< fanins of one parsed gate
};

/// Deterministic ordering for reports: (pass, level, gate, net, code,
/// severity, message). Thread scheduling can permute sink arrival order;
/// sorting restores a stable view.
bool diagnostic_order(const Diagnostic& a, const Diagnostic& b);

class DiagSink;

/// Error accumulator of the text front-ends (bench/Verilog/SPEF). The
/// parsers report every malformed statement here and recover to the next
/// one instead of throwing on first contact; at end-of-input finish()
/// raises a single DiagError carrying the *first* error (so existing
/// "throws with line number" contracts hold) annotated with the total
/// count. Resource-limit hits and unopenable files are unrecoverable and
/// throw immediately via fatal(). Every record is mirrored into the
/// optional external sink so callers see the full list, not just the
/// first.
class ParseDiag {
 public:
  ParseDiag(std::string file, const ParseLimits& limits,
            DiagSink* sink = nullptr)
      : file_(std::move(file)), limits_(limits), sink_(sink) {}

  const ParseLimits& limits() const { return limits_; }
  std::size_t error_count() const { return errors_; }
  bool ok() const { return errors_ == 0; }

  /// Record a recoverable parse error (kParseError). Returns true while
  /// the caller may keep recovering, false once max_errors is reached —
  /// the caller should then stop consuming input and call finish().
  bool error(std::int64_t line, std::int64_t column, std::string message);

  /// Record and immediately throw DiagError: resource-limit hits
  /// (kInputLimit) and file-system failures (kFileError) that recovery
  /// cannot get past.
  [[noreturn]] void fatal(DiagCode code, std::int64_t line,
                          std::int64_t column, std::string message);

  /// Throw DiagError for the first recorded error; no-op on a clean parse.
  void finish() const;

 private:
  Diagnostic make(DiagCode code, Severity severity, std::int64_t line,
                  std::int64_t column, std::string message) const;

  std::string file_;
  ParseLimits limits_;
  DiagSink* sink_;
  std::size_t errors_ = 0;
  Diagnostic first_;
};

/// Bounded, thread-safe diagnostic collector. Reports beyond the capacity
/// are counted, not stored (the run stays O(1) in memory under a diagnostic
/// storm), and the drop is itself visible via dropped().
class DiagSink {
 public:
  explicit DiagSink(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Record a diagnostic. Returns false if it was dropped (sink full).
  bool report(Diagnostic d);

  std::size_t size() const;
  std::size_t dropped() const;
  /// Copy of entries [from, size()), in arrival order.
  std::vector<Diagnostic> slice(std::size_t from) const;
  std::vector<Diagnostic> snapshot() const { return slice(0); }
  void clear();

  /// Reports (stored or dropped) the calling thread has made to any sink
  /// so far. Comparing it before and after a synchronous computation tells
  /// whether that computation reported anything, even into a full sink or
  /// without a gate context.
  static std::uint64_t thread_reports();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<Diagnostic> entries_;
};

/// Final per-run diagnostic report (StaResult::diagnostics): entries in the
/// deterministic diagnostic_order, plus the drop counter.
struct DiagReport {
  std::vector<Diagnostic> entries;
  std::size_t dropped = 0;

  std::size_t count(Severity severity) const;
  std::size_t count(DiagCode code) const;
  bool empty() const { return entries.empty() && dropped == 0; }
};

/// Exception carrying the diagnostic that caused it. Thrown by strict-policy
/// failures and by unrecoverable solver faults; the STA engine's degrade
/// path catches it and substitutes a conservative bound instead.
class DiagError : public std::runtime_error {
 public:
  explicit DiagError(Diagnostic diag)
      : std::runtime_error(format_diagnostic(diag)), diag_(std::move(diag)) {}

  const Diagnostic& diagnostic() const { return diag_; }

 private:
  Diagnostic diag_;
};

/// The capability handed down the delay-calculation call chain: where to
/// report, which faults to inject (test-only; null in production), under
/// which policy, attributed to which gate. Copyable, borrowed pointers.
struct DiagHandle {
  DiagSink* sink = nullptr;
  FaultInjector* faults = nullptr;
  FaultPolicy policy = FaultPolicy::kDegrade;
  DiagContext ctx;

  /// Report with this handle's context filled in. Safe on a null sink.
  void report(DiagCode code, Severity severity, std::string message) const {
    if (sink == nullptr) return;
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.ctx = ctx;
    d.message = std::move(message);
    sink->report(std::move(d));
  }

  bool degrade() const { return policy == FaultPolicy::kDegrade; }

  /// Build the diagnostic for a throw site (context attached).
  Diagnostic make(DiagCode code, Severity severity, std::string message) const {
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.ctx = ctx;
    d.message = std::move(message);
    return d;
  }
};

/// Guard helper for the NaN/Inf entry-point checks of util/pwl.cpp and
/// util/table.cpp: throws DiagError(kNonFiniteValue) when `value` is not
/// finite. `what` names the rejected quantity.
void require_finite(double value, const char* what);

}  // namespace xtalk::util
