#include "util/diag.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

namespace xtalk::util {

const char* diag_code_name(DiagCode code) {
  switch (code) {
    case DiagCode::kNewtonNonConvergence: return "newton-non-convergence";
    case DiagCode::kNonFiniteValue: return "non-finite-value";
    case DiagCode::kNonFiniteTableEntry: return "non-finite-table-entry";
    case DiagCode::kDampedRetry: return "damped-retry";
    case DiagCode::kStepHalving: return "step-halving";
    case DiagCode::kBisectionFallback: return "bisection-fallback";
    case DiagCode::kBoundSubstituted: return "bound-substituted";
    case DiagCode::kGateDegraded: return "gate-degraded";
    case DiagCode::kIntegrationStall: return "integration-stall";
    case DiagCode::kThresholdNotCrossed: return "threshold-not-crossed";
    case DiagCode::kDcNonConvergence: return "dc-non-convergence";
    case DiagCode::kTransientStepLimit: return "transient-step-limit";
    case DiagCode::kTransientHold: return "transient-hold";
    case DiagCode::kSingularMatrix: return "singular-matrix";
    case DiagCode::kInjectedFault: return "injected-fault";
    case DiagCode::kBudgetExhausted: return "budget-exhausted";
    case DiagCode::kParseError: return "parse-error";
    case DiagCode::kInputLimit: return "input-limit";
    case DiagCode::kFileError: return "file-error";
    case DiagCode::kTableRange: return "table-range";
  }
  return "unknown";
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

const char* fault_policy_name(FaultPolicy policy) {
  switch (policy) {
    case FaultPolicy::kStrict: return "strict";
    case FaultPolicy::kDegrade: return "degrade";
  }
  return "unknown";
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream out;
  out << '[' << severity_name(d.severity) << ' ' << diag_code_name(d.code)
      << ']';
  if (d.ctx.gate >= 0) out << " gate " << d.ctx.gate;
  if (d.ctx.net >= 0) out << " net " << d.ctx.net;
  if (d.ctx.level >= 0) out << " level " << d.ctx.level;
  if (d.ctx.pass >= 0) out << " pass " << d.ctx.pass;
  if (!d.ctx.file.empty()) out << ' ' << d.ctx.file;
  if (d.ctx.line >= 0) out << " line " << d.ctx.line;
  if (!d.message.empty()) out << ": " << d.message;
  return out.str();
}

bool diagnostic_order(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.ctx.pass, a.ctx.level, a.ctx.gate, a.ctx.net, a.ctx.file,
                  a.ctx.line, a.code, a.severity, a.message) <
         std::tie(b.ctx.pass, b.ctx.level, b.ctx.gate, b.ctx.net, b.ctx.file,
                  b.ctx.line, b.code, b.severity, b.message);
}

namespace {
/// Reports made by the calling thread, over every sink (thread_reports()).
thread_local std::uint64_t t_thread_reports = 0;
}  // namespace

std::uint64_t DiagSink::thread_reports() { return t_thread_reports; }

bool DiagSink::report(Diagnostic d) {
  ++t_thread_reports;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  entries_.push_back(std::move(d));
  return true;
}

std::size_t DiagSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t DiagSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<Diagnostic> DiagSink::slice(std::size_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (from >= entries_.size()) return {};
  return std::vector<Diagnostic>(entries_.begin() + static_cast<long>(from),
                                 entries_.end());
}

void DiagSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  dropped_ = 0;
}

std::size_t DiagReport::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [&](const Diagnostic& d) { return d.severity == severity; }));
}

std::size_t DiagReport::count(DiagCode code) const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

Diagnostic ParseDiag::make(DiagCode code, Severity severity,
                           std::int64_t line, std::string message) const {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.ctx.file = file_;
  d.ctx.line = line;
  d.message = std::move(message);
  return d;
}

bool ParseDiag::error(std::int64_t line, std::string message) {
  Diagnostic d =
      make(DiagCode::kParseError, Severity::kError, line, std::move(message));
  if (errors_ == 0) first_ = d;
  ++errors_;
  if (sink_ != nullptr) sink_->report(std::move(d));
  return errors_ < limits_.max_errors;
}

void ParseDiag::fatal(DiagCode code, std::int64_t line, std::string message) {
  Diagnostic d = make(code, Severity::kError, line, std::move(message));
  if (sink_ != nullptr) sink_->report(d);
  throw DiagError(std::move(d));
}

void ParseDiag::finish() const {
  if (errors_ == 0) return;
  Diagnostic d = first_;
  if (errors_ > 1) {
    d.message += " (+" + std::to_string(errors_ - 1) + " more " +
                 (errors_ == 2 ? "error" : "errors") + ")";
  }
  throw DiagError(std::move(d));
}

void require_finite(double value, const char* what) {
  if (std::isfinite(value)) return;
  Diagnostic d;
  d.code = DiagCode::kNonFiniteValue;
  d.severity = Severity::kError;
  d.message = std::string(what) + " is not finite";
  throw DiagError(std::move(d));
}

}  // namespace xtalk::util
