// Analysis scenarios and their per-corner context for multi-corner/
// multi-scenario (MCMM) runs. A scenario's corner is a process corner plus
// a V/T operating point; it derives the device model
// (device::Technology::scaled + a fresh DeviceTableSet) and, for kNldm
// runs, re-characterizes the NLDM library against those tables — exactly
// what a standalone run at that corner would build. Scenarios whose
// (process, vdd_scale, temperature_c) match share one context (CornerKey),
// so an MCMM invocation pays each corner's table/characterization cost
// once.
//
// The identity corner (typical process, vdd_scale == 1.0 and the base
// technology's own temperature) borrows the base DesignView's tables and
// library untouched, which keeps the nominal scenario bitwise identical to
// a plain run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "device/technology.hpp"
#include "sta/engine.hpp"

namespace xtalk::sta {

/// One operating scenario of a multi-corner/multi-scenario (MCMM) run: a
/// process corner and V/T operating point of the alpha-power device model
/// plus a per-scenario coupling treatment. Scenarios on one corner share
/// one device-table build (and one NLDM characterization) — see CornerKey
/// and run_mcmm (sta/mcmm.hpp).
struct Scenario {
  std::string name = "nominal";
  /// Supply scale vs. the base technology (1.0 = nominal), applied via
  /// device::Technology::scaled().
  double vdd_scale = 1.0;
  /// Junction temperature [Celsius] (mobility ~T^-1.5, Vth -2 mV/K).
  double temperature_c = 25.0;
  /// When set, this scenario runs `mode` instead of StaOptions::mode
  /// (e.g. a signoff corner in kIterative while exploration corners run
  /// kOneStep).
  bool override_mode = false;
  AnalysisMode mode = AnalysisMode::kOneStep;
  /// Multiplier on every coupling cap the analysis sees (classification,
  /// load splits, early-activity assist). 1.0 = the physical extraction;
  /// > 1 adds per-scenario pessimism. Replaces (not multiplies) the base
  /// StaOptions::coupling_derate under apply_scenario.
  double coupling_derate = 1.0;
  /// Process corner (transistor drive and threshold shift), applied before
  /// the V/T operating point by device::Technology::scaled().
  device::ProcessCorner process = device::ProcessCorner::kTypical;
};

/// Bitwise corner identity of a Scenario: two scenarios share device
/// tables (and NLDM characterization) iff their keys compare equal. Bit
/// representation, not value comparison — -0.0 and 0.0 are different
/// corners only in the pathological sense, and NaNs never validate.
struct CornerKey {
  device::ProcessCorner process = device::ProcessCorner::kTypical;
  std::uint64_t vdd_scale_bits = 0;
  std::uint64_t temperature_bits = 0;
  auto operator<=>(const CornerKey&) const = default;
};

CornerKey corner_key(const Scenario& s);

/// The per-corner state of one MCMM scenario: scaled technology, regridded
/// device tables, and (for kNldm) a matching characterized library.
/// Immutable once built; shared across the scenarios of a corner via
/// shared_ptr (and across service requests by the session's corner cache).
class ScenarioContext {
 public:
  /// Build (or borrow) the context for `s` against the base design.
  /// `need_nldm` requests the corner's NLDM characterization (kNldm runs);
  /// transistor-level runs skip it — their degrade fallback keeps the base
  /// behaviour. The corner characterization reuses the base library's grid
  /// options when one is supplied, so coarse test grids stay coarse.
  static std::shared_ptr<const ScenarioContext> make(const DesignView& base,
                                                     const Scenario& s,
                                                     bool need_nldm);

  const device::DeviceTableSet& tables() const { return *tables_; }
  const delaycalc::NldmLibrary* nldm() const { return nldm_; }

  /// True when this context borrows the base design's tables (identity
  /// corner) instead of owning a rebuilt set.
  bool shares_base_tables() const { return owned_tables_ == nullptr; }

  /// The base view with this corner's tables/library swapped in. Netlist,
  /// DAG and parasitics stay shared — only the device model changes.
  DesignView view(const DesignView& base) const;

 private:
  ScenarioContext() = default;

  /// Heap-allocated so DeviceTableSet's borrowed Technology pointer stays
  /// stable for the context's lifetime (null for the identity corner).
  std::unique_ptr<device::Technology> tech_;
  std::unique_ptr<device::DeviceTableSet> owned_tables_;
  const device::DeviceTableSet* tables_ = nullptr;
  std::unique_ptr<delaycalc::NldmLibrary> owned_nldm_;
  const delaycalc::NldmLibrary* nldm_ = nullptr;
};

/// Throws std::invalid_argument on a malformed scenario (empty name,
/// non-finite or non-positive vdd_scale, non-finite temperature, invalid
/// coupling derate). run_mcmm validates its scenario list with it.
void validate_scenario(const Scenario& s);

/// The StaOptions a standalone run of scenario `s` would use: the base
/// options with the scenario's mode override applied and coupling_derate
/// REPLACED by the scenario's (the scenario states its full coupling
/// treatment; derates do not stack). The corner itself lives in the
/// ScenarioContext's view, not in StaOptions.
StaOptions apply_scenario(const StaOptions& base, const Scenario& s);

}  // namespace xtalk::sta
