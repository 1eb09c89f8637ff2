// SDF (Standard Delay Format, IEEE 1497) writer.
//
// Emits per-instance IOPATH delays (from the characterized NLDM tables at
// each instance's actual extracted load) and per-connection INTERCONNECT
// delays (tree Elmore), i.e. the standard "SDF from .lib + SPEF" flow that
// downstream gate-level simulators consume. Rise/fall values are written
// as (min:typ:max) triples with min = typ = max (single corner per file;
// for another corner, pass the library ScenarioContext::make characterizes
// for that scenario with need_nldm set).
#pragma once

#include <string>

#include "delaycalc/nldm.hpp"
#include "sta/engine.hpp"

namespace xtalk::sta {

struct SdfOptions {
  std::string design_name = "xtalk_sta_design";
  /// Input slew assumed for the table lookups [s].
  double nominal_slew = 0.2e-9;
  /// Timescale of the values written (1ns per SDF convention here).
  double time_unit = 1e-9;
};

/// Serialize instance and interconnect delays as SDF text.
std::string write_sdf(const DesignView& design,
                      const delaycalc::NldmLibrary& nldm,
                      const SdfOptions& options = {});

}  // namespace xtalk::sta
