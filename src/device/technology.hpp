// Process technology description.
//
// The paper's experiments use a 0.5 um process with two metal layers,
// VDD-era supply, a transistor threshold of 0.6 V and a *model* threshold of
// 0.2 V for the coupling model ("a Vth that has no impact on the delay
// calculation has to be chosen. In our case the chosen value is 0.2 Volts
// while having a transistor threshold voltage of 0.6 Volts").
//
// All values are in SI units.
#pragma once

#include <cstddef>

namespace xtalk::device {

/// Process corners for multi-corner analysis: transistor drive (beta) and
/// threshold shift; wires are unchanged. Applied by Technology::scaled.
enum class ProcessCorner { kSlow, kTypical, kFast };

inline const char* corner_name(ProcessCorner c) {
  switch (c) {
    case ProcessCorner::kSlow: return "slow";
    case ProcessCorner::kTypical: return "typical";
    case ProcessCorner::kFast: return "fast";
  }
  return "?";
}

/// Immutable set of process parameters. `half_micron()` is the default
/// technology used by all experiments; tests also build scaled variants.
struct Technology {
  // --- Supply and thresholds -------------------------------------------
  double vdd = 3.3;          ///< supply voltage [V]
  double vth_n = 0.6;        ///< NMOS threshold [V]
  double vth_p = 0.6;        ///< PMOS threshold magnitude [V]
  double model_vth = 0.2;    ///< coupling-model threshold [V] (paper §2)
  double temperature_c = 25.0;  ///< junction temperature [Celsius]

  // --- Sakurai-Newton alpha-power-law parameters ------------------------
  double alpha = 1.3;        ///< velocity-saturation index
  double beta_n = 82.5;      ///< NMOS drive [A / (m * V^alpha)] per um width -> per m
  double beta_p = 38.5;      ///< PMOS drive [A / (m * V^alpha)]
  double vd0_n = 1.0;        ///< NMOS saturation drain voltage at full overdrive [V]
  double vd0_p = 1.2;        ///< PMOS saturation drain voltage at full overdrive [V]
  double lambda = 0.05;      ///< channel length modulation [1/V]
  double subthreshold_s = 0.05;  ///< softplus smoothing of the overdrive [V]

  // --- Device geometry / capacitance ------------------------------------
  double l_min = 0.5e-6;         ///< drawn channel length [m]
  double cox_area = 2.5e-3;      ///< gate oxide cap [F/m^2]  (2.5 fF/um^2)
  double c_overlap = 0.3e-9;     ///< gate-S/D overlap cap [F/m of width] (0.3 fF/um)
  double c_junction = 1.0e-9;    ///< drain/source junction cap [F/m of width] (1 fF/um)
  /// Effective multiplier on receiving gate capacitance in the *timing
  /// model* (the simulator sees the physical caps and the real
  /// input-output coupling): accounts for the Miller amplification of the
  /// overlap/channel charge while the receiver itself switches.
  double miller_gate_factor = 1.3;

  // --- Interconnect (per meter of wire) ---------------------------------
  double wire_r = 0.2e6;         ///< wire resistance [Ohm/m]   (0.2 Ohm/um)
  double wire_c_ground = 0.08e-9;///< wire-to-ground cap [F/m]  (0.08 fF/um)
  double wire_c_couple = 0.05e-9;///< coupling cap at min spacing [F/m] (0.05 fF/um)
  double wire_pitch = 2.0e-6;    ///< routing track pitch [m]
  double coupling_max_tracks = 1;///< couple only to directly adjacent tracks

  // --- Device table sampling --------------------------------------------
  std::size_t table_points = 133;  ///< samples per axis (~25 mV at 3.3 V)

  /// Gate capacitance of a device of width w [F].
  double gate_cap(double width) const {
    return width * l_min * cox_area + 2.0 * width * c_overlap;
  }
  /// Drain (or source) junction capacitance of a device of width w [F].
  double junction_cap(double width) const { return width * c_junction; }

  /// The default 0.5 um / two-metal-layer technology of the paper's
  /// experiments.
  static const Technology& half_micron();

  /// Corner variant of this technology for an analysis scenario. The
  /// process shift comes first: kSlow scales both betas by 0.75 and raises
  /// both thresholds by 60 mV, kFast scales by 1.25 and lowers by 60 mV,
  /// kTypical leaves them. Then the operating point: vdd is scaled by
  /// `vdd_scale`, carrier mobility (beta) follows the standard T^-1.5
  /// lattice-scattering law and the thresholds drop ~2 mV/K with rising
  /// temperature. Geometry, interconnect and the alpha-power shape
  /// parameters are corner independent and are left untouched, so one
  /// extraction serves all corners. scaled(kTypical, 1.0, temperature_c)
  /// with the current temperature returns a bitwise-identical copy — MCMM's
  /// "nominal scenario equals the base run" contract relies on that.
  Technology scaled(ProcessCorner process, double vdd_scale,
                    double new_temperature_c) const;
};

}  // namespace xtalk::device
