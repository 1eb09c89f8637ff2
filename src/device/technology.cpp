#include "device/technology.hpp"

#include <cmath>

namespace xtalk::device {

Technology Technology::scaled(ProcessCorner process, double vdd_scale,
                              double new_temperature_c) const {
  Technology t = *this;
  switch (process) {
    case ProcessCorner::kSlow:
      t.beta_n *= 0.75;
      t.beta_p *= 0.75;
      t.vth_n += 0.06;
      t.vth_p += 0.06;
      break;
    case ProcessCorner::kFast:
      t.beta_n *= 1.25;
      t.beta_p *= 1.25;
      t.vth_n -= 0.06;
      t.vth_p -= 0.06;
      break;
    case ProcessCorner::kTypical:
      break;
  }
  // Exact no-op for the identity operating point: multiplying by 1.0 is
  // IEEE-exact, but pow()/division below are not, so skip them entirely.
  if (vdd_scale == 1.0 && new_temperature_c == temperature_c) return t;
  t.vdd = vdd * vdd_scale;
  const double t0_k = temperature_c + 273.15;
  const double t_k = new_temperature_c + 273.15;
  if (t_k != t0_k) {
    // Lattice-scattering mobility: mu(T) ~ T^-1.5. Threshold voltage drops
    // roughly 2 mV/K as temperature rises (both polarities).
    const double mobility = std::pow(t_k / t0_k, -1.5);
    t.beta_n *= mobility;
    t.beta_p *= mobility;
    const double dvth = 2.0e-3 * (t_k - t0_k);
    t.vth_n -= dvth;
    t.vth_p -= dvth;
  }
  t.temperature_c = new_temperature_c;
  return t;
}

const Technology& Technology::half_micron() {
  static const Technology tech{};  // defaults are the 0.5 um values
  return tech;
}

}  // namespace xtalk::device
