// Tabulated transistor DC behaviour (paper §3, after TETA [Dartu/Pileggi]).
//
// The unit-width drain current is sampled once per technology on a fine
// (vgs, vds) grid; waveform integration and the MNA simulator only ever do
// bilinear reads, one cell walk yielding the current and its derivatives,
// which makes Newton iteration cheap and, thanks to the fine
// discretisation, well conditioned.
//
// Terminal-symmetric evaluation: `channel_current(vg, va, vb)` returns the
// current flowing through the channel from terminal a to terminal b for an
// arbitrary terminal ordering (the MOS channel is symmetric; whichever
// terminal is at the lower potential acts as the source for NMOS, at the
// higher potential for PMOS).
#pragma once

#include <memory>

#include "device/mosfet.hpp"
#include "device/technology.hpp"
#include "util/table.hpp"

namespace xtalk::device {

/// Partial derivatives of the channel current w.r.t. the three terminal
/// voltages, used for Newton stamps.
struct CurrentDerivs {
  double i = 0.0;     ///< current a -> b [A]
  double d_vg = 0.0;  ///< dI/dVg
  double d_va = 0.0;  ///< dI/dVa
  double d_vb = 0.0;  ///< dI/dVb
};

/// DC tables for one device type of one technology, unit width (1 m).
class DeviceTable {
 public:
  DeviceTable(const Technology& tech, MosType type);

  MosType type() const { return type_; }

  /// Unit-width current in native orientation (vgs, vds from the source).
  double unit_ids(double vgs, double vds) const { return table_.lookup(vgs, vds); }

  /// Channel current a -> b for a device of width `width`, handling
  /// source/drain swap for both polarities.
  double channel_current(double width, double vg, double va, double vb) const;

  /// Channel current and its terminal derivatives (for Newton), from one
  /// table walk. Inline so that a caller reading only some fields (the
  /// stage integrator needs i and one terminal partial) skips the rest.
  CurrentDerivs channel_current_derivs(double width, double vg, double va,
                                       double vb) const;

  /// DC series-stack degradation: the current of n equal-width devices in
  /// series (all gates at VDD, top terminal at VDD/2) relative to a single
  /// device, i.e. I_stack(n) = stack_factor(n) * I_single. Used by the
  /// equivalent-inverter collapse: a chain of n devices of width W behaves
  /// like one device of width W * stack_factor(n), which is much closer to
  /// transistor-level simulation than the resistive W/n rule because the
  /// saturation-limited phase sees little source degeneration.
  /// stack_factor(1) == 1; n is clamped to the precomputed range.
  double stack_factor(std::size_t n) const;

  /// Upper edge of the sampled (vgs, vds) grid (~1.25 * vdd of the
  /// technology the table was built for). Lookups beyond it silently
  /// clamp — the engine warns (kTableRange) when an analysis supply
  /// exceeds this.
  double vmax() const { return vmax_; }

 private:
  MosType type_;
  double vmax_ = 0.0;
  util::Table2D table_;  ///< ids(vgs, vds), vgs/vds in [0, ~1.25*vdd]
  std::vector<double> stack_factors_;  ///< index n-1, n = 1..kMaxStack
};

inline CurrentDerivs DeviceTable::channel_current_derivs(double width,
                                                         double vg, double va,
                                                         double vb) const {
  CurrentDerivs d;
  if (type_ == MosType::kNmos) {
    if (va >= vb) {
      const util::TableGrad g = table_.eval_grad(vg - vb, va - vb);
      d.i = width * g.value;
      d.d_vg = width * g.d_dx;
      d.d_va = width * g.d_dy;
      d.d_vb = -width * (g.d_dx + g.d_dy);
    } else {
      const util::TableGrad g = table_.eval_grad(vg - va, vb - va);
      d.i = -width * g.value;
      d.d_vg = -width * g.d_dx;
      d.d_vb = -width * g.d_dy;
      d.d_va = width * (g.d_dx + g.d_dy);
    }
    return d;
  }
  if (va >= vb) {
    const util::TableGrad g = table_.eval_grad(va - vg, va - vb);
    d.i = width * g.value;
    d.d_vg = -width * g.d_dx;
    d.d_va = width * (g.d_dx + g.d_dy);
    d.d_vb = -width * g.d_dy;
  } else {
    const util::TableGrad g = table_.eval_grad(vb - vg, vb - va);
    d.i = -width * g.value;
    d.d_vg = width * g.d_dx;
    d.d_vb = -width * (g.d_dx + g.d_dy);
    d.d_va = width * g.d_dy;
  }
  return d;
}

/// The pair of tables (NMOS + PMOS) for one technology. Build once, share.
class DeviceTableSet {
 public:
  explicit DeviceTableSet(const Technology& tech)
      : tech_(&tech),
        nmos_(tech, MosType::kNmos),
        pmos_(tech, MosType::kPmos) {}

  const Technology& tech() const { return *tech_; }
  const DeviceTable& nmos() const { return nmos_; }
  const DeviceTable& pmos() const { return pmos_; }
  const DeviceTable& table(MosType t) const {
    return t == MosType::kNmos ? nmos_ : pmos_;
  }

  /// Shared table set for the default technology (built on first use).
  static const DeviceTableSet& half_micron();

 private:
  const Technology* tech_;
  DeviceTable nmos_;
  DeviceTable pmos_;
};

}  // namespace xtalk::device
