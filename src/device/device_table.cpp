#include "device/device_table.hpp"

#include <algorithm>

namespace xtalk::device {

namespace {

constexpr std::size_t kMaxStack = 6;

/// Top-terminal voltage of an n-deep equal-width stack carrying current i
/// (unit width, all gates at vdd, bottom at ground). Monotone increasing
/// in i; returns > vdd if the stack cannot carry i.
double stack_top_voltage(const Technology& tech, MosType type, std::size_t n,
                         double i) {
  double v = 0.0;  // source potential of the current device
  for (std::size_t d = 0; d < n; ++d) {
    const double vgs = tech.vdd - v;
    // Find vds with unit_current(vgs, vds) == i by bisection.
    double lo = 0.0, hi = tech.vdd;
    if (unit_current(tech, type, vgs, hi) < i) return 2.0 * tech.vdd;
    for (int it = 0; it < 50; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (unit_current(tech, type, vgs, mid) < i) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    v += 0.5 * (lo + hi);
  }
  return v;
}

/// I_stack(n) / I_single with the stack's top terminal at vdd/2.
double compute_stack_factor(const Technology& tech, MosType type,
                            std::size_t n) {
  const double i_single = unit_current(tech, type, tech.vdd, tech.vdd / 2.0);
  double lo = 0.0, hi = i_single;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (stack_top_voltage(tech, type, n, mid) < tech.vdd / 2.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi) / i_single;
}

}  // namespace

DeviceTable::DeviceTable(const Technology& tech, MosType type) : type_(type) {
  // Sample a bit beyond the rails so that small numerical overshoot during
  // transient integration still lands inside the grid (clamped outside).
  const double vmax = 1.25 * tech.vdd;
  vmax_ = vmax;
  const std::size_t n = tech.table_points;
  table_ = util::Table2D(0.0, vmax, n, 0.0, vmax, n,
                         [&tech, type](double vgs, double vds) {
                           return unit_current(tech, type, vgs, vds);
                         });
  stack_factors_.reserve(kMaxStack);
  for (std::size_t k = 1; k <= kMaxStack; ++k) {
    stack_factors_.push_back(compute_stack_factor(tech, type, k));
  }
}

double DeviceTable::stack_factor(std::size_t n) const {
  if (n == 0) return 1.0;
  return stack_factors_[std::min(n, stack_factors_.size()) - 1];
}

double DeviceTable::channel_current(double width, double vg, double va,
                                    double vb) const {
  if (type_ == MosType::kNmos) {
    if (va >= vb) return width * table_.lookup(vg - vb, va - vb);
    return -width * table_.lookup(vg - va, vb - va);
  }
  // PMOS: the higher-potential terminal is the source; conducts when the
  // gate is below the source.
  if (va >= vb) return width * table_.lookup(va - vg, va - vb);
  return -width * table_.lookup(vb - vg, vb - va);
}

const DeviceTableSet& DeviceTableSet::half_micron() {
  static const DeviceTableSet set(Technology::half_micron());
  return set;
}

}  // namespace xtalk::device
