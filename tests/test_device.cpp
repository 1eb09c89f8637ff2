#include "device/device_table.hpp"
#include "device/mosfet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace xtalk::device {
namespace {

const Technology& tech() { return Technology::half_micron(); }

/// Independent re-implementation of the device table's three-read
/// derivative arithmetic: the unit-current grid is re-sampled exactly as
/// DeviceTable samples it, and the value and each partial locate the cell
/// on their own, term for term as separate value, d/dx and d/dy reads do.
class ThreeReadReference {
 public:
  ThreeReadReference(const Technology& t, MosType type)
      : type_(type), n_(t.table_points) {
    const double vmax = 1.25 * t.vdd;
    const double dx = (vmax - 0.0) / static_cast<double>(n_ - 1);
    inv_d_ = 1.0 / dx;
    values_.resize(n_ * n_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) {
        values_[i * n_ + j] =
            unit_current(t, type, 0.0 + dx * static_cast<double>(i),
                         0.0 + dx * static_cast<double>(j));
      }
    }
  }

  CurrentDerivs derivs(double width, double vg, double va, double vb) const {
    CurrentDerivs d;
    if (type_ == MosType::kNmos) {
      if (va >= vb) {
        const double vgs = vg - vb, vds = va - vb;
        const double fx = d_dx(vgs, vds), fy = d_dy(vgs, vds);
        d.i = width * lookup(vgs, vds);
        d.d_vg = width * fx;
        d.d_va = width * fy;
        d.d_vb = -width * (fx + fy);
      } else {
        const double vgs = vg - va, vds = vb - va;
        const double fx = d_dx(vgs, vds), fy = d_dy(vgs, vds);
        d.i = -width * lookup(vgs, vds);
        d.d_vg = -width * fx;
        d.d_vb = -width * fy;
        d.d_va = width * (fx + fy);
      }
      return d;
    }
    if (va >= vb) {
      const double vsg = va - vg, vsd = va - vb;
      const double fx = d_dx(vsg, vsd), fy = d_dy(vsg, vsd);
      d.i = width * lookup(vsg, vsd);
      d.d_vg = -width * fx;
      d.d_va = width * (fx + fy);
      d.d_vb = -width * fy;
    } else {
      const double vsg = vb - vg, vsd = vb - va;
      const double fx = d_dx(vsg, vsd), fy = d_dy(vsg, vsd);
      d.i = -width * lookup(vsg, vsd);
      d.d_vg = width * fx;
      d.d_vb = -width * (fx + fy);
      d.d_va = width * fy;
    }
    return d;
  }

 private:
  double at(std::size_t i, std::size_t j) const { return values_[i * n_ + j]; }
  void locate(double x, std::size_t& i, double& f) const {
    const double u =
        std::clamp((x - 0.0) * inv_d_, 0.0, static_cast<double>(n_ - 1));
    i = static_cast<std::size_t>(std::min(u, static_cast<double>(n_ - 2)));
    f = u - static_cast<double>(i);
  }
  double lookup(double x, double y) const {
    std::size_t i, j;
    double fx, fy;
    locate(x, i, fx);
    locate(y, j, fy);
    const double v00 = at(i, j), v01 = at(i, j + 1);
    const double v10 = at(i + 1, j), v11 = at(i + 1, j + 1);
    const double a = v00 * (1.0 - fy) + v01 * fy;
    const double b = v10 * (1.0 - fy) + v11 * fy;
    return a * (1.0 - fx) + b * fx;
  }
  double d_dx(double x, double y) const {
    std::size_t i, j;
    double fx, fy;
    locate(x, i, fx);
    locate(y, j, fy);
    const double a = at(i + 1, j) - at(i, j);
    const double b = at(i + 1, j + 1) - at(i, j + 1);
    return (a * (1.0 - fy) + b * fy) * inv_d_;
  }
  double d_dy(double x, double y) const {
    std::size_t i, j;
    double fx, fy;
    locate(x, i, fx);
    locate(y, j, fy);
    const double a = at(i, j + 1) - at(i, j);
    const double b = at(i + 1, j + 1) - at(i + 1, j);
    return (a * (1.0 - fx) + b * fx) * inv_d_;
  }

  MosType type_;
  std::size_t n_;
  double inv_d_ = 1.0;
  std::vector<double> values_;
};

TEST(Mosfet, CutoffBelowThreshold) {
  // Deep subthreshold current is negligible compared to on current.
  const double off = unit_current(tech(), MosType::kNmos, 0.0, 3.3);
  const double on = unit_current(tech(), MosType::kNmos, 3.3, 3.3);
  EXPECT_LT(off, on * 1e-6);
}

TEST(Mosfet, ZeroAtZeroVds) {
  EXPECT_DOUBLE_EQ(unit_current(tech(), MosType::kNmos, 3.3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(unit_current(tech(), MosType::kPmos, 3.3, 0.0), 0.0);
}

TEST(Mosfet, MonotoneInVgs) {
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 3.3; vgs += 0.1) {
    const double i = unit_current(tech(), MosType::kNmos, vgs, 2.0);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(Mosfet, MonotoneInVds) {
  double prev = -1.0;
  for (double vds = 0.0; vds <= 3.3; vds += 0.05) {
    const double i = unit_current(tech(), MosType::kNmos, 3.3, vds);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(Mosfet, SaturationCurrentMatchesCalibration) {
  // beta_n = 82.5 A/(m V^alpha): at full overdrive (2.7 V) and alpha=1.3
  // a 1 um device carries ~300 uA.
  const double i = 1e-6 * unit_current(tech(), MosType::kNmos, 3.3, 3.3);
  EXPECT_NEAR(i, 300e-6, 50e-6);
}

TEST(Mosfet, PmosWeakerThanNmos) {
  const double in = unit_current(tech(), MosType::kNmos, 3.3, 3.3);
  const double ip = unit_current(tech(), MosType::kPmos, 3.3, 3.3);
  EXPECT_LT(ip, in);
  EXPECT_GT(ip, 0.25 * in);
}

TEST(Mosfet, LinearRegionQuadraticShape) {
  // In the linear region, i(vds) = idsat*(2-u)*u with u=vds/vdsat: halfway
  // to vdsat the current is 0.75 * idsat.
  const double vdsat = saturation_voltage(tech(), MosType::kNmos, 3.3);
  const double idsat = unit_current(tech(), MosType::kNmos, 3.3, vdsat);
  const double ihalf = unit_current(tech(), MosType::kNmos, 3.3, vdsat / 2.0);
  EXPECT_NEAR(ihalf / idsat, 0.75, 0.02);
}

TEST(DeviceTable, MatchesAnalyticModel) {
  const DeviceTable& t = DeviceTableSet::half_micron().nmos();
  for (double vgs = 0.2; vgs <= 3.3; vgs += 0.33) {
    for (double vds = 0.1; vds <= 3.3; vds += 0.41) {
      const double exact = unit_current(tech(), MosType::kNmos, vgs, vds);
      const double approx = t.unit_ids(vgs, vds);
      // 1e-5 A/m is 0.01 uA per um of width — far below any on-current.
      EXPECT_NEAR(approx, exact, std::max(1e-5, 0.01 * exact))
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST(DeviceTable, ChannelCurrentAntisymmetricInTerminals) {
  const DeviceTable& t = DeviceTableSet::half_micron().nmos();
  const double w = 2e-6;
  // Swapping the terminals flips the current sign (symmetric channel).
  const double fwd = t.channel_current(w, 3.3, 2.0, 0.5);
  const double rev = t.channel_current(w, 3.3, 0.5, 2.0);
  EXPECT_NEAR(fwd, -rev, 1e-12);
  EXPECT_GT(fwd, 0.0);
}

TEST(DeviceTable, PmosConductsWithLowGate) {
  const DeviceTable& t = DeviceTableSet::half_micron().pmos();
  const double w = 4e-6;
  // Source at 3.3, gate low -> conducts from the high terminal downward.
  EXPECT_GT(t.channel_current(w, 0.0, 3.3, 1.0), 0.0);
  // Gate high -> off.
  EXPECT_LT(t.channel_current(w, 3.3, 3.3, 1.0),
            t.channel_current(w, 0.0, 3.3, 1.0) * 1e-4);
}

TEST(DeviceTable, DerivativesMatchFiniteDifferences) {
  const DeviceTable& t = DeviceTableSet::half_micron().nmos();
  const double w = 2e-6;
  const double vg = 2.1, va = 1.7, vb = 0.3, eps = 1e-4;
  const CurrentDerivs d = t.channel_current_derivs(w, vg, va, vb);
  EXPECT_NEAR(d.i, t.channel_current(w, vg, va, vb), 1e-15);
  const double dg = (t.channel_current(w, vg + eps, va, vb) -
                     t.channel_current(w, vg - eps, va, vb)) /
                    (2.0 * eps);
  const double da = (t.channel_current(w, vg, va + eps, vb) -
                     t.channel_current(w, vg, va - eps, vb)) /
                    (2.0 * eps);
  const double db = (t.channel_current(w, vg, va, vb + eps) -
                     t.channel_current(w, vg, va, vb - eps)) /
                    (2.0 * eps);
  EXPECT_NEAR(d.d_vg, dg, std::abs(dg) * 0.05 + 1e-9);
  EXPECT_NEAR(d.d_va, da, std::abs(da) * 0.05 + 1e-9);
  EXPECT_NEAR(d.d_vb, db, std::abs(db) * 0.05 + 1e-9);
}

TEST(DeviceTable, FusedDerivsBitwiseEqualThreeReadReference) {
  const Technology slow = tech().scaled(ProcessCorner::kSlow, 0.9, 110.0);
  for (const Technology* t : {&tech(), &slow}) {
    for (MosType type : {MosType::kNmos, MosType::kPmos}) {
      const DeviceTable table(*t, type);
      const ThreeReadReference ref(*t, type);
      const double dv = table.vmax() / static_cast<double>(t->table_points - 1);
      // Terminal voltages: exact grid nodes (their differences with 0 land
      // on nodes too), interior points, and values whose differences clamp
      // below 0 and above vmax().
      const std::vector<double> volts = {
          0.0,        dv * 7.0,   dv * 66.0,  table.vmax(),  0.013,
          0.8372,     1.5,        2.2461,     t->vdd,        -0.37,
          -2.0,       table.vmax() + 0.41,    2.0 * table.vmax()};
      int forward = 0, reverse = 0;
      for (double vg : volts) {
        for (double va : volts) {
          for (double vb : volts) {
            for (double w : {1e-6, 3.7e-6}) {
              const CurrentDerivs got =
                  table.channel_current_derivs(w, vg, va, vb);
              const CurrentDerivs want = ref.derivs(w, vg, va, vb);
              EXPECT_EQ(got.i, want.i) << vg << " " << va << " " << vb;
              EXPECT_EQ(got.d_vg, want.d_vg) << vg << " " << va << " " << vb;
              EXPECT_EQ(got.d_va, want.d_va) << vg << " " << va << " " << vb;
              EXPECT_EQ(got.d_vb, want.d_vb) << vg << " " << va << " " << vb;
              ++(va >= vb ? forward : reverse);
            }
          }
        }
      }
      EXPECT_GT(forward, 0);
      EXPECT_GT(reverse, 0);
    }
  }
}

TEST(DeviceTable, StackFactorsDecreaseWithDepth) {
  const DeviceTable& t = DeviceTableSet::half_micron().nmos();
  EXPECT_DOUBLE_EQ(t.stack_factor(1), 1.0);
  double prev = 1.0;
  for (std::size_t n = 2; n <= 4; ++n) {
    const double f = t.stack_factor(n);
    EXPECT_LT(f, prev) << n;
    // The stack is better than the purely resistive 1/n rule (little
    // source degeneration in the saturation-limited regime).
    EXPECT_GT(f, 1.0 / static_cast<double>(n)) << n;
    prev = f;
  }
  // Clamped beyond the precomputed range.
  EXPECT_GT(t.stack_factor(100), 0.0);
}

TEST(DeviceTable, StackFactorMatchesDirectStackSolve) {
  // Verify the n=2 factor against a brute-force nodal solve of two
  // stacked devices carrying equal current with the top at vdd/2.
  const Technology& t = tech();
  const DeviceTable& tab = DeviceTableSet::half_micron().nmos();
  const double i_single = unit_current(t, MosType::kNmos, t.vdd, t.vdd / 2.0);
  // Find v_mid such that I(bottom: vgs=vdd, vds=v_mid) equals
  // I(top: vgs=vdd-v_mid, vds=vdd/2-v_mid), then compare currents.
  double lo = 0.0, hi = t.vdd / 2.0;
  for (int it = 0; it < 60; ++it) {
    const double v = 0.5 * (lo + hi);
    const double ib = unit_current(t, MosType::kNmos, t.vdd, v);
    const double it2 = unit_current(t, MosType::kNmos, t.vdd - v,
                                    t.vdd / 2.0 - v);
    if (ib < it2) {
      lo = v;
    } else {
      hi = v;
    }
  }
  const double v_mid = 0.5 * (lo + hi);
  const double i_stack = unit_current(t, MosType::kNmos, t.vdd, v_mid);
  EXPECT_NEAR(tab.stack_factor(2), i_stack / i_single, 0.02);
}

TEST(Technology, CapacitanceHelpers) {
  const Technology& t = tech();
  // A 2 um x 0.5 um gate: area cap 2.5 fF/um^2 * 1 um^2 = 2.5 fF plus
  // overlap 2 * 2 um * 0.3 fF/um = 1.2 fF.
  EXPECT_NEAR(t.gate_cap(2e-6), 3.7e-15, 1e-16);
  EXPECT_NEAR(t.junction_cap(2e-6), 2e-15, 1e-16);
}

}  // namespace
}  // namespace xtalk::device
