// Uniform-grid interpolation tables.
//
// The delay calculator follows the paper (§3, after TETA): transistor DC
// behaviour is sampled into tables once per technology and looked up with
// bilinear interpolation during waveform integration. The fine
// discretisation keeps Newton iteration well behaved ("Due to the fine
// discretization of the tables we do not get convergence problems").
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/diag.hpp"

namespace xtalk::util {

/// 1-D table on a uniform grid with linear interpolation and clamped
/// extrapolation.
class Table1D {
 public:
  Table1D() = default;
  /// Sample f on [x0, x1] with n points (n >= 2).
  Table1D(double x0, double x1, std::size_t n,
          const std::function<double(double)>& f);

  double lookup(double x) const;
  /// Derivative of the interpolant (piecewise constant).
  double derivative(double x) const;

  double x0() const { return x0_; }
  double x1() const { return x1_; }
  std::size_t size() const { return values_.size(); }

 private:
  double x0_ = 0.0;
  double x1_ = 1.0;
  double inv_dx_ = 1.0;
  std::vector<double> values_;
};

/// Value and partial derivatives of a 2-D table's bilinear interpolant at
/// one point.
struct TableGrad {
  double value = 0.0;
  double d_dx = 0.0;
  double d_dy = 0.0;
};

/// 2-D table on a uniform grid with bilinear interpolation and clamped
/// extrapolation. Axis order: lookup(x, y) with x the slow axis.
class Table2D {
 public:
  Table2D() = default;
  /// Sample f on [x0,x1] x [y0,y1] with nx * ny points (each >= 2).
  Table2D(double x0, double x1, std::size_t nx, double y0, double y1,
          std::size_t ny, const std::function<double(double, double)>& f);

  double lookup(double x, double y) const;
  /// Value plus both partial derivatives of the bilinear interpolant from
  /// one cell walk; `value` is bitwise `lookup(x, y)`. Inline: it is the
  /// Newton step's kernel, and callers that use only some outputs (the
  /// waveform integrator) let the compiler drop the rest.
  TableGrad eval_grad(double x, double y) const;

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

 private:
  double at(std::size_t i, std::size_t j) const { return values_[i * ny_ + j]; }
  /// Clamp x into the grid and return (index, fraction).
  void locate_x(double x, std::size_t& i, double& fx) const {
    const double u =
        std::clamp((x - x0_) * inv_dx_, 0.0, static_cast<double>(nx_ - 1));
    i = static_cast<std::size_t>(std::min(u, static_cast<double>(nx_ - 2)));
    fx = u - static_cast<double>(i);
  }
  void locate_y(double y, std::size_t& j, double& fy) const {
    const double u =
        std::clamp((y - y0_) * inv_dy_, 0.0, static_cast<double>(ny_ - 1));
    j = static_cast<std::size_t>(std::min(u, static_cast<double>(ny_ - 2)));
    fy = u - static_cast<double>(j);
  }

  double x0_ = 0.0, x1_ = 1.0, y0_ = 0.0, y1_ = 1.0;
  double inv_dx_ = 1.0, inv_dy_ = 1.0;
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<double> values_;
};

inline TableGrad Table2D::eval_grad(double x, double y) const {
  assert(nx_ >= 2 && ny_ >= 2);
  if (!(std::isfinite(x) && std::isfinite(y))) {
    require_finite(x, "Table2D::eval_grad x");
    require_finite(y, "Table2D::eval_grad y");
  }
  std::size_t i, j;
  double fx, fy;
  locate_x(x, i, fx);
  locate_y(y, j, fy);
  const double v00 = at(i, j), v01 = at(i, j + 1);
  const double v10 = at(i + 1, j), v11 = at(i + 1, j + 1);
  // `value` is lookup's expression term for term, so it is bitwise
  // lookup(x, y); the partials are the interpolant's slopes along each axis.
  TableGrad g;
  g.value = (v00 * (1.0 - fy) + v01 * fy) * (1.0 - fx) +
            (v10 * (1.0 - fy) + v11 * fy) * fx;
  g.d_dx = ((v10 - v00) * (1.0 - fy) + (v11 - v01) * fy) * inv_dx_;
  g.d_dy = ((v01 - v00) * (1.0 - fx) + (v11 - v10) * fx) * inv_dy_;
  return g;
}

}  // namespace xtalk::util
