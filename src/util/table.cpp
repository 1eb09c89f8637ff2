#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "util/diag.hpp"

namespace xtalk::util {

namespace {

// A NaN/Inf table sample is a latent time bomb: std::clamp(NaN, ...) is
// NaN, and casting that to an index is undefined behaviour inside the
// hottest loop of the engine. Reject at construction (kNonFiniteTableEntry)
// and at every query entry point (require_finite) instead.
void require_finite_samples(const std::vector<double>& values,
                            const char* what) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isfinite(values[i])) continue;
    Diagnostic d;
    d.code = DiagCode::kNonFiniteTableEntry;
    d.severity = Severity::kError;
    d.message = std::string(what) + " sample " + std::to_string(i) +
                " is not finite";
    throw DiagError(std::move(d));
  }
}

}  // namespace

Table1D::Table1D(double x0, double x1, std::size_t n,
                 const std::function<double(double)>& f)
    : x0_(x0), x1_(x1) {
  assert(n >= 2 && x1 > x0);
  values_.resize(n);
  const double dx = (x1 - x0) / static_cast<double>(n - 1);
  inv_dx_ = 1.0 / dx;
  for (std::size_t i = 0; i < n; ++i) {
    values_[i] = f(x0 + dx * static_cast<double>(i));
  }
  require_finite_samples(values_, "Table1D");
}

double Table1D::lookup(double x) const {
  assert(!values_.empty());
  if (!std::isfinite(x)) require_finite(x, "Table1D::lookup x");
  const double u = std::clamp((x - x0_) * inv_dx_, 0.0,
                              static_cast<double>(values_.size() - 1));
  const auto i = static_cast<std::size_t>(
      std::min(u, static_cast<double>(values_.size() - 2)));
  const double fx = u - static_cast<double>(i);
  return values_[i] * (1.0 - fx) + values_[i + 1] * fx;
}

double Table1D::derivative(double x) const {
  assert(values_.size() >= 2);
  if (!std::isfinite(x)) require_finite(x, "Table1D::derivative x");
  const double u = std::clamp((x - x0_) * inv_dx_, 0.0,
                              static_cast<double>(values_.size() - 1));
  const auto i = static_cast<std::size_t>(
      std::min(u, static_cast<double>(values_.size() - 2)));
  return (values_[i + 1] - values_[i]) * inv_dx_;
}

Table2D::Table2D(double x0, double x1, std::size_t nx, double y0, double y1,
                 std::size_t ny, const std::function<double(double, double)>& f)
    : x0_(x0), x1_(x1), y0_(y0), y1_(y1), nx_(nx), ny_(ny) {
  assert(nx >= 2 && ny >= 2 && x1 > x0 && y1 > y0);
  values_.resize(nx * ny);
  const double dx = (x1 - x0) / static_cast<double>(nx - 1);
  const double dy = (y1 - y0) / static_cast<double>(ny - 1);
  inv_dx_ = 1.0 / dx;
  inv_dy_ = 1.0 / dy;
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      values_[i * ny + j] =
          f(x0 + dx * static_cast<double>(i), y0 + dy * static_cast<double>(j));
    }
  }
  require_finite_samples(values_, "Table2D");
}

double Table2D::lookup(double x, double y) const {
  assert(nx_ >= 2 && ny_ >= 2);
  if (!(std::isfinite(x) && std::isfinite(y))) {
    require_finite(x, "Table2D::lookup x");
    require_finite(y, "Table2D::lookup y");
  }
  std::size_t i, j;
  double fx, fy;
  locate_x(x, i, fx);
  locate_y(y, j, fy);
  const double v00 = at(i, j), v01 = at(i, j + 1);
  const double v10 = at(i + 1, j), v11 = at(i + 1, j + 1);
  const double a = v00 * (1.0 - fy) + v01 * fy;
  const double b = v10 * (1.0 - fy) + v11 * fy;
  return a * (1.0 - fx) + b * fx;
}

}  // namespace xtalk::util
