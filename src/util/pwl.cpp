#include "util/pwl.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/diag.hpp"

namespace xtalk::util {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

// NaN/Inf guards on every constructing entry point: a non-finite waveform
// point would propagate silently through delays (every comparison against
// NaN is false, so merges and crossings just pick wrong branches). Rejecting
// at the boundary turns that into an attributable DiagError.

Pwl::Pwl(std::vector<PwlPoint> points) : points_(std::move(points)) {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    require_finite(points_[i].t, "Pwl point time");
    require_finite(points_[i].v, "Pwl point value");
    assert(i == 0 ||
           (points_[i].t > points_[i - 1].t && "PWL times must increase"));
  }
}

Pwl Pwl::constant(double value) {
  require_finite(value, "Pwl::constant value");
  Pwl w;
  w.points_.push_back({0.0, value});
  return w;
}

Pwl Pwl::ramp(double t0, double v0, double t1, double v1) {
  require_finite(t0, "Pwl::ramp t0");
  require_finite(v0, "Pwl::ramp v0");
  require_finite(t1, "Pwl::ramp t1");
  require_finite(v1, "Pwl::ramp v1");
  assert(t1 > t0);
  Pwl w;
  w.points_.push_back({t0, v0});
  w.points_.push_back({t1, v1});
  return w;
}

Pwl Pwl::step(double t, double v0, double v1, double rise) {
  assert(rise > 0.0);
  return ramp(t, v0, t + rise, v1);
}

void Pwl::append(double t, double v) {
  if (!(std::isfinite(t) && std::isfinite(v))) {
    require_finite(t, "Pwl::append time");
    require_finite(v, "Pwl::append value");
  }
  if (!points_.empty()) {
    assert(t > points_.back().t && "PWL times must increase");
    // Merge collinear middle points: if the previous two points and the new
    // one lie on one line, drop the middle one. The tolerance is relative
    // to the local voltage swing, not an absolute epsilon: an absolute
    // threshold merges away small-but-real features (the near-vertical
    // post-V_trig coupling-step segments ride on a large DC value with a
    // swing near the old 1e-12 cutoff) and shifts time_at_value crossings.
    // The first two points fix the waveform's start and are never merged.
    if (points_.size() >= 3) {
      const PwlPoint& a = points_[points_.size() - 2];
      const PwlPoint& b = points_.back();
      const double slope_ab = (b.v - a.v) / (b.t - a.t);
      const double predicted = b.v + slope_ab * (t - b.t);
      const double swing = std::abs(b.v - a.v) + std::abs(v - b.v);
      if (std::abs(predicted - v) <= 1e-9 * swing) {
        points_.back() = {t, v};
        return;
      }
    }
  }
  points_.push_back({t, v});
}

double Pwl::value_at(double t) const {
  std::size_t hint = 0;
  return value_at(t, hint);
}

double Pwl::value_at(double t, std::size_t& hint) const {
  assert(!points_.empty());
  if (!std::isfinite(t)) require_finite(t, "Pwl::value_at time");
  if (t <= points_.front().t) return points_.front().v;
  if (t >= points_.back().t) return points_.back().v;
  // Here front().t < t < back().t. Both routes end with `k` the first
  // sample later than t (times strictly increase), so the segment and the
  // alpha below do not depend on the hint: the result is bitwise the same.
  std::size_t k = hint;
  if (k == 0 || k >= points_.size() || points_[k - 1].t > t) {
    k = static_cast<std::size_t>(
        std::upper_bound(
            points_.begin(), points_.end(), t,
            [](double time, const PwlPoint& p) { return time < p.t; }) -
        points_.begin());
  } else {
    while (points_[k].t <= t) ++k;  // stops by back().t > t
  }
  hint = k;
  const PwlPoint& hi = points_[k];
  const PwlPoint& lo = points_[k - 1];
  const double alpha = (t - lo.t) / (hi.t - lo.t);
  return lo.v + alpha * (hi.v - lo.v);
}

double Pwl::time_at_value(double v, bool rising) const {
  assert(!points_.empty());
  if (!std::isfinite(v)) require_finite(v, "Pwl::time_at_value value");
  const double sign = rising ? 1.0 : -1.0;
  if (sign * (points_.front().v - v) >= 0.0) return -kInf;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const PwlPoint& lo = points_[i - 1];
    const PwlPoint& hi = points_[i];
    if (sign * (hi.v - v) >= 0.0) {
      const double dv = hi.v - lo.v;
      if (std::abs(dv) < 1e-300) return hi.t;
      const double alpha = (v - lo.v) / dv;
      return lo.t + alpha * (hi.t - lo.t);
    }
  }
  return kInf;
}

bool Pwl::is_monotone(bool rising, double tol) const {
  const double sign = rising ? 1.0 : -1.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (sign * (points_[i].v - points_[i - 1].v) < -tol) return false;
  }
  return true;
}

Pwl Pwl::shifted(double dt) const {
  if (!std::isfinite(dt)) require_finite(dt, "Pwl::shifted offset");
  Pwl w;
  w.points_.reserve(points_.size());
  for (const PwlPoint& p : points_) w.points_.push_back({p.t + dt, p.v});
  return w;
}

Pwl Pwl::clipped_from_value(double v, bool rising) const {
  const double t_cross = time_at_value(v, rising);
  Pwl w;
  if (t_cross == kInf) {
    // Never reaches v: degenerate constant at the final value.
    w.points_.push_back({points_.back().t, points_.back().v});
    return w;
  }
  if (t_cross == -kInf) return *this;  // already starts past v
  w.points_.push_back({t_cross, v});
  for (const PwlPoint& p : points_) {
    if (p.t > t_cross) w.append(p.t, p.v);
  }
  return w;
}

double Pwl::min_value() const {
  double m = kInf;
  for (const PwlPoint& p : points_) m = std::min(m, p.v);
  return m;
}

double Pwl::max_value() const {
  double m = -kInf;
  for (const PwlPoint& p : points_) m = std::max(m, p.v);
  return m;
}

std::string Pwl::to_string() const {
  std::ostringstream os;
  os << "pwl[";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i) os << ", ";
    os << "(" << points_[i].t << ", " << points_[i].v << ")";
  }
  os << "]";
  return os.str();
}

}  // namespace xtalk::util
