// Piecewise-linear waveforms.
//
// The STA engine propagates one worst-case waveform per net and transition
// direction (paper §4). Waveforms produced by the delay calculator are
// monotone (the coupling model discards the pre-drop glitch exactly so that
// propagated waveforms stay monotone, paper §2), which lets crossing-time
// queries use binary search.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xtalk::util {

/// One (time, value) sample of a piecewise-linear function.
struct PwlPoint {
  double t = 0.0;
  double v = 0.0;
};

/// A piecewise-linear function of time. Constant extrapolation outside the
/// sampled range. Time points are strictly increasing.
class Pwl {
 public:
  Pwl() = default;
  explicit Pwl(std::vector<PwlPoint> points);

  /// A constant function.
  static Pwl constant(double value);
  /// A saturated ramp: value v0 until t0, linear to v1 at t1, then constant.
  static Pwl ramp(double t0, double v0, double t1, double v1);
  /// A one-segment step approximated by a ramp of width `rise`.
  static Pwl step(double t, double v0, double v1, double rise);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<PwlPoint>& points() const { return points_; }
  const PwlPoint& front() const { return points_.front(); }
  const PwlPoint& back() const { return points_.back(); }

  /// Reserve room for n samples (values are unaffected).
  void reserve(std::size_t n) { points_.reserve(n); }

  /// Append a sample; t must be strictly greater than the last time.
  /// Collinear middle points are merged to keep waveforms compact.
  void append(double t, double v);

  /// Value at time t (constant extrapolation).
  double value_at(double t) const;
  /// The same value, for a caller whose queries mostly move forward in
  /// time: `hint` keeps the segment found by the previous call and the
  /// search walks forward from it; a query before that segment (or a stale
  /// hint) falls back to binary search. The hint never changes the result.
  /// Start with hint = 0.
  double value_at(double t, std::size_t& hint) const;

  /// Earliest time at which the function reaches `v`, for a function that is
  /// monotone in the direction implied by rising. Returns negative infinity
  /// if the waveform starts beyond `v`, positive infinity if it never
  /// reaches it.
  double time_at_value(double v, bool rising) const;

  /// True if the samples are non-decreasing (rising) within `tol`.
  bool is_monotone(bool rising, double tol = 1e-12) const;

  /// Shift the whole waveform in time.
  Pwl shifted(double dt) const;

  /// Clip to the sub-waveform starting at the first crossing of `v`
  /// (direction `rising`); the result's first point is exactly (t_cross, v).
  /// Used to implement the paper's "waveforms start with the value of Vth".
  Pwl clipped_from_value(double v, bool rising) const;

  /// Minimum / maximum sampled value.
  double min_value() const;
  double max_value() const;

  /// Human-readable dump (for logs and debugging).
  std::string to_string() const;

 private:
  std::vector<PwlPoint> points_;
};

}  // namespace xtalk::util
