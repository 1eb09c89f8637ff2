#include "util/pwl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/diag.hpp"

namespace xtalk::util {
namespace {

TEST(Pwl, ConstantEvaluatesEverywhere) {
  const Pwl w = Pwl::constant(1.5);
  EXPECT_DOUBLE_EQ(w.value_at(-10.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value_at(42.0), 1.5);
}

TEST(Pwl, RampInterpolatesLinearly) {
  const Pwl w = Pwl::ramp(1.0, 0.0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(2.0), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(3.0), 2.0);
  // Constant extrapolation on both sides.
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(5.0), 2.0);
}

TEST(Pwl, TimeAtValueRising) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(2.0, true), 1.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(4.0, true), 2.0);
  EXPECT_TRUE(std::isinf(w.time_at_value(5.0, true)));
}

TEST(Pwl, TimeAtValueFalling) {
  const Pwl w = Pwl::ramp(0.0, 3.0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(1.0, false), 2.0);
  EXPECT_TRUE(std::isinf(w.time_at_value(-1.0, false)));
}

TEST(Pwl, TimeAtValueStartsBeyond) {
  const Pwl w = Pwl::ramp(0.0, 1.0, 1.0, 2.0);
  // Already above 0.5 at the start.
  EXPECT_TRUE(std::isinf(-w.time_at_value(0.5, true)));
}

TEST(Pwl, AppendMergesCollinearPoints) {
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 2.0);  // collinear, but the first two points never merge
  w.append(3.0, 3.0);  // collinear: replaces (2, 2)
  w.append(4.0, 4.0);  // collinear: replaces (3, 3)
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.value_at(1.7), 1.7);
  EXPECT_DOUBLE_EQ(w.back().t, 4.0);
}

TEST(Pwl, AppendNeverMergesWithOnlyTwoPoints) {
  // The first two points pin the waveform's start (engine code reads
  // front().t as the first-activity bound); a collinear third sample must
  // not collapse them.
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 2.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.points()[1].t, 1.0);
}

TEST(Pwl, AppendPreservesCouplingStepMicroSwing) {
  // Regression: the old absolute 1e-12 merge tolerance erased
  // small-amplitude features riding on a large DC value — exactly the
  // shape of the near-vertical post-V_trig coupling-step segments — which
  // shifted time_at_value crossings. The tolerance must scale with the
  // local segment swing, not the absolute voltage.
  Pwl w;
  w.append(0.0, 0.2);
  w.append(1e-12, 1.0);
  w.append(2e-12, 1.0 + 8e-13);  // micro-step up: real feature, not noise
  w.append(3e-12, 1.0 + 8e-13);  // flat continuation; old code merged this
                                 // into the previous point (|err| <= 1e-12)
  ASSERT_EQ(w.size(), 4u);
  // The 1.0 + 4e-13 crossing lies in the micro-step segment; with the
  // erroneous merge it would shift from 1.5 ps to 2 ps. (Loose tolerance:
  // 1.0 + 4e-13 itself rounds at the 1e-16 granularity of doubles near 1.)
  EXPECT_NEAR(w.time_at_value(1.0 + 4e-13, true), 1.5e-12, 0.05e-12);
}

TEST(Pwl, AppendKeepsCorners) {
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 1.0);
  w.append(3.0, 4.0);
  EXPECT_EQ(w.size(), 4u);
}

TEST(Pwl, ShiftMovesTimeOnly) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0).shifted(2.5);
  EXPECT_DOUBLE_EQ(w.front().t, 2.5);
  EXPECT_DOUBLE_EQ(w.back().t, 3.5);
  EXPECT_DOUBLE_EQ(w.value_at(3.0), 0.5);
}

TEST(Pwl, ClipFromValueStartsExactlyThere) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 2.0, 2.0);
  const Pwl c = w.clipped_from_value(0.5, true);
  EXPECT_DOUBLE_EQ(c.front().t, 0.5);
  EXPECT_DOUBLE_EQ(c.front().v, 0.5);
  EXPECT_DOUBLE_EQ(c.back().v, 2.0);
}

TEST(Pwl, MonotoneDetection) {
  EXPECT_TRUE(Pwl::ramp(0.0, 0.0, 1.0, 1.0).is_monotone(true));
  EXPECT_FALSE(Pwl::ramp(0.0, 0.0, 1.0, 1.0).is_monotone(false));
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 2.0);
  w.append(2.0, 1.0);
  EXPECT_FALSE(w.is_monotone(true));
}

TEST(Pwl, MinMaxValues) {
  Pwl w;
  w.append(0.0, 1.0);
  w.append(1.0, -2.0);
  w.append(2.0, 5.0);
  EXPECT_DOUBLE_EQ(w.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(w.max_value(), 5.0);
}

TEST(Pwl, StepHasRequestedRiseTime) {
  const Pwl w = Pwl::step(1.0, 0.0, 3.3, 0.1);
  EXPECT_DOUBLE_EQ(w.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.1), 3.3);
  EXPECT_NEAR(w.value_at(1.05), 1.65, 1e-12);
}

TEST(Pwl, ValueAtHintBitwiseEqualsSearch) {
  // Irregularly spaced samples of a wiggly waveform.
  std::vector<PwlPoint> pts;
  double t = 0.3;
  for (int k = 0; k < 41; ++k) {
    pts.push_back({t, std::sin(0.7 * k) + 0.01 * k});
    t += 0.05 + 0.11 * ((k * 7) % 5);
  }
  const Pwl w(pts);
  // The binary search the hint replaces, written out independently.
  auto search = [&](double q) {
    if (q <= pts.front().t) return pts.front().v;
    if (q >= pts.back().t) return pts.back().v;
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), q,
        [](double time, const PwlPoint& p) { return time < p.t; });
    const double alpha = (q - (it - 1)->t) / (it->t - (it - 1)->t);
    return (it - 1)->v + alpha * (it->v - (it - 1)->v);
  };
  std::size_t hint = 0;
  auto check = [&](double q) {
    const double got = w.value_at(q, hint);
    EXPECT_EQ(got, w.value_at(q)) << q;
    EXPECT_EQ(got, search(q)) << q;
  };

  // Forward sweep with irregular steps, from before front() to past back().
  for (double q = -0.5; q < w.back().t + 0.5;
       q += 0.013 + 0.04 * std::abs(std::sin(q))) {
    check(q);
  }

  // The step-halving rung: advance by h, then jump back by h and re-walk
  // the same interval in h / 2^k sub-steps, with one hint throughout.
  hint = 0;
  const double h = 0.17;
  for (double q = w.front().t; q < w.back().t; q += h) {
    check(q + h);
    for (int k = 1; k <= 3; ++k) {
      const int n_sub = 1 << k;
      for (int s = 1; s <= n_sub; ++s) check(q + h / n_sub * s);
    }
  }

  // Exact breakpoint times, forwards then backwards.
  hint = 0;
  for (const PwlPoint& p : pts) check(p.t);
  for (auto it = pts.rbegin(); it != pts.rend(); ++it) check(it->t);

  // Constant extrapolation at and beyond both ends.
  for (double q :
       {w.front().t, w.front().t - 1.0, w.back().t, w.back().t + 1.0}) {
    check(q);
  }

  // A stale hint at or beyond size() (say, from a longer waveform).
  const double mid = 0.5 * (w.front().t + w.back().t);
  for (std::size_t stale : {w.size(), w.size() + 9,
                            std::numeric_limits<std::size_t>::max()}) {
    hint = stale;
    check(mid);
    EXPECT_LT(hint, w.size());
  }

  // The non-finite guard still fires.
  hint = 3;
  EXPECT_THROW(w.value_at(std::numeric_limits<double>::quiet_NaN(), hint),
               DiagError);
}

TEST(Pwl, RejectsNonFiniteConstructionInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Pwl::constant(nan), DiagError);
  EXPECT_THROW(Pwl::ramp(0.0, 0.0, 1.0, inf), DiagError);
  EXPECT_THROW(Pwl::ramp(nan, 0.0, 1.0, 1.0), DiagError);
  Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0);
  EXPECT_THROW(w.append(2.0, nan), DiagError);
  EXPECT_THROW(w.append(inf, 2.0), DiagError);
  EXPECT_THROW(Pwl({{0.0, 0.0}, {1.0, nan}}), DiagError);
}

TEST(Pwl, RejectsNonFiniteQueryInputs) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.value_at(nan), DiagError);
  EXPECT_THROW(w.time_at_value(nan, true), DiagError);
  EXPECT_THROW(w.shifted(nan), DiagError);
  // The guard carries the non-finite diagnostic code.
  try {
    w.value_at(nan);
    FAIL() << "expected DiagError";
  } catch (const DiagError& err) {
    EXPECT_EQ(err.diagnostic().code, DiagCode::kNonFiniteValue);
  }
}

}  // namespace
}  // namespace xtalk::util
