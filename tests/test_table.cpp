#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/diag.hpp"

namespace xtalk::util {
namespace {

TEST(Table1D, ReproducesLinearFunctionExactly) {
  const Table1D t(0.0, 10.0, 11, [](double x) { return 3.0 * x + 1.0; });
  for (double x = 0.0; x <= 10.0; x += 0.37) {
    EXPECT_NEAR(t.lookup(x), 3.0 * x + 1.0, 1e-12);
  }
  EXPECT_NEAR(t.derivative(4.2), 3.0, 1e-12);
}

TEST(Table1D, ClampsOutsideRange) {
  const Table1D t(0.0, 1.0, 2, [](double x) { return x; });
  EXPECT_DOUBLE_EQ(t.lookup(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(7.0), 1.0);
}

TEST(Table1D, InterpolatesSmoothFunctionAccurately) {
  const Table1D t(0.0, 3.14159, 400, [](double x) { return std::sin(x); });
  for (double x = 0.1; x < 3.0; x += 0.21) {
    EXPECT_NEAR(t.lookup(x), std::sin(x), 1e-4);
  }
}

TEST(Table2D, ReproducesBilinearFunctionExactly) {
  const Table2D t(0.0, 2.0, 5, 0.0, 4.0, 9,
                  [](double x, double y) { return 2.0 * x - y + x * y; });
  for (double x = 0.0; x <= 2.0; x += 0.19) {
    for (double y = 0.0; y <= 4.0; y += 0.41) {
      EXPECT_NEAR(t.lookup(x, y), 2.0 * x - y + x * y, 1e-10);
    }
  }
}

TEST(Table2D, PartialDerivativesMatchAnalytic) {
  const Table2D t(0.0, 2.0, 5, 0.0, 4.0, 9,
                  [](double x, double y) { return 2.0 * x - y + x * y; });
  // d/dx = 2 + y, d/dy = -1 + x (exact for a bilinear interpolant of a
  // bilinear function, at interior non-grid points).
  const TableGrad g = t.eval_grad(0.7, 1.3);
  EXPECT_NEAR(g.d_dx, 2.0 + 1.3, 1e-9);
  EXPECT_NEAR(g.d_dy, -1.0 + 0.7, 1e-9);
  EXPECT_EQ(g.value, t.lookup(0.7, 1.3));
}

TEST(Table2D, ClampsOutsideGrid) {
  const Table2D t(0.0, 1.0, 3, 0.0, 1.0, 3,
                  [](double x, double y) { return x + y; });
  EXPECT_NEAR(t.lookup(-1.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(t.lookup(2.0, 2.0), 2.0, 1e-12);
}

TEST(Table2D, FineGridInterpolatesSmoothFunction) {
  const Table2D t(0.0, 3.3, 133, 0.0, 3.3, 133, [](double x, double y) {
    return std::sqrt(x + 0.1) * std::log1p(y);
  });
  for (double x = 0.0; x <= 3.3; x += 0.31) {
    for (double y = 0.0; y <= 3.3; y += 0.37) {
      EXPECT_NEAR(t.lookup(x, y), std::sqrt(x + 0.1) * std::log1p(y), 2e-4);
    }
  }
}

TEST(Table1D, RejectsNonFiniteSamplesAtConstruction) {
  EXPECT_THROW(Table1D(0.0, 1.0, 5,
                       [](double x) {
                         return x > 0.5 ? std::numeric_limits<double>::
                                              quiet_NaN()
                                        : x;
                       }),
               DiagError);
  try {
    Table1D(0.0, 1.0, 3, [](double) {
      return std::numeric_limits<double>::infinity();
    });
    FAIL() << "expected DiagError";
  } catch (const DiagError& err) {
    EXPECT_EQ(err.diagnostic().code, DiagCode::kNonFiniteTableEntry);
  }
}

TEST(Table1D, RejectsNonFiniteLookupInputs) {
  const Table1D t(0.0, 1.0, 3, [](double x) { return x; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.lookup(nan), DiagError);
  EXPECT_THROW(t.derivative(nan), DiagError);
  EXPECT_THROW(t.lookup(std::numeric_limits<double>::infinity()), DiagError);
}

TEST(Table2D, RejectsNonFiniteSamplesAndInputs) {
  EXPECT_THROW(Table2D(0.0, 1.0, 3, 0.0, 1.0, 3,
                       [](double x, double y) {
                         return (x > 0.5 && y > 0.5)
                                    ? std::numeric_limits<double>::quiet_NaN()
                                    : x + y;
                       }),
               DiagError);
  const Table2D t(0.0, 1.0, 3, 0.0, 1.0, 3,
                  [](double x, double y) { return x + y; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.lookup(nan, 0.5), DiagError);
  EXPECT_THROW(t.lookup(0.5, nan), DiagError);
  EXPECT_THROW(t.eval_grad(nan, 0.5), DiagError);
  EXPECT_THROW(t.eval_grad(0.5, nan), DiagError);
}

}  // namespace
}  // namespace xtalk::util
