#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "quadrature/gauss_legendre.hpp"
#include "spline/bspline.hpp"
#include "spline/interpolation_coeffs.hpp"
#include "spline/two_scale.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

std::size_t Gridless_wrap(long i, std::size_t n) {
  long r = i % static_cast<long>(n);
  if (r < 0) r += static_cast<long>(n);
  return static_cast<std::size_t>(r);
}

TEST(BSpline, Order2IsHatFunction) {
  EXPECT_NEAR(bspline(2, 0.5), 0.5, 1e-15);
  EXPECT_NEAR(bspline(2, 1.0), 1.0, 1e-15);
  EXPECT_NEAR(bspline(2, 1.5), 0.5, 1e-15);
  EXPECT_EQ(bspline(2, -0.1), 0.0);
  EXPECT_EQ(bspline(2, 2.1), 0.0);
}

TEST(BSpline, Order4MatchesClosedFormOnFirstInterval) {
  // M_4(u) = u^3/6 on [0,1].
  for (const double u : {0.1, 0.4, 0.7, 0.999}) {
    EXPECT_NEAR(bspline(4, u), u * u * u / 6.0, 1e-14);
  }
}

TEST(BSpline, Order6ValueAtCentre) {
  // M_6(3) = 11/20 (central value of the quintic B-spline).
  EXPECT_NEAR(bspline(6, 3.0), 11.0 / 20.0, 1e-14);
}

TEST(BSpline, IntegerSamplesOrder6) {
  // M_6 at integers 1..5: 1/120, 26/120, 66/120, 26/120, 1/120.
  EXPECT_NEAR(bspline(6, 1.0), 1.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 2.0), 26.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 3.0), 66.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 4.0), 26.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 5.0), 1.0 / 120.0, 1e-14);
}

class BSplineOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(BSplineOrderSweep, PartitionOfUnity) {
  const int p = GetParam();
  for (const double x : {0.0, 0.123, 0.5, 0.987, 3.21}) {
    double sum = 0.0;
    for (int m = -2 * p; m <= 2 * p; ++m) sum += bspline(p, x - m + p * 0.5 + 4);
    // Equivalent: sum over integer shifts covering the support.
    sum = 0.0;
    for (int m = -3 * p; m <= 3 * p; ++m) sum += bspline(p, x - m);
    EXPECT_NEAR(sum, 1.0, 1e-13) << "p=" << p << " x=" << x;
  }
}

TEST_P(BSplineOrderSweep, NonNegativeAndSymmetric) {
  const int p = GetParam();
  for (double u = -1.0; u <= p + 1.0; u += 0.0625) {
    const double v = bspline(p, u);
    EXPECT_GE(v, 0.0);
    EXPECT_NEAR(v, bspline(p, p - u), 1e-14);  // symmetry about p/2
  }
}

TEST_P(BSplineOrderSweep, IntegratesToOne) {
  // Integrate knot interval by knot interval: on [k, k+1] the spline is a
  // polynomial of degree p-1, so a modest Gauss rule is exact.
  const int p = GetParam();
  double integral = 0.0;
  for (int k = 0; k < p; ++k) {
    integral += integrate_gl([p](double u) { return bspline(p, u); },
                             static_cast<double>(k), static_cast<double>(k + 1), 12);
  }
  EXPECT_NEAR(integral, 1.0, 1e-13);
}

TEST_P(BSplineOrderSweep, DerivativeMatchesFiniteDifference) {
  const int p = GetParam();
  const double eps = 1e-6;
  for (double u = 0.3; u < p - 0.2; u += 0.517) {
    const double fd = (bspline(p, u + eps) - bspline(p, u - eps)) / (2.0 * eps);
    EXPECT_NEAR(bspline_derivative(p, u), fd, 1e-7) << "p=" << p << " u=" << u;
  }
}

TEST_P(BSplineOrderSweep, WeightsMatchPointEvaluations) {
  const int p = GetParam();
  std::vector<double> w(static_cast<std::size_t>(p)), d(w);
  // Avoid exact integers: the one-sided derivative of the p = 2 hat
  // function is ambiguous at the knots.
  for (const double u : {0.0625, 0.25, 7.9, 123.456}) {
    const long m0 = bspline_weights(p, u, w, d);
    for (int k = 0; k < p; ++k) {
      const double arg = u - static_cast<double>(m0 + k);
      EXPECT_NEAR(w[static_cast<std::size_t>(k)], bspline(p, arg), 1e-13);
      EXPECT_NEAR(d[static_cast<std::size_t>(k)], bspline_derivative(p, arg), 1e-13);
    }
    // The weights are a complete partition: they sum to 1.
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-13);
    // Derivatives of a partition of unity sum to 0.
    EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0), 0.0, 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BSplineOrderSweep, ::testing::Values(2, 4, 6, 8, 10));

// The fixed-order fast paths (p = 4, 6, 8) evaluate the same recurrence as
// the runtime-order loop, unrolled; the two must agree bitwise on values,
// derivatives and base index, including at the edge cases of the floor:
// integers, negatives, one ulp below an integer, and non-finite u.
TEST(BSplineWeights, FixedOrderPathsBitwiseEqualRuntimeOrder) {
  Rng rng(4242);
  std::vector<double> us;
  for (int i = 0; i < 10000; ++i) us.push_back(rng.uniform(-50.0, 150.0));
  for (const double m : {-3.0, -1.0, 0.0, 1.0, 2.0, 31.0, 1000.0}) {
    us.push_back(m);
    us.push_back(std::nextafter(m, -1e300));
    us.push_back(std::nextafter(m, 1e300));
  }
  us.push_back(std::numeric_limits<double>::quiet_NaN());
  us.push_back(std::numeric_limits<double>::infinity());
  us.push_back(-std::numeric_limits<double>::infinity());
  for (const int p : {4, 6, 8}) {
    std::size_t differing = 0;
    for (const double u : us) {
      for (const bool with_derivs : {false, true}) {
        std::vector<double> wf(static_cast<std::size_t>(p)), df(wf), wr(wf), dr(wf);
        const long mf = bspline_weights(p, u, wf, with_derivs ? std::span<double>(df)
                                                              : std::span<double>());
        const long mr = bspline_weights_runtime_order(
            p, u, wr, with_derivs ? std::span<double>(dr) : std::span<double>());
        EXPECT_EQ(mf, mr) << "p=" << p << " u=" << u;
        differing += std::memcmp(wf.data(), wr.data(), wf.size() * sizeof(double)) != 0;
        differing += std::memcmp(df.data(), dr.data(), df.size() * sizeof(double)) != 0;
      }
    }
    EXPECT_EQ(differing, 0u) << "p=" << p;
    // A non-finite u keeps the fixed base -(p - 1) and NaN weights.
    std::vector<double> w(static_cast<std::size_t>(p));
    EXPECT_EQ(bspline_weights(p, std::numeric_limits<double>::quiet_NaN(), w, {}),
              -(p - 1));
    EXPECT_TRUE(std::isnan(w[0]));
  }
}

// The batch entry points run the scalar recurrence's body on W lanes; every
// lane must equal the scalar call bitwise (values, derivatives, base), for
// every order, at W = 1 and the native width, in full and partial batches,
// on lanes that hold NaN, +-inf, negative u, exact integers, 1e6 and
// subnormals — and a partial batch writes nothing past its n coordinates.
template <int W>
void check_batch_equals_scalar(const std::vector<double>& us) {
  constexpr double kSentinel = -12345.0;
  for (int p = 2; p <= kMaxBsplineOrder; ++p) {
    const std::size_t np = static_cast<std::size_t>(p);
    for (const bool central : {false, true}) {
      if (central && p % 2 != 0) continue;
      for (const bool with_derivs : {false, true}) {
        std::size_t differing = 0;
        for (std::size_t first = 0; first < us.size(); first += W) {
          // Every other batch is partial (one lane short) where W allows.
          const int full = static_cast<int>(std::min<std::size_t>(W, us.size() - first));
          const int n = (W > 1 && (first / W) % 2 == 1 && full == W) ? W - 1 : full;
          std::vector<double> values(W * np, kSentinel), derivs(W * np, kSentinel);
          std::vector<long> base(W, -7);
          double* d = with_derivs ? derivs.data() : nullptr;
          if (central) {
            bspline_weights_central_batch<W>(p, us.data() + first, n, values.data(), d,
                                             base.data());
          } else {
            bspline_weights_batch<W>(p, us.data() + first, n, values.data(), d, base.data());
          }
          for (int l = 0; l < n; ++l) {
            const double u = us[first + static_cast<std::size_t>(l)];
            std::vector<double> w(np), dw(np);
            const std::span<double> ds = with_derivs ? std::span<double>(dw) : std::span<double>();
            const long m0 = central ? bspline_weights_central(p, u, w, ds)
                                    : bspline_weights(p, u, w, ds);
            EXPECT_EQ(base[static_cast<std::size_t>(l)], m0) << "p=" << p << " u=" << u;
            const std::size_t at = static_cast<std::size_t>(l) * np;
            differing += std::memcmp(values.data() + at, w.data(), np * sizeof(double)) != 0;
            if (with_derivs) {
              differing += std::memcmp(derivs.data() + at, dw.data(), np * sizeof(double)) != 0;
            }
          }
          for (std::size_t k = static_cast<std::size_t>(n) * np; k < W * np; ++k) {
            EXPECT_EQ(values[k], kSentinel) << "p=" << p << " wrote past the batch";
            EXPECT_EQ(derivs[k], kSentinel) << "p=" << p << " wrote past the batch";
          }
          if (!with_derivs) {
            for (const double x : derivs) EXPECT_EQ(x, kSentinel);
          }
        }
        EXPECT_EQ(differing, 0u) << "W=" << W << " p=" << p << " central=" << central
                                 << " derivs=" << with_derivs;
      }
    }
  }
}

TEST(BSplineWeights, BatchEqualsScalarBitwise) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> us = {kNan, kInf,  -kInf, -3.25, -0.0, 0.0,    1.0,     2.0,
                            31.0, -1.0,  1e6,   -1e6,  kTiny, -kTiny, 4.9e-310,
                            -2.2e-309, std::nextafter(1.0, 0.0), std::nextafter(-1.0, 0.0)};
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) us.push_back(rng.uniform(-40.0, 70.0));
  check_batch_equals_scalar<1>(us);
  check_batch_equals_scalar<simd::kNativeWidth>(us);
  // A non-finite coordinate keeps the scalar rule: base as for floor(u) = 0.
  double values[kMaxBsplineOrder * simd::kNativeWidth];
  long base[simd::kNativeWidth];
  const double bad[2] = {kNan, -kInf};
  bspline_weights_central_batch<simd::kNativeWidth>(6, bad, 2, values, nullptr, base);
  EXPECT_EQ(base[0], -2);
  EXPECT_EQ(base[1], -2);
  EXPECT_TRUE(std::isnan(values[0]));
  EXPECT_THROW(bspline_weights_central_batch<1>(5, bad, 1, values, nullptr, base),
               std::invalid_argument);
  EXPECT_THROW(bspline_weights_batch<1>(6, bad, 2, values, nullptr, base),
               std::invalid_argument);
}

TEST(BSplineWeights, RejectsOrderAboveStackCapacity) {
  std::vector<double> w(kMaxBsplineOrder + 2), d(w);
  EXPECT_THROW(bspline_weights(kMaxBsplineOrder + 2, 0.5, w, d), std::invalid_argument);
  EXPECT_THROW(bspline_weights_runtime_order(kMaxBsplineOrder + 1, 0.5, w, d),
               std::invalid_argument);
  EXPECT_THROW(bspline_weights_central(kMaxBsplineOrder + 2, 0.5, w, d),
               std::invalid_argument);
  EXPECT_THROW(bspline(kMaxBsplineOrder + 1, 0.5), std::invalid_argument);
  EXPECT_NO_THROW(bspline_weights(kMaxBsplineOrder, 0.5, w, d));
}

TEST(BSplineCentral, SupportAndPeak) {
  EXPECT_EQ(bspline_central(6, -3.0), 0.0);
  EXPECT_EQ(bspline_central(6, 3.0), 0.0);
  EXPECT_NEAR(bspline_central(6, 0.0), 11.0 / 20.0, 1e-14);
  EXPECT_NEAR(bspline_central_at_integer(6, 1), 26.0 / 120.0, 1e-14);
  EXPECT_EQ(bspline_central_at_integer(6, 3), 0.0);
}

class TwoScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(TwoScaleSweep, CoefficientsSumToTwo) {
  const int p = GetParam();
  const std::vector<double> j = two_scale_coefficients(p);
  EXPECT_EQ(j.size(), static_cast<std::size_t>(p + 1));
  EXPECT_NEAR(std::accumulate(j.begin(), j.end(), 0.0), 2.0, 1e-14);
}

TEST_P(TwoScaleSweep, RefinementIdentityHolds) {
  // M_p(x) = sum_m J_m M_p(2x - m), paper Sec. III.A.
  const int p = GetParam();
  const int half = p / 2;
  const std::vector<double> j = two_scale_coefficients(p);
  for (double x = -0.5 * p; x <= 0.5 * p; x += 0.0937) {
    double rhs = 0.0;
    for (int m = -half; m <= half; ++m) {
      rhs += j[static_cast<std::size_t>(m + half)] * bspline_central(p, 2.0 * x - m);
    }
    EXPECT_NEAR(rhs, bspline_central(p, x), 1e-13) << "p=" << p << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, TwoScaleSweep, ::testing::Values(2, 4, 6, 8));

TEST(TwoScale, KnownValuesForOrder6) {
  const std::vector<double> j = two_scale_coefficients(6);
  EXPECT_NEAR(j[3], 20.0 / 32.0, 1e-15);  // J_0
  EXPECT_NEAR(j[2], 15.0 / 32.0, 1e-15);  // J_{-1}
  EXPECT_NEAR(j[4], 15.0 / 32.0, 1e-15);  // J_{+1}
  EXPECT_NEAR(j[1], 6.0 / 32.0, 1e-15);
  EXPECT_NEAR(j[0], 1.0 / 32.0, 1e-15);
}

TEST(TwoScale, RejectsOddOrder) {
  EXPECT_THROW(two_scale_coefficients(5), std::invalid_argument);
}

TEST(InterpolationCoeffs, OmegaInvertsBSplineSamples) {
  // (omega * b)_k = delta_k0 in the cyclic algebra, b_m = M_p^c(m).
  for (const int p : {4, 6, 8}) {
    const std::size_t n = 32;
    const std::vector<double> omega = interpolation_coefficients(p, n);
    for (std::size_t k = 0; k < n; ++k) {
      double conv = 0.0;
      for (int m = -p / 2; m <= p / 2; ++m) {
        const std::size_t idx =
            Gridless_wrap(static_cast<long>(k) - m, n);
        conv += bspline_central_at_integer(p, m) * omega[idx];
      }
      EXPECT_NEAR(conv, k == 0 ? 1.0 : 0.0, 1e-12) << "p=" << p << " k=" << k;
    }
  }
}

TEST(InterpolationCoeffs, OmegaPrimeMatchesOmegaConvolvedWithItself) {
  const int p = 6;
  const std::size_t n = 24;
  const std::vector<double> omega = interpolation_coefficients(p, n);
  const std::vector<double> op = omega_prime(p, n);
  for (std::size_t k = 0; k < n; ++k) {
    double conv = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      conv += omega[m] * omega[(k + n - m) % n];
    }
    EXPECT_NEAR(op[k], conv, 1e-12);
  }
}

TEST(InterpolationCoeffs, OmegaPrimeMatchesHardyTableOrder6) {
  // Hardy et al. 2016 Table I lists omega' for p = 6; the leading values are
  // omega'_0 ~ 5.2156, omega'_1 ~ -3.1415 (decaying alternating tail).
  // We check the defining property instead of transcribing the table, plus
  // the qualitative alternating-decay structure.
  const std::vector<double> op = omega_prime(6, 64);
  EXPECT_GT(op[0], 0.0);
  for (int k = 1; k < 8; ++k) {
    // Alternating sign and decaying magnitude.
    EXPECT_LT(op[static_cast<std::size_t>(k)] * op[static_cast<std::size_t>(k - 1)], 0.0);
    EXPECT_LT(std::abs(op[static_cast<std::size_t>(k)]),
              std::abs(op[static_cast<std::size_t>(k - 1)]));
  }
}

// Max error of the B-spline expansion of a Gaussian (paper Eq. 8), measured
// over a sample of point pairs on a periodic grid.
double gaussian_expansion_error(int p, std::size_t n, double alpha) {
  const std::vector<double> g = gaussian_grid_kernel(p, n, alpha);
  double worst = 0.0;
  for (const double x : {3.2, 7.77, 11.03}) {
    for (const double xp : {2.9, 9.5, 12.61}) {
      double approx = 0.0;
      for (long m = 0; m < static_cast<long>(n); ++m) {
        const double mx = bspline_central(p, x - static_cast<double>(m));
        if (mx == 0.0) continue;
        for (long mp = 0; mp < static_cast<long>(n); ++mp) {
          const double mxp = bspline_central(p, xp - static_cast<double>(mp));
          if (mxp == 0.0) continue;
          const std::size_t idx = Gridless_wrap(m - mp, n);
          approx += g[idx] * mx * mxp;
        }
      }
      const double exact = std::exp(-alpha * alpha * (x - xp) * (x - xp));
      worst = std::max(worst, std::abs(approx - exact));
    }
  }
  return worst;
}

TEST(InterpolationCoeffs, GaussianGridKernelReproducesGaussian) {
  // The expansion error is the intrinsic p = 6 interpolation error; it is
  // small and falls rapidly as the Gaussian widens relative to the grid.
  const double err_narrow = gaussian_expansion_error(6, 32, 0.7);
  const double err_wide = gaussian_expansion_error(6, 32, 0.35);
  EXPECT_LT(err_narrow, 5e-3);
  EXPECT_LT(err_wide, 2e-4);
  EXPECT_LT(err_wide, 0.25 * err_narrow);
}

TEST(InterpolationCoeffs, GaussianGridKernelImprovesWithOrder) {
  const double err_p4 = gaussian_expansion_error(4, 32, 0.5);
  const double err_p6 = gaussian_expansion_error(6, 32, 0.5);
  const double err_p8 = gaussian_expansion_error(8, 32, 0.5);
  EXPECT_LT(err_p6, err_p4);
  EXPECT_LT(err_p8, err_p6);
}

}  // namespace
}  // namespace tme
