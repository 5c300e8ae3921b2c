#include "spline/bspline.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tme {

namespace {

void check_order(int p) {
  if (p < 2) throw std::invalid_argument("bspline: order p must be >= 2");
  if (p > kMaxBsplineOrder) {
    throw std::invalid_argument("bspline: order p exceeds kMaxBsplineOrder");
  }
}

// Cox–de Boor on the uniform knots 0..p, specialised to the p points
// w + j, j = 0..p-1, with w = u - floor(u).  M_2 is the hat function; the
// order is raised by the standard recurrence
//   M_n(u) = [u M_{n-1}(u) + (n-u) M_{n-1}(u-1)] / (n-1).
// Written once for both paths: P > 0 fixes the order at compile time (the
// loops unroll completely), P == 0 reads it from `p` at run time.  Either
// way the same expressions run in the same order on stack arrays, so under
// -ffp-contract=off the two are bitwise equal.  `derivs` may be null.
template <int P>
long weights_impl(int p, double u, double* values, double* derivs) {
  if constexpr (P > 0) p = P;
  constexpr int kCap = P > 0 ? P : kMaxBsplineOrder;
  const double fl = std::floor(u);
  const double w = u - fl;
  // data[j] = M_n(w + j), built up from n = 2 to p.
  double data[kCap] = {};
  double prev[kCap] = {};  // M_{p-1}(w + j) snapshot for the derivative
  data[0] = w;
  data[1] = 1.0 - w;
#pragma GCC unroll 16
  for (int n = 3; n <= p; ++n) {
    if (derivs != nullptr && n == p) {
      for (int j = 0; j < p; ++j) prev[j] = data[j];
    }
    const double inv = 1.0 / (n - 1.0);
#pragma GCC unroll 16
    for (int j = n - 1; j >= 0; --j) {
      const double a = (w + j) * (j < n - 1 ? data[j] : 0.0);
      const double b = (n - w - j) * (j > 0 ? data[j - 1] : 0.0);
      data[j] = inv * (a + b);
    }
  }
  if (derivs != nullptr && p == 2) {  // M_1(w) = 1, M_1(w+1) = 0
    prev[0] = 1.0;
    prev[1] = 0.0;
  }
  // Grid point m0 + k sees argument u - (m0 + k) = w + p - 1 - k.
  for (int k = 0; k < p; ++k) values[k] = data[p - 1 - k];
  if (derivs != nullptr) {
    // M_p'(w + j) = M_{p-1}(w + j) - M_{p-1}(w + j - 1).
    for (int k = 0; k < p; ++k) {
      const int j = p - 1 - k;
      const double hi = (j <= p - 2) ? prev[j] : 0.0;
      const double lo = (j - 1 >= 0 && j - 1 <= p - 2) ? prev[j - 1] : 0.0;
      derivs[k] = hi - lo;
    }
  }
  // A non-finite u (a NaN or infinite position) gives NaN weights at a
  // fixed base instead of reaching the float-to-integer cast, whose result
  // would be undefined.
  return (std::isfinite(fl) ? static_cast<long>(fl) : 0L) - (p - 1);
}

double* derivs_or_null(int p, std::span<double> derivs) {
  return derivs.size() >= static_cast<std::size_t>(p) ? derivs.data() : nullptr;
}

}  // namespace

double bspline(int p, double u) {
  check_order(p);
  if (std::isnan(u)) return u;
  if (u <= 0.0 || u >= static_cast<double>(p)) return 0.0;
  // With u = j + w, j = floor(u) in [0, p), the weights hold M_p(w + j) at
  // index p - 1 - j.
  double values[kMaxBsplineOrder] = {};
  weights_impl<0>(p, u, values, nullptr);
  return values[p - 1 - static_cast<int>(std::floor(u))];
}

double bspline_derivative(int p, double u) {
  check_order(p);
  if (p == 2) {
    if (u <= 0.0 || u >= 2.0) return 0.0;
    return u < 1.0 ? 1.0 : -1.0;
  }
  return bspline(p - 1, u) - bspline(p - 1, u - 1.0);
}

double bspline_central(int p, double x) { return bspline(p, x + 0.5 * p); }

double bspline_central_derivative(int p, double x) {
  return bspline_derivative(p, x + 0.5 * p);
}

long bspline_weights(int p, double u, std::span<double> values,
                     std::span<double> derivs) {
  check_order(p);
  assert(values.size() >= static_cast<std::size_t>(p));
  double* d = derivs_or_null(p, derivs);
  switch (p) {
    case 4: return weights_impl<4>(p, u, values.data(), d);
    case 6: return weights_impl<6>(p, u, values.data(), d);
    case 8: return weights_impl<8>(p, u, values.data(), d);
    default: return weights_impl<0>(p, u, values.data(), d);
  }
}

long bspline_weights_runtime_order(int p, double u, std::span<double> values,
                                   std::span<double> derivs) {
  check_order(p);
  assert(values.size() >= static_cast<std::size_t>(p));
  return weights_impl<0>(p, u, values.data(), derivs_or_null(p, derivs));
}

long bspline_weights_central(int p, double u, std::span<double> values,
                             std::span<double> derivs) {
  if (p % 2 != 0) {
    throw std::invalid_argument("bspline_weights_central: p must be even");
  }
  return bspline_weights(p, u, values, derivs) + p / 2;
}

double bspline_central_at_integer(int p, int m) {
  check_order(p);
  if (p % 2 != 0)
    throw std::invalid_argument("bspline_central_at_integer: p must be even");
  const int half = p / 2;
  if (m < -half || m > half) return 0.0;
  return bspline(p, static_cast<double>(m + half));
}

}  // namespace tme
