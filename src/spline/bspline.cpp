#include "spline/bspline.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tme {

namespace {

void check_order(int p) {
  if (p < 2) throw std::invalid_argument("bspline: order p must be >= 2");
}

}  // namespace

double bspline(int p, double u) {
  check_order(p);
  if (u <= 0.0 || u >= static_cast<double>(p)) return 0.0;
  // Cox–de Boor on the uniform knots 0..p, specialised to a single point.
  // M_2 is the hat function; raise the order by the standard recurrence
  //   M_n(u) = [u M_{n-1}(u) + (n-u) M_{n-1}(u-1)] / (n-1).
  // We track the values M_n(u - j) for j = 0..n-1 starting from n = 2.
  const double w = u - std::floor(u);
  std::vector<double> data(static_cast<std::size_t>(p), 0.0);
  data[0] = w;
  data[1] = 1.0 - w;
  for (int n = 3; n <= p; ++n) {
    const double inv = 1.0 / (n - 1.0);
    for (int j = n - 1; j >= 0; --j) {
      const double a = (w + j) * (j < n - 1 ? data[j] : 0.0);
      const double b = (n - w - j) * (j > 0 ? data[j - 1] : 0.0);
      data[static_cast<std::size_t>(j)] = inv * (a + b);
    }
  }
  // data[j] = M_p(w + j); we want M_p(u) with u = w + floor(u).
  const int j = static_cast<int>(std::floor(u));
  if (j < 0 || j >= p) return 0.0;
  return data[static_cast<std::size_t>(j)];
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
  const double fl = std::floor(u);
  const double w = u - fl;
  // data[j] = M_n(w + j), built up from n = 2 to p.
  std::vector<double> data(static_cast<std::size_t>(p), 0.0);
  data[0] = w;
  data[1] = 1.0 - w;
  const bool want_derivs = derivs.size() >= static_cast<std::size_t>(p);
  std::vector<double> prev;  // M_{p-1}(w + j) snapshot for the derivative
  for (int n = 3; n <= p; ++n) {
    if (want_derivs && n == p) prev.assign(data.begin(), data.end());
    const double inv = 1.0 / (n - 1.0);
    for (int j = n - 1; j >= 0; --j) {
      const double a = (w + j) * (j < n - 1 ? data[j] : 0.0);
      const double b = (n - w - j) * (j > 0 ? data[j - 1] : 0.0);
      data[static_cast<std::size_t>(j)] = inv * (a + b);
    }
  }
  if (want_derivs && p == 2) prev = {1.0, 0.0};  // M_1(w) = 1, M_1(w+1) = 0
  // Grid point m0 + k sees argument u - (m0 + k) = w + p - 1 - k.
  for (int k = 0; k < p; ++k) {
    values[static_cast<std::size_t>(k)] = data[static_cast<std::size_t>(p - 1 - k)];
  }
  if (want_derivs) {
    // M_p'(w + j) = M_{p-1}(w + j) - M_{p-1}(w + j - 1).
    for (int k = 0; k < p; ++k) {
      const int j = p - 1 - k;
      const double hi = (j <= p - 2) ? prev[static_cast<std::size_t>(j)] : 0.0;
      const double lo = (j - 1 >= 0 && j - 1 <= p - 2)
                            ? prev[static_cast<std::size_t>(j - 1)]
                            : 0.0;
      derivs[static_cast<std::size_t>(k)] = hi - lo;
    }
  }
  // A non-finite u (a NaN or infinite position) gives NaN weights at a
  // fixed base instead of reaching the float-to-integer cast, whose result
  // would be undefined.
  return (std::isfinite(fl) ? static_cast<long>(fl) : 0L) - (p - 1);
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
