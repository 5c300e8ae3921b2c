#include "spline/bspline.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "util/simd.hpp"

namespace tme {

namespace {

void check_order(int p) {
  if (p < 2) throw std::invalid_argument("bspline: order p must be >= 2");
  if (p > kMaxBsplineOrder) {
    throw std::invalid_argument("bspline: order p exceeds kMaxBsplineOrder");
  }
}

// Lane helpers: the recurrence below is written once over T = double (one
// coordinate) and T = simd::vec<double, W> (W coordinates, one per lane).
template <typename T>
T splat(double x) {
  if constexpr (std::is_same_v<T, double>) {
    return x;
  } else {
    return T::broadcast(x);
  }
}

template <typename T>
T floor_lanes(T u) {
  if constexpr (std::is_same_v<T, double>) {
    return std::floor(u);
  } else {
    return T::floor(u);
  }
}

// Cox–de Boor on the uniform knots 0..p, specialised to the p points
// w + j, j = 0..p-1, with w = u - floor(u).  M_2 is the hat function; the
// order is raised by the standard recurrence
//   M_n(u) = [u M_{n-1}(u) + (n-u) M_{n-1}(u-1)] / (n-1).
// Written once for both paths: P > 0 fixes the order at compile time (the
// loops unroll completely), P == 0 reads it from `p` at run time.  Either
// way the same expressions run in the same order on stack arrays, so under
// -ffp-contract=off the two are bitwise equal — and so are the lanes of a
// vector T and the scalar T = double, since every lane op is the IEEE
// double op.  `derivs` may be null.  Returns floor(u).
template <int P, typename T>
T weights_impl(int p, T u, T* values, T* derivs) {
  if constexpr (P > 0) p = P;
  constexpr int kCap = P > 0 ? P : kMaxBsplineOrder;
  const T zero = splat<T>(0.0);
  const T fl = floor_lanes(u);
  const T w = u - fl;
  // data[j] = M_n(w + j), built up from n = 2 to p.
  T data[kCap] = {};
  T prev[kCap] = {};  // M_{p-1}(w + j) snapshot for the derivative
  data[0] = w;
  data[1] = splat<T>(1.0) - w;
#pragma GCC unroll 16
  for (int n = 3; n <= p; ++n) {
    if (derivs != nullptr && n == p) {
      for (int j = 0; j < p; ++j) prev[j] = data[j];
    }
    const T inv = splat<T>(1.0 / (n - 1.0));
#pragma GCC unroll 16
    for (int j = n - 1; j >= 0; --j) {
      const T a = (w + splat<T>(j)) * (j < n - 1 ? data[j] : zero);
      const T b = (splat<T>(n) - w - splat<T>(j)) * (j > 0 ? data[j - 1] : zero);
      data[j] = inv * (a + b);
    }
  }
  if (derivs != nullptr && p == 2) {  // M_1(w) = 1, M_1(w+1) = 0
    prev[0] = splat<T>(1.0);
    prev[1] = zero;
  }
  // Grid point m0 + k sees argument u - (m0 + k) = w + p - 1 - k.
  for (int k = 0; k < p; ++k) values[k] = data[p - 1 - k];
  if (derivs != nullptr) {
    // M_p'(w + j) = M_{p-1}(w + j) - M_{p-1}(w + j - 1).
    for (int k = 0; k < p; ++k) {
      const int j = p - 1 - k;
      const T hi = (j <= p - 2) ? prev[j] : zero;
      const T lo = (j - 1 >= 0 && j - 1 <= p - 2) ? prev[j - 1] : zero;
      derivs[k] = hi - lo;
    }
  }
  return fl;
}

// The base index m0 = floor(u) - p + 1.  A non-finite u (a NaN or infinite
// position) gives NaN weights at a fixed base instead of reaching the
// float-to-integer cast, whose result would be undefined.
long base_index(int p, double fl) {
  return (std::isfinite(fl) ? static_cast<long>(fl) : 0L) - (p - 1);
}

template <int P>
long scalar_weights(int p, double u, double* values, double* derivs) {
  return base_index(p, weights_impl<P>(p, u, values, derivs));
}

// out[l * p + k] = lane l of rows[k] for the first n lanes.
template <int W>
void transpose_out(int p, int n, const simd::vec<double, W>* rows, double* out) {
  alignas(64) double lane[W] = {};
  for (int k = 0; k < p; ++k) {
    rows[k].store(lane);
    for (int l = 0; l < n; ++l) out[l * p + k] = lane[l];
  }
}

// W coordinates through one vector pass of the recurrence; coordinate l's
// weights land at values + l * p (derivs likewise).
template <int P, int W>
void batch_weights(int p, const double* u, int n, double* values, double* derivs,
                   long* base) {
  using V = simd::vec<double, W>;
  constexpr int kCap = P > 0 ? P : kMaxBsplineOrder;
  V v[kCap] = {}, d[kCap] = {};
  const V uv = n == W ? V::load(u) : V::load_partial(u, n);
  const V fl = weights_impl<P>(p, uv, v, derivs != nullptr ? d : nullptr);
  alignas(64) double lane[W] = {};
  fl.store(lane);
  for (int l = 0; l < n; ++l) base[l] = base_index(p, lane[l]);
  transpose_out<W>(p, n, v, values);
  if (derivs != nullptr) transpose_out<W>(p, n, d, derivs);
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
  weights_impl<0, double>(p, u, values, nullptr);
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
    case 4: return scalar_weights<4>(p, u, values.data(), d);
    case 6: return scalar_weights<6>(p, u, values.data(), d);
    case 8: return scalar_weights<8>(p, u, values.data(), d);
    default: return scalar_weights<0>(p, u, values.data(), d);
  }
}

long bspline_weights_runtime_order(int p, double u, std::span<double> values,
                                   std::span<double> derivs) {
  check_order(p);
  assert(values.size() >= static_cast<std::size_t>(p));
  return scalar_weights<0>(p, u, values.data(), derivs_or_null(p, derivs));
}

long bspline_weights_central(int p, double u, std::span<double> values,
                             std::span<double> derivs) {
  if (p % 2 != 0) {
    throw std::invalid_argument("bspline_weights_central: p must be even");
  }
  return bspline_weights(p, u, values, derivs) + p / 2;
}

template <int W>
void bspline_weights_batch(int p, const double* u, int n, double* values,
                           double* derivs, long* base) {
  check_order(p);
  if (n < 1 || n > W) throw std::invalid_argument("bspline_weights_batch: n outside [1, W]");
  switch (p) {
    case 4: return batch_weights<4, W>(p, u, n, values, derivs, base);
    case 6: return batch_weights<6, W>(p, u, n, values, derivs, base);
    case 8: return batch_weights<8, W>(p, u, n, values, derivs, base);
    default: return batch_weights<0, W>(p, u, n, values, derivs, base);
  }
}

template <int W>
void bspline_weights_central_batch(int p, const double* u, int n, double* values,
                                   double* derivs, long* base) {
  if (p % 2 != 0) {
    throw std::invalid_argument("bspline_weights_central_batch: p must be even");
  }
  bspline_weights_batch<W>(p, u, n, values, derivs, base);
  for (int l = 0; l < n; ++l) base[l] += p / 2;
}

template void bspline_weights_batch<1>(int, const double*, int, double*, double*, long*);
template void bspline_weights_central_batch<1>(int, const double*, int, double*, double*,
                                               long*);
template void bspline_weights_batch<simd::kNativeWidth>(int, const double*, int, double*,
                                                        double*, long*);
template void bspline_weights_central_batch<simd::kNativeWidth>(int, const double*, int,
                                                                double*, double*, long*);

double bspline_central_at_integer(int p, int m) {
  check_order(p);
  if (p % 2 != 0)
    throw std::invalid_argument("bspline_central_at_integer: p must be even");
  const int half = p / 2;
  if (m < -half || m > half) return 0.0;
  return bspline(p, static_cast<double>(m + half));
}

}  // namespace tme
