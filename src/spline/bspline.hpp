// Cardinal B-splines.
//
// Conventions follow Essmann et al. (SPME, 1995): M_p(u) is the order-p
// (degree p-1) uniform B-spline supported on [0, p].  The paper's "central
// B-spline" is the shifted copy M_p^c(x) = M_p(x + p/2) supported on
// [-p/2, p/2]; both views are provided.  Order p must be in
// [2, kMaxBsplineOrder]; the TME / two-scale machinery additionally requires
// p even.
#pragma once

#include <cstddef>
#include <span>

namespace tme {

// Largest order accepted: every function here evaluates on stack arrays of
// this size and throws std::invalid_argument above it.
inline constexpr int kMaxBsplineOrder = 16;

// M_p(u) for u anywhere on the real line (0 outside [0, p]).
double bspline(int p, double u);

// d/du M_p(u).
double bspline_derivative(int p, double u);

// Central B-spline M_p(x + p/2), supported on [-p/2, p/2].
double bspline_central(int p, double x);
double bspline_central_derivative(int p, double x);

// Charge-assignment weights for an atom at normalised coordinate u (grid
// units).  Fills values[k] = M_p(u - (m0 + k)) and derivs[k] with the
// derivative, for k = 0..p-1, where m0 = floor(u) - p + 1 is the leftmost
// grid point that the atom touches.  Returns m0.
//
// values/derivs must have size >= p.  derivs may be empty when not needed.
// Orders 4, 6 and 8 run a fully unrolled fixed-order instantiation of the
// recurrence; it is bitwise equal to bspline_weights_runtime_order, which
// every other order in [2, kMaxBsplineOrder] runs.
long bspline_weights(int p, double u, std::span<double> values,
                     std::span<double> derivs);
long bspline_weights_runtime_order(int p, double u, std::span<double> values,
                                   std::span<double> derivs);

// Central-convention variant (even p only): identical weight values, but the
// base index m0 = floor(u) - p/2 + 1 positions them symmetrically around the
// atom, i.e. values[k] = M_p^c(u - (m0 + k)).  This is the convention of the
// paper's Eq. 12 and the one the TME's restriction/prolongation requires —
// the Essmann-shifted basis differs by p/2, which does not commute with the
// factor-2 downsampling of the grid hierarchy.
long bspline_weights_central(int p, double u, std::span<double> values,
                             std::span<double> derivs);

// Batch forms: the weights of n in [1, W] coordinates u[0..n) in one pass
// of the recurrence on simd::vec<double, W>, one coordinate per lane (the
// scalar functions above are the same body at T = double).  Coordinate l's
// weights land in values[l * p .. l * p + p) (derivs likewise; derivs may be
// null) and its base index in base[l], each bitwise equal to what
// bspline_weights / bspline_weights_central return for u[l] — a non-finite
// u[l] included (NaN weights, base as for floor(u) = 0).  Instantiated for
// W = 1 and W = simd::kNativeWidth.  At W = 8 (AVX-512, p = 6, with
// derivatives) a coordinate costs about a third of a scalar call.
template <int W>
void bspline_weights_batch(int p, const double* u, int n, double* values,
                           double* derivs, long* base);
template <int W>
void bspline_weights_central_batch(int p, const double* u, int n, double* values,
                                   double* derivs, long* base);

// Exact values of the central B-spline at the integers, index m in
// [-p/2, p/2]; returns M_p^c(m) (zero at the endpoints for p even).
double bspline_central_at_integer(int p, int m);

}  // namespace tme
