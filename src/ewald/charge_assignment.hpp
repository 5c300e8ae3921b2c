// B-spline charge assignment (anterpolation) and back interpolation —
// the numerics of the MDGRAPE-4A long-range unit (LRU), paper Sec. IV.A.
//
// CA mode (Eq. 12):  Q_m = sum_i q_i M_p(u_i - m)       (periodic)
// BI mode (Eq. 13–17): per-atom potential phi_i and force
//   F_i = -(q_i / h) sum_m Phi_m grad M_p(u_i - m)
//
// The same operator pair is used by SPME, B-spline MSM, and the TME; the
// hardware fixes p = 6 but the software supports any even p >= 2.
//
// The per-atom stencil is written once, in spread_atom / interpolate_atom
// below: ChargeAssigner runs it on the periodic grid, and the fleet's node
// kernels (par/node_kernels.hpp) on a node's sleeved block, so the two
// produce the same bits.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "grid/grid3d.hpp"
#include "spline/bspline.hpp"
#include "util/simd.hpp"
#include "util/vec3.hpp"

namespace tme {

class ThreadPool;

// One atom's p×p×p stencil on a row-major grid of extents `dims` (x
// fastest).  (ix0, iy0, iz0) is the stencil corner, already wrapped into the
// grid; the stencil wraps periodically past each far edge, so a block whose
// sleeves cover the support never wraps.  wx/wy/wz are the p B-spline
// weights per axis (dx/dy/dz their derivatives) and 2 <= p <=
// kMaxBsplineOrder.  Both are bitwise invariant under `mode`.
//
// Spreads charge q:  grid[corner + k] = fma(q wz[kz] wy[ky], wx[kx], grid[...]).
void spread_atom(double* grid, const GridDims& dims, std::size_t ix0,
                 std::size_t iy0, std::size_t iz0, int p, double q,
                 const double* wx, const double* wy, const double* wz,
                 simd::Mode mode);

// Interpolates the potential phi = sum_m grid_m M_p(u - m) and its gradient
// d phi / d u in grid units: the stencil's x-rows are accumulated
// element-wise, then dotted against wx/dx in a fixed order.
void interpolate_atom(const double* grid, const GridDims& dims, std::size_t ix0,
                      std::size_t iy0, std::size_t iz0, int p, const double* wx,
                      const double* dx, const double* wy, const double* dy,
                      const double* wz, const double* dz, simd::Mode mode,
                      double& phi, Vec3& grad);

// One atom's central B-spline stencil weights: per axis the base index
// (bspline_weights_central's m0, not yet wrapped into a grid) and the p
// weights, plus their derivatives when asked for (null otherwise).
struct AtomWeights {
  long base[3];
  const double* w[3];
  const double* d[3];
};

// fn(i, weights) for every atom i in [first, last), in atom order, with the
// weights of atom i at u = box.wrap(positions[i]) / h.  The weights are
// computed W atoms at a time by the batch B-spline entry point (W = 1 in
// scalar mode, the native width otherwise), bitwise equal to one scalar call
// per atom and axis.
template <typename Fn>
void for_each_atom_weights(std::span<const Vec3> positions, const Box& box,
                           const Vec3& h, int p, bool derivs, simd::Mode mode,
                           std::size_t first, std::size_t last, Fn&& fn);

class ChargeAssigner {
 public:
  // `dims` is the target grid; grid spacing is box.lengths / dims per axis.
  // `order` must be even and in [2, kMaxBsplineOrder] (spline/bspline.hpp);
  // anything else throws std::invalid_argument here.
  ChargeAssigner(const Box& box, GridDims dims, int order);

  int order() const { return p_; }
  const GridDims& dims() const { return dims_; }
  Vec3 spacing() const { return h_; }

  // Which instantiation of the stencil kernels this assigner runs (resolved
  // from TME_SIMD at construction; settable for A/B parity tests).  Both
  // passes are bitwise invariant under the mode: spreading is an
  // element-wise fma on the grid, and back interpolation accumulates the
  // stencil's x-rows element-wise before fixed-order scalar dots.
  simd::Mode simd_mode() const { return simd_mode_; }
  void set_simd_mode(simd::Mode mode) { simd_mode_ = mode; }

  // Anterpolation: scatter all charges onto a fresh grid.  Particle batches
  // spread into per-thread scratch grids on `pool` (nullptr = the
  // process-wide pool) and are reduced point-wise in fixed batch order; a
  // one-thread pool reproduces the serial scatter exactly.
  Grid3d assign(std::span<const Vec3> positions, std::span<const double> charges,
                ThreadPool* pool = nullptr) const;

  // Back interpolation: per-atom potential phi_i = sum_m Phi_m M_p(u_i - m)
  // and (if forces != nullptr) the accumulated force
  //   forces[i] += -charges[i] * grad phi(r_i).
  // Returns sum_i q_i phi_i (twice the interaction energy).
  // Atom ranges run on `pool` (nullptr = the process-wide pool); their
  // partial energies are added in range order, so the energy depends on the
  // pool size but not on timing.
  double back_interpolate(const Grid3d& potential, std::span<const Vec3> positions,
                          std::span<const double> charges,
                          std::vector<Vec3>* forces,
                          std::vector<double>* phi_out = nullptr,
                          ThreadPool* pool = nullptr) const;

 private:
  // Serial scatter of particles [first, last) into `grid` (accumulating).
  void spread_range(Grid3d& grid, std::span<const Vec3> positions,
                    std::span<const double> charges, std::size_t first,
                    std::size_t last) const;

  Box box_;
  GridDims dims_;
  int p_;
  Vec3 h_;
  simd::Mode simd_mode_ = simd::mode_from_env();
};

namespace detail {

template <int W, typename Fn>
void for_each_atom_weights_w(std::span<const Vec3> positions, const Box& box,
                             const Vec3& h, int p, bool derivs, std::size_t first,
                             std::size_t last, Fn& fn) {
  double u[3][W] = {};
  double values[3][W * kMaxBsplineOrder] = {};
  double slopes[3][W * kMaxBsplineOrder] = {};
  long base[3][W] = {};
  const std::size_t np = static_cast<std::size_t>(p);
  for (std::size_t i0 = first; i0 < last; i0 += W) {
    const int n = static_cast<int>(std::min<std::size_t>(W, last - i0));
    for (int l = 0; l < n; ++l) {
      const Vec3 ul = hadamard_div(box.wrap(positions[i0 + static_cast<std::size_t>(l)]), h);
      u[0][l] = ul.x;
      u[1][l] = ul.y;
      u[2][l] = ul.z;
    }
    for (int a = 0; a < 3; ++a) {
      bspline_weights_central_batch<W>(p, u[a], n, values[a], derivs ? slopes[a] : nullptr,
                                       base[a]);
    }
    for (int l = 0; l < n; ++l) {
      const std::size_t at = static_cast<std::size_t>(l) * np;
      AtomWeights aw{};
      for (int a = 0; a < 3; ++a) {
        aw.base[a] = base[a][l];
        aw.w[a] = values[a] + at;
        aw.d[a] = derivs ? slopes[a] + at : nullptr;
      }
      fn(i0 + static_cast<std::size_t>(l), aw);
    }
  }
}

}  // namespace detail

template <typename Fn>
void for_each_atom_weights(std::span<const Vec3> positions, const Box& box,
                           const Vec3& h, int p, bool derivs, simd::Mode mode,
                           std::size_t first, std::size_t last, Fn&& fn) {
  if (mode == simd::Mode::kNative) {
    detail::for_each_atom_weights_w<simd::kNativeWidth>(positions, box, h, p, derivs,
                                                        first, last, fn);
  } else {
    detail::for_each_atom_weights_w<1>(positions, box, h, p, derivs, first, last, fn);
  }
}

}  // namespace tme
