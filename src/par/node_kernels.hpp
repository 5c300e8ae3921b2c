// Pure per-node compute kernels of the parallel TME pipeline.
//
// Each function here is the body of one node's work in one pipeline phase
// (charge assignment, restriction, prolongation, one axis of the separable
// level convolution, back-interpolation), expressed as a pure function from
// a halo-carrying input buffer to that node's output block.  The coordinator
// (ParallelTme) owns all distributed state and traffic accounting; these
// kernels own none — which is what lets a NodeExecutor run them inline, on a
// worker thread, or in a forked worker process and still produce bitwise
// identical results: the same function over the same bytes.
//
// The grid kernels are the inline stencils' separable passes: each task
// tabulates its (weight, halo-relative source) taps per axis — prolongation
// only the taps of each output's parity, the convolution with out-of-reach
// offsets folded into the period — and runs them through the shared row
// engine (grid/axis_taps.hpp).  Over a halo that covers the whole period a
// block therefore equals the same cells of restrict_grid / prolong_grid /
// convolve_axis bit for bit.  CA and BI run ChargeAssigner's own per-atom
// stencil (ewald/charge_assignment.hpp: spread_atom, interpolate_atom) at
// the atom's block-local corner, so they equal the inline passes bit for
// bit as well.  Workers deliberately avoid the process-wide thread pool (a forked child
// inherits dead pool threads): the passes run on a zero-worker ThreadPool,
// i.e. serially on the calling thread.  Every kernel is bitwise invariant
// under TME_SIMD, which workers inherit from the coordinator's environment.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "grid/grid3d.hpp"
#include "grid/separable_conv.hpp"
#include "util/simd.hpp"
#include "util/vec3.hpp"

namespace tme::par {

// An extended (halo-carrying) local buffer for one node: global coordinates
// [x0, x0+nx) x [y0, ...) x [z0, ...), unwrapped (may be negative).
struct ExtendedBlock {
  long x0 = 0, y0 = 0, z0 = 0;
  std::size_t nx = 0, ny = 0, nz = 0;
  std::vector<double> data;

  void reset(long x, long y, long z, std::size_t ex, std::size_t ey, std::size_t ez) {
    x0 = x;
    y0 = y;
    z0 = z;
    nx = ex;
    ny = ey;
    nz = ez;
    data.assign(ex * ey * ez, 0.0);
  }
  double& at(long gx, long gy, long gz) {
    return data[(static_cast<std::size_t>(gz - z0) * ny +
                 static_cast<std::size_t>(gy - y0)) *
                    nx +
                static_cast<std::size_t>(gx - x0)];
  }
  double at(long gx, long gy, long gz) const {
    return data[(static_cast<std::size_t>(gz - z0) * ny +
                 static_cast<std::size_t>(gy - y0)) *
                    nx +
                static_cast<std::size_t>(gx - x0)];
  }
};

// The three grid kernels throw std::invalid_argument when the halo does not
// cover the stencil of the requested block.  `mode` picks the row engine's
// instantiation (default: TME_SIMD); the result does not depend on it.

// Restriction: coarse cell m at global (ox+mx, ...) accumulates fine cells
// 2m +- p/2 through the two-scale J stencil.  `halo` is the fine-grid halo
// buffer; `out_dims` the coarse local block.
Grid3d restrict_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                      const GridDims& out_dims, int p,
                      std::span<const double> j_coeff,
                      simd::Mode mode = simd::mode_from_env());

// Prolongation: fine cell g draws coarse cells m with g = 2m + k, |k| <= p/2
// (parity-guarded).  `halo` is the coarse-grid halo buffer.
Grid3d prolong_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                     const GridDims& out_dims, int p,
                     std::span<const double> j_coeff,
                     simd::Mode mode = simd::mode_from_env());

// One axis pass of the separable level convolution over a slab halo, with
// taps beyond the clamped reach folded into the level period n_axis.
Grid3d convolve_block_axis(const ExtendedBlock& halo, long ox, long oy, long oz,
                           const GridDims& out_dims, int axis, long reach,
                           std::size_t n_axis, const Kernel1d& kernel,
                           simd::Mode mode = simd::mode_from_env());

// Charge assignment: spread `positions`/`charges` (one node's atoms) into a
// sleeved buffer with the given origin/extents.  Throws std::logic_error when
// an atom's spline support exceeds the sleeve.
ExtendedBlock ca_spread_block(std::span<const Vec3> positions,
                              std::span<const double> charges, const Box& box,
                              const Vec3& h, int p, long x0, long y0, long z0,
                              std::size_t ex, std::size_t ey, std::size_t ez,
                              const GridDims& global);

// Back-interpolation: per-atom potential and force from the potential halo.
// `forces` is indexed like `positions`; `q_phi` is this node's partial
// sum of q_i * phi_i (the coordinator adds partials in node order).
struct BiBlockResult {
  std::vector<Vec3> forces;
  double q_phi = 0.0;
};
BiBlockResult bi_interpolate_block(const ExtendedBlock& halo,
                                   std::span<const Vec3> positions,
                                   std::span<const double> charges,
                                   const Box& box, const Vec3& h, int p,
                                   const GridDims& global);

}  // namespace tme::par
