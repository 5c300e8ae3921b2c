#include "par/node_kernels.hpp"

#include <stdexcept>

#include "ewald/charge_assignment.hpp"
#include "grid/axis_taps.hpp"
#include "grid/transfer.hpp"
#include "spline/bspline.hpp"
#include "util/parallel.hpp"

namespace tme::par {

namespace {

// Shift the spline base so the whole support lands inside [lo, hi) (at most
// one period in either direction).
long unwrap_base(int p, long base, long lo, long hi, long period) {
  if (base < lo) base += period;
  if (base + p > hi) base -= period;
  if (base < lo || base + p > hi) {
    throw std::logic_error("parallel CA/BI: atom support exceeds sleeve");
  }
  return base;
}

// CA/BI keep their stencil weights in arrays sized for the largest order
// the B-spline code accepts.
void check_order(int p) {
  if (p < 2 || p > kMaxBsplineOrder) {
    throw std::invalid_argument("parallel CA/BI: spline order out of range");
  }
}

// Workers never touch the process-wide pool (a forked child inherits it with
// dead threads); a zero-worker pool runs every pass on the calling thread.
ThreadPool& serial_pool() {
  static ThreadPool pool(0);
  return pool;
}

// Maps a global index along one axis to its index in a halo starting at h0
// with `extent` cells; a halo that does not cover the stencil is a
// malformed task.
auto halo_index(long h0, std::size_t extent) {
  return [h0, extent](long g) {
    if (g < h0 || g - h0 >= static_cast<long>(extent)) {
      throw std::invalid_argument("node kernel: halo does not cover the stencil");
    }
    return static_cast<std::size_t>(g - h0);
  };
}

// The x, y and z passes of a separable two-scale stencil from the halo to
// the block of extents `out_dims` at origin (ox, oy, oz).  make_taps(o,
// n_out, h0, extent) tabulates one axis: n_out outputs from block origin o
// over a halo starting at h0 with `extent` cells.
template <typename MakeTaps>
Grid3d separable_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                       const GridDims& out_dims, simd::Mode mode,
                       const MakeTaps& make_taps) {
  ThreadPool& pool = serial_pool();
  Grid3d tmp_x(GridDims{out_dims.nx, halo.ny, halo.nz});
  taps_pass_x(halo.data.data(), halo.nx, halo.ny * halo.nz,
              make_taps(ox, out_dims.nx, halo.x0, halo.nx), tmp_x.data(), mode, pool);
  Grid3d tmp_y(GridDims{out_dims.nx, out_dims.ny, halo.nz});
  taps_pass_yz(tmp_x.data(), tmp_x.dims(), 1,
               make_taps(oy, out_dims.ny, halo.y0, halo.ny), tmp_y.data(), mode, pool);
  Grid3d out(out_dims);
  taps_pass_yz(tmp_y.data(), tmp_y.dims(), 2,
               make_taps(oz, out_dims.nz, halo.z0, halo.nz), out.data(), mode, pool);
  return out;
}

}  // namespace

Grid3d restrict_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                      const GridDims& out_dims, int p,
                      std::span<const double> j_coeff, simd::Mode mode) {
  if (j_coeff.size() != static_cast<std::size_t>(p + 1)) {
    throw std::invalid_argument("restrict_block: j_coeff must hold p + 1 taps");
  }
  return separable_block(halo, ox, oy, oz, out_dims, mode,
                         [&](long o, std::size_t n_out, long h0, std::size_t extent) {
                           return restriction_taps(j_coeff, o, n_out,
                                                   halo_index(h0, extent));
                         });
}

Grid3d prolong_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                     const GridDims& out_dims, int p,
                     std::span<const double> j_coeff, simd::Mode mode) {
  if (j_coeff.size() != static_cast<std::size_t>(p + 1)) {
    throw std::invalid_argument("prolong_block: j_coeff must hold p + 1 taps");
  }
  return separable_block(halo, ox, oy, oz, out_dims, mode,
                         [&](long o, std::size_t n_out, long h0, std::size_t extent) {
                           return prolongation_taps(j_coeff, o, n_out,
                                                    halo_index(h0, extent));
                         });
}

Grid3d convolve_block_axis(const ExtendedBlock& halo, long ox, long oy, long oz,
                           const GridDims& out_dims, int axis, long reach,
                           std::size_t n_axis, const Kernel1d& kernel,
                           simd::Mode mode) {
  if (axis < 0 || axis > 2) {
    throw std::invalid_argument("convolve_block_axis: axis must be 0, 1 or 2");
  }
  const long origin[3] = {ox, oy, oz};
  const long h0[3] = {halo.x0, halo.y0, halo.z0};
  const std::size_t extent[3] = {halo.nx, halo.ny, halo.nz};
  const std::size_t n_out[3] = {out_dims.nx, out_dims.ny, out_dims.nz};
  for (int a = 0; a < 3; ++a) {
    if (a != axis && extent[a] != n_out[a]) {
      throw std::invalid_argument("convolve_block_axis: halo and block extents differ");
    }
  }
  // Output g reads g - m, m ascending, with offsets beyond the clamped reach
  // folded into the level period.
  const auto index = halo_index(h0[axis], extent[axis]);
  AxisTaps t;
  t.reserve(n_out[axis], kernel.taps.size());
  for (long g = origin[axis]; g < origin[axis] + static_cast<long>(n_out[axis]); ++g) {
    t.start_output();
    for (int m = -kernel.cutoff; m <= kernel.cutoff; ++m) {
      long off = -m;
      if (off > reach) off -= static_cast<long>(n_axis);
      if (off < -reach) off += static_cast<long>(n_axis);
      t.add(kernel.tap(m), index(g + off));
    }
  }
  t.finish();
  Grid3d out(out_dims);
  if (axis == 0) {
    taps_pass_x(halo.data.data(), halo.nx, halo.ny * halo.nz, t, out.data(), mode,
                serial_pool());
  } else {
    taps_pass_yz(halo.data.data(), {halo.nx, halo.ny, halo.nz}, axis, t, out.data(), mode,
                 serial_pool());
  }
  return out;
}

ExtendedBlock ca_spread_block(std::span<const Vec3> positions,
                              std::span<const double> charges, const Box& box,
                              const Vec3& h, int p, long x0, long y0, long z0,
                              std::size_t ex, std::size_t ey, std::size_t ez,
                              const GridDims& global) {
  check_order(p);
  ExtendedBlock buffer;
  buffer.reset(x0, y0, z0, ex, ey, ez);
  const simd::Mode mode = simd::mode_from_env();
  for_each_atom_weights(
      positions, box, h, p, false, mode, 0, positions.size(),
      [&](std::size_t i, const AtomWeights& aw) {
        const long mx0 = unwrap_base(p, aw.base[0], buffer.x0,
                                     buffer.x0 + static_cast<long>(buffer.nx),
                                     static_cast<long>(global.nx));
        const long my0 = unwrap_base(p, aw.base[1], buffer.y0,
                                     buffer.y0 + static_cast<long>(buffer.ny),
                                     static_cast<long>(global.ny));
        const long mz0 = unwrap_base(p, aw.base[2], buffer.z0,
                                     buffer.z0 + static_cast<long>(buffer.nz),
                                     static_cast<long>(global.nz));
        spread_atom(buffer.data.data(), {ex, ey, ez}, static_cast<std::size_t>(mx0 - x0),
                    static_cast<std::size_t>(my0 - y0), static_cast<std::size_t>(mz0 - z0),
                    p, charges[i], aw.w[0], aw.w[1], aw.w[2], mode);
      });
  return buffer;
}

BiBlockResult bi_interpolate_block(const ExtendedBlock& halo,
                                   std::span<const Vec3> positions,
                                   std::span<const double> charges,
                                   const Box& box, const Vec3& h, int p,
                                   const GridDims& global) {
  check_order(p);
  BiBlockResult res;
  res.forces.assign(positions.size(), Vec3{});
  const simd::Mode mode = simd::mode_from_env();
  for_each_atom_weights(
      positions, box, h, p, true, mode, 0, positions.size(),
      [&](std::size_t i, const AtomWeights& aw) {
        const long mx0 = unwrap_base(p, aw.base[0], halo.x0,
                                     halo.x0 + static_cast<long>(halo.nx),
                                     static_cast<long>(global.nx));
        const long my0 = unwrap_base(p, aw.base[1], halo.y0,
                                     halo.y0 + static_cast<long>(halo.ny),
                                     static_cast<long>(global.ny));
        const long mz0 = unwrap_base(p, aw.base[2], halo.z0,
                                     halo.z0 + static_cast<long>(halo.nz),
                                     static_cast<long>(global.nz));
        double phi = 0.0;
        Vec3 grad{};  // d phi / d u (grid units)
        interpolate_atom(halo.data.data(), {halo.nx, halo.ny, halo.nz},
                         static_cast<std::size_t>(mx0 - halo.x0),
                         static_cast<std::size_t>(my0 - halo.y0),
                         static_cast<std::size_t>(mz0 - halo.z0), p, aw.w[0], aw.d[0],
                         aw.w[1], aw.d[1], aw.w[2], aw.d[2], mode, phi, grad);
        const double q = charges[i];
        res.q_phi += q * phi;
        res.forces[i] = {-q * grad.x / h.x, -q * grad.y / h.y, -q * grad.z / h.z};
      });
  return res;
}

}  // namespace tme::par
