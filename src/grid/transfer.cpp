#include "grid/transfer.hpp"

#include <vector>

#include "spline/two_scale.hpp"
#include "util/parallel.hpp"

namespace tme {

namespace {

// The taps of one axis pass: output index n reads
//   out[n] = sum_{t in [begin[n], begin[n+1])} weight[t] * in[src[t]]
// with src already wrapped into [0, n_in) and the taps in ascending-k order.
struct AxisTaps {
  std::vector<double> weight;
  std::vector<std::size_t> src;
  std::vector<std::size_t> begin;  // size n_out + 1
};

// Restriction: out[m] = sum_{|k| <= p/2} J_k in[(2m + k) mod n_in].
AxisTaps restriction_taps(const std::vector<double>& j, int half_p,
                          std::size_t n_in) {
  const std::size_t n_out = n_in / 2;
  AxisTaps t;
  t.begin.reserve(n_out + 1);
  for (std::size_t m = 0; m < n_out; ++m) {
    t.begin.push_back(t.weight.size());
    for (int k = -half_p; k <= half_p; ++k) {
      t.weight.push_back(j[static_cast<std::size_t>(k + half_p)]);
      t.src.push_back(Grid3d::wrap(2 * static_cast<long>(m) + k, n_in));
    }
  }
  t.begin.push_back(t.weight.size());
  return t;
}

// Prolongation: out[n] = sum_m J_{n-2m} in[m mod n_in].  Since |n - 2m| <=
// p/2, output n reads m = (n - k)/2 over the k of n's parity only — the
// polyphase split of the upsample-then-convolve operator.
AxisTaps prolongation_taps(const std::vector<double>& j, int half_p,
                           std::size_t n_in) {
  const std::size_t n_out = 2 * n_in;
  AxisTaps t;
  t.begin.reserve(n_out + 1);
  for (std::size_t n = 0; n < n_out; ++n) {
    t.begin.push_back(t.weight.size());
    const long nl = static_cast<long>(n);
    for (int k = -half_p; k <= half_p; ++k) {
      if (((nl - k) & 1L) != 0) continue;
      t.weight.push_back(j[static_cast<std::size_t>(k + half_p)]);
      t.src.push_back(Grid3d::wrap((nl - k) / 2, n_in));
    }
  }
  t.begin.push_back(t.weight.size());
  return t;
}

// x pass: each output row is a scalar fma chain per element over its taps.
void apply_x(const Grid3d& in, const AxisTaps& t, Grid3d& out, ThreadPool& pool) {
  const std::size_t nx_in = in.dims().nx;
  const std::size_t nx_out = out.dims().nx;
  const double* src = in.data();
  double* dst = out.data();
  parallel_for(pool, 0, out.dims().ny * out.dims().nz, [&](std::size_t r) {
    const double* in_row = src + r * nx_in;
    double* out_row = dst + r * nx_out;
    for (std::size_t n = 0; n < nx_out; ++n) {
      double acc = 0.0;
      for (std::size_t k = t.begin[n]; k < t.begin[n + 1]; ++k) {
        acc = simd::fma1(t.weight[k], in_row[t.src[k]], acc);
      }
      out_row[n] = acc;
    }
  });
}

// One y- or z-pass output row of nx elements: every tap reads the contiguous
// source x-row at base + src[k] * stride, W elements at a time, with the
// per-element tap order of the x pass's scalar chain.
template <int W>
void tap_row(const double* base, std::size_t stride, const AxisTaps& t,
             std::size_t n, double* dst_row, std::size_t nx) {
  using V = simd::vec<double, W>;
  const std::size_t k0 = t.begin[n], k1 = t.begin[n + 1];
  std::size_t ix = 0;
  for (; ix + W <= nx; ix += W) {
    V acc = V::zero();
    for (std::size_t k = k0; k < k1; ++k) {
      acc = V::fma(V::broadcast(t.weight[k]),
                   V::load(base + t.src[k] * stride + ix), acc);
    }
    acc.store(dst_row + ix);
  }
  if (ix < nx) {
    const int tail = static_cast<int>(nx - ix);
    V acc = V::zero();
    for (std::size_t k = k0; k < k1; ++k) {
      acc = V::fma(V::broadcast(t.weight[k]),
                   V::load_partial(base + t.src[k] * stride + ix, tail), acc);
    }
    acc.store_partial(dst_row + ix, tail);
  }
}

// y (axis 1) or z (axis 2) pass, parallel over every (y, z) output row.
void apply_yz(const Grid3d& in, const AxisTaps& t, int axis, Grid3d& out,
              simd::Mode mode, ThreadPool& pool) {
  const std::size_t nx = in.dims().nx;
  const std::size_t plane_in = nx * in.dims().ny;
  const std::size_t ny = out.dims().ny;
  const double* src = in.data();
  double* dst = out.data();
  parallel_for_ranges(pool, 0, ny * out.dims().nz, [&](std::size_t first,
                                                       std::size_t last) {
    std::size_t iz = first / ny, iy = first - iz * ny;
    for (std::size_t r = first; r < last; ++r) {
      // Axis 1 taps walk y-rows of plane iz; axis 2 taps walk the planes.
      const double* base = axis == 1 ? src + iz * plane_in : src + iy * nx;
      const std::size_t stride = axis == 1 ? nx : plane_in;
      const std::size_t n = axis == 1 ? iy : iz;
      if (mode == simd::Mode::kNative) {
        tap_row<simd::kNativeWidth>(base, stride, t, n, dst + r * nx, nx);
      } else {
        tap_row<1>(base, stride, t, n, dst + r * nx, nx);
      }
      if (++iy == ny) {
        iy = 0;
        ++iz;
      }
    }
  });
}

using MakeTaps = AxisTaps (*)(const std::vector<double>& j, int half_p,
                              std::size_t n_in);

// The x, y and z passes from `in` to a grid of extents `o`, each axis with
// the taps make_taps builds for its input extent.
Grid3d transfer(const Grid3d& in, int p, GridDims o, MakeTaps make_taps,
                simd::Mode mode, ThreadPool& pool) {
  const std::vector<double> j = two_scale_coefficients(p);
  const int half_p = p / 2;
  const GridDims i = in.dims();
  Grid3d tmp_x(GridDims{o.nx, i.ny, i.nz});
  apply_x(in, make_taps(j, half_p, i.nx), tmp_x, pool);
  Grid3d tmp_y(GridDims{o.nx, o.ny, i.nz});
  apply_yz(tmp_x, make_taps(j, half_p, i.ny), 1, tmp_y, mode, pool);
  Grid3d out(o);
  apply_yz(tmp_y, make_taps(j, half_p, i.nz), 2, out, mode, pool);
  return out;
}

}  // namespace

Grid3d restrict_grid(const Grid3d& fine, int p) {
  return restrict_grid(fine, p, simd::mode_from_env(), global_pool());
}

Grid3d restrict_grid(const Grid3d& fine, int p, simd::Mode mode, ThreadPool& pool) {
  return transfer(fine, p, fine.dims().halved(), restriction_taps, mode, pool);
}

Grid3d prolong_grid(const Grid3d& coarse, int p) {
  return prolong_grid(coarse, p, simd::mode_from_env(), global_pool());
}

Grid3d prolong_grid(const Grid3d& coarse, int p, simd::Mode mode, ThreadPool& pool) {
  const GridDims c = coarse.dims();
  return transfer(coarse, p, GridDims{2 * c.nx, 2 * c.ny, 2 * c.nz},
                  prolongation_taps, mode, pool);
}

}  // namespace tme
