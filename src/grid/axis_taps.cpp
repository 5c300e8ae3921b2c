#include "grid/axis_taps.hpp"

#include <bit>
#include <cstdint>

#include "util/parallel.hpp"

namespace tme {

namespace {

// Stores one block of n outputs: dst = acc, or dst += scale * acc when
// `scale` is non-null.
template <int W>
void store_out(simd::vec<double, W> acc, double* dst, int n, const double* scale) {
  using V = simd::vec<double, W>;
  if (scale != nullptr) {
    acc = (n == W ? V::load(dst) : V::load_partial(dst, n)) + V::broadcast(*scale) * acc;
  }
  if (n == W) {
    acc.store(dst);
  } else {
    acc.store_partial(dst, n);
  }
}

// A window x-row: output n reads in_row[src[0] + n - k] over output 0's
// taps k, so W outputs share one contiguous load per tap.
template <int W>
void window_row(const double* in_row, const AxisTaps& t, double* out_row,
                const double* scale) {
  using V = simd::vec<double, W>;
  const std::size_t taps = t.begin[1];
  const double* w = t.weight.data();
  const double* first = in_row + t.src[0];
  const std::size_t n_out = t.outputs();
  std::size_t n = 0;
  for (; n + W <= n_out; n += W) {
    const double* p = first + n;
    V acc = V::zero();
    for (std::size_t k = 0; k < taps; ++k) {
      acc = V::fma(V::broadcast(w[k]), V::load(p - k), acc);
    }
    store_out<W>(acc, out_row + n, W, scale);
  }
  if (n < n_out) {
    const int tail = static_cast<int>(n_out - n);
    const double* p = first + n;
    V acc = V::zero();
    for (std::size_t k = 0; k < taps; ++k) {
      acc = V::fma(V::broadcast(w[k]), V::load_partial(p - k, tail), acc);
    }
    store_out<W>(acc, out_row + n, tail, scale);
  }
}

// One y- or z-pass output row of nx elements: every tap k in [k0, k1) reads
// the contiguous source x-row at base + src[k] * stride, W elements at a time.
template <int W>
void strided_row(const double* base, std::size_t stride, const double* weight,
                 const std::size_t* src, std::size_t k0, std::size_t k1,
                 double* dst_row, std::size_t nx, const double* scale) {
  using V = simd::vec<double, W>;
  std::size_t ix = 0;
  for (; ix + W <= nx; ix += W) {
    V acc = V::zero();
    for (std::size_t k = k0; k < k1; ++k) {
      acc = V::fma(V::broadcast(weight[k]), V::load(base + src[k] * stride + ix), acc);
    }
    store_out<W>(acc, dst_row + ix, W, scale);
  }
  if (ix < nx) {
    const int tail = static_cast<int>(nx - ix);
    V acc = V::zero();
    for (std::size_t k = k0; k < k1; ++k) {
      acc = V::fma(V::broadcast(weight[k]),
                   V::load_partial(base + src[k] * stride + ix, tail), acc);
    }
    store_out<W>(acc, dst_row + ix, tail, scale);
  }
}

// taps_pass_yz at one width, parallel over the planes (axis 1) or the
// y-rows (axis 2) of the input, with every output n innermost so that
// consecutive outputs reuse the input rows their taps share.
template <int W>
void pass_yz(const double* in, GridDims in_dims, int axis, const AxisTaps& t,
             double* out, ThreadPool& pool, const double* scale) {
  const std::size_t nx = in_dims.nx;
  const std::size_t plane_in = nx * in_dims.ny;
  const std::size_t n_out = t.outputs();
  const double* weight = t.weight.data();
  const std::size_t* src = t.src.data();
  const std::size_t* begin = t.begin.data();
  if (axis == 1) {
    parallel_for(pool, 0, in_dims.nz, [&](std::size_t iz) {
      for (std::size_t n = 0; n < n_out; ++n) {
        strided_row<W>(in + iz * plane_in, nx, weight, src, begin[n], begin[n + 1],
                       out + (iz * n_out + n) * nx, nx, scale);
      }
    });
  } else {
    parallel_for(pool, 0, in_dims.ny, [&](std::size_t iy) {
      for (std::size_t n = 0; n < n_out; ++n) {
        strided_row<W>(in + iy * nx, plane_in, weight, src, begin[n], begin[n + 1],
                       out + (n * in_dims.ny + iy) * nx, nx, scale);
      }
    });
  }
}

}  // namespace

void AxisTaps::finish() {
  begin.push_back(weight.size());
  const std::size_t n_out = outputs();
  const std::size_t taps = n_out == 0 ? 0 : begin[1];
  window = n_out > 0;
  for (std::size_t n = 0; n < n_out && window; ++n) {
    window = begin[n + 1] - begin[n] == taps;
    for (std::size_t k = 0; k < taps && window; ++k) {
      window = std::bit_cast<std::uint64_t>(weight[begin[n] + k]) ==
                   std::bit_cast<std::uint64_t>(weight[k]) &&
               src[begin[n] + k] + k == src[0] + n;
    }
  }
}

void taps_row_x(const double* in_row, const AxisTaps& t, double* out_row,
                simd::Mode mode, const double* scale) {
  if (t.window) {
    if (mode == simd::Mode::kNative) {
      window_row<simd::kNativeWidth>(in_row, t, out_row, scale);
    } else {
      window_row<1>(in_row, t, out_row, scale);
    }
    return;
  }
  const std::size_t n_out = t.outputs();
  for (std::size_t n = 0; n < n_out; ++n) {
    double acc = 0.0;
    for (std::size_t k = t.begin[n]; k < t.begin[n + 1]; ++k) {
      acc = simd::fma1(t.weight[k], in_row[t.src[k]], acc);
    }
    out_row[n] = scale != nullptr ? out_row[n] + *scale * acc : acc;
  }
}

void taps_pass_x(const double* in, std::size_t in_len, std::size_t rows,
                 const AxisTaps& t, double* out, simd::Mode mode, ThreadPool& pool) {
  const std::size_t out_len = t.outputs();
  parallel_for_ranges(pool, 0, rows, [&](std::size_t first, std::size_t last) {
    for (std::size_t r = first; r < last; ++r) {
      taps_row_x(in + r * in_len, t, out + r * out_len, mode);
    }
  });
}

void taps_pass_yz(const double* in, GridDims in_dims, int axis, const AxisTaps& t,
                  double* out, simd::Mode mode, ThreadPool& pool,
                  const double* scale) {
  if (mode == simd::Mode::kNative) {
    pass_yz<simd::kNativeWidth>(in, in_dims, axis, t, out, pool, scale);
  } else {
    pass_yz<1>(in, in_dims, axis, t, out, pool, scale);
  }
}

}  // namespace tme
