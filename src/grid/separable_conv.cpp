#include "grid/separable_conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tme {

namespace {

void check_kernel(const Kernel1d& k) {
  if (k.taps.size() != static_cast<std::size_t>(2 * k.cutoff + 1)) {
    throw std::invalid_argument("Kernel1d: taps size must be 2*cutoff+1");
  }
}

// Stores one block of n outputs: dst = acc, or dst += scale * acc when
// `scale` is non-null (convolve_tensor's accumulation, fused into the pass).
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

// One x-axis line of outputs from its periodically padded copy
// pad[j] = src[(j - c) mod nx], j in [0, nx + 2c): output n reads the
// contiguous window pad[n + 2c - t], so every output runs W at a time with
// the same per-element fma chain over the taps in both instantiations.
template <int W>
void conv_line_x(const double* pad, double* dst, std::size_t nx,
                 const double* taps, std::size_t ntaps, const double* scale) {
  using V = simd::vec<double, W>;
  const std::size_t c2 = ntaps - 1;
  std::size_t n = 0;
  for (; n + W <= nx; n += W) {
    V acc = V::zero();
    for (std::size_t t = 0; t < ntaps; ++t) {
      acc = V::fma(V::broadcast(taps[t]), V::load(pad + n + c2 - t), acc);
    }
    store_out<W>(acc, dst + n, W, scale);
  }
  if (n < nx) {
    const int tail = static_cast<int>(nx - n);
    V acc = V::zero();
    for (std::size_t t = 0; t < ntaps; ++t) {
      acc = V::fma(V::broadcast(taps[t]), V::load_partial(pad + n + c2 - t, tail),
                   acc);
    }
    store_out<W>(acc, dst + n, tail, scale);
  }
}

// One y- or z-axis output row: every tap reads the contiguous x-row at
// src[wrap_row[t] * stride + row_off + ix], so the whole row vectorizes
// across ix with the per-element tap order unchanged.
template <int W>
void conv_strided_row(const double* src, const std::size_t* wrap_row,
                      std::size_t stride, std::size_t row_off, double* dst_row,
                      std::size_t nx, const double* taps, std::size_t ntaps,
                      const double* scale) {
  using V = simd::vec<double, W>;
  std::size_t ix = 0;
  for (; ix + W <= nx; ix += W) {
    V acc = V::zero();
    for (std::size_t t = 0; t < ntaps; ++t) {
      acc = V::fma(V::broadcast(taps[t]),
                   V::load(src + wrap_row[t] * stride + row_off + ix), acc);
    }
    store_out<W>(acc, dst_row + ix, W, scale);
  }
  if (ix < nx) {
    const int tail = static_cast<int>(nx - ix);
    V acc = V::zero();
    for (std::size_t t = 0; t < ntaps; ++t) {
      acc = V::fma(V::broadcast(taps[t]),
                   V::load_partial(src + wrap_row[t] * stride + row_off + ix, tail),
                   acc);
    }
    store_out<W>(acc, dst_row + ix, tail, scale);
  }
}

// convolve_axis, writing out = conv(in) or, with a non-null `scale`,
// accumulating out += scale * conv(in).
void convolve_axis_into(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                        Grid3d& out, simd::Mode mode, const double* scale) {
  check_kernel(kernel);
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_axis: dimension mismatch");
  }
  if (&in == &out) throw std::invalid_argument("convolve_axis: in-place not supported");
  const auto [nx, ny, nz] = in.dims();
  const int c = kernel.cutoff;
  const std::size_t n_axis = axis == ConvAxis::kX   ? nx
                             : axis == ConvAxis::kY ? ny
                                                    : nz;
  if (2 * static_cast<long>(c) + 1 > 2 * static_cast<long>(n_axis)) {
    // Kernels wider than the periodic domain would double-count images in a
    // way the truncated hardware kernel never does; reject loudly.
    throw std::invalid_argument("convolve_axis: kernel cutoff exceeds grid period");
  }

  const double* src = in.data();
  double* dst = out.data();
  const double* tap = kernel.taps.data();
  const std::size_t taps = static_cast<std::size_t>(2 * c + 1);
  const std::size_t uc = static_cast<std::size_t>(c);
  const bool native = mode == simd::Mode::kNative;

  if (axis == ConvAxis::kX) {
    // c < nx (checked above), so each pad side wraps at most once.
    parallel_for_ranges(0, ny * nz, [&](std::size_t first, std::size_t last) {
      std::vector<double> pad(nx + 2 * uc);
      for (std::size_t line = first; line < last; ++line) {
        const double* row = src + line * nx;
        std::copy(row + nx - uc, row + nx, pad.begin());
        std::copy(row, row + nx, pad.begin() + static_cast<long>(uc));
        std::copy(row, row + uc, pad.begin() + static_cast<long>(uc + nx));
        if (native) {
          conv_line_x<simd::kNativeWidth>(pad.data(), dst + line * nx, nx, tap,
                                          taps, scale);
        } else {
          conv_line_x<1>(pad.data(), dst + line * nx, nx, tap, taps, scale);
        }
      }
    });
    return;
  }

  // Wrapped source index for each output index along the axis:
  // wrapped[n * (2c+1) + (m+c)] = (n - m) mod n_axis.
  std::vector<std::size_t> wrapped(n_axis * taps);
  for (std::size_t n = 0; n < n_axis; ++n) {
    for (int m = -c; m <= c; ++m) {
      wrapped[n * taps + static_cast<std::size_t>(m + c)] =
          Grid3d::wrap(static_cast<long>(n) - m, n_axis);
    }
  }
  auto row = [&](const double* base, const std::size_t* wrap_row, std::size_t stride,
                 std::size_t row_off, double* dst_row) {
    if (native) {
      conv_strided_row<simd::kNativeWidth>(base, wrap_row, stride, row_off,
                                           dst_row, nx, tap, taps, scale);
    } else {
      conv_strided_row<1>(base, wrap_row, stride, row_off, dst_row, nx, tap, taps,
                          scale);
    }
  };
  if (axis == ConvAxis::kY) {
    parallel_for(0, nz, [&](std::size_t iz) {
      const std::size_t plane = iz * ny * nx;
      for (std::size_t n = 0; n < ny; ++n) {
        row(src + plane, wrapped.data() + n * taps, nx, 0, dst + plane + n * nx);
      }
    });
  } else {
    const std::size_t plane = ny * nx;
    parallel_for(0, ny, [&](std::size_t iy) {
      for (std::size_t n = 0; n < nz; ++n) {
        row(src, wrapped.data() + n * taps, plane, iy * nx, dst + n * plane + iy * nx);
      }
    });
  }
}

}  // namespace

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out) {
  convolve_axis(in, kernel, axis, out, simd::mode_from_env());
}

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out, simd::Mode mode) {
  convolve_axis_into(in, kernel, axis, out, mode, nullptr);
}

Grid3d convolve_separable(const Grid3d& in, const Kernel1d& kx,
                          const Kernel1d& ky, const Kernel1d& kz) {
  Grid3d tmp1(in.dims());
  Grid3d tmp2(in.dims());
  convolve_axis(in, kx, ConvAxis::kX, tmp1);
  convolve_axis(tmp1, ky, ConvAxis::kY, tmp2);
  convolve_axis(tmp2, kz, ConvAxis::kZ, tmp1);
  return tmp1;
}

void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out) {
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_tensor: dimension mismatch");
  }
  const simd::Mode mode = simd::mode_from_env();
  Grid3d tmp_x(in.dims());
  Grid3d tmp_y(in.dims());
  for (const SeparableTerm& term : terms) {
    convolve_axis_into(in, term.kx, ConvAxis::kX, tmp_x, mode, nullptr);
    convolve_axis_into(tmp_x, term.ky, ConvAxis::kY, tmp_y, mode, nullptr);
    convolve_axis_into(tmp_y, term.kz, ConvAxis::kZ, out, mode, &scale);
  }
}

void convolve_dense3d(const Grid3d& in, const std::vector<double>& taps3d,
                      int cutoff, Grid3d& out) {
  const std::size_t width = static_cast<std::size_t>(2 * cutoff + 1);
  if (taps3d.size() != width * width * width) {
    throw std::invalid_argument("convolve_dense3d: taps size must be (2c+1)^3");
  }
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_dense3d: dimension mismatch");
  }
  const auto [nx, ny, nz] = in.dims();
  parallel_for(0, nz, [&](std::size_t izs) {
    const long iz = static_cast<long>(izs);
    for (long iy = 0; iy < static_cast<long>(ny); ++iy) {
      for (long ix = 0; ix < static_cast<long>(nx); ++ix) {
        double acc = 0.0;
        for (int mz = -cutoff; mz <= cutoff; ++mz) {
          for (int my = -cutoff; my <= cutoff; ++my) {
            for (int mx = -cutoff; mx <= cutoff; ++mx) {
              const double tap =
                  taps3d[(static_cast<std::size_t>(mz + cutoff) * width +
                          static_cast<std::size_t>(my + cutoff)) *
                             width +
                         static_cast<std::size_t>(mx + cutoff)];
              acc += tap * in.at_wrapped(ix - mx, iy - my, iz - mz);
            }
          }
        }
        out.at(static_cast<std::size_t>(ix), static_cast<std::size_t>(iy),
               static_cast<std::size_t>(izs)) = acc;
      }
    }
  });
}

}  // namespace tme
