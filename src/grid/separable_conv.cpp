#include "grid/separable_conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "grid/axis_taps.hpp"
#include "util/parallel.hpp"

namespace tme {

namespace {

void check_kernel(const Kernel1d& k) {
  if (k.taps.size() != static_cast<std::size_t>(2 * k.cutoff + 1)) {
    throw std::invalid_argument("Kernel1d: taps size must be 2*cutoff+1");
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
  const std::size_t uc = static_cast<std::size_t>(c);
  AxisTaps taps;
  taps.reserve(n_axis, 2 * uc + 1);

  if (axis == ConvAxis::kX) {
    // Each x-line runs from its periodically padded copy
    // pad[j] = src[(j - c) mod nx], j in [0, nx + 2c): output n reads
    // pad[n + 2c - t] for tap t = m + c, a sliding window.  c < nx (checked
    // above), so each pad side wraps at most once.
    for (std::size_t n = 0; n < nx; ++n) {
      taps.start_output();
      for (std::size_t t = 0; t <= 2 * uc; ++t) taps.add(kernel.taps[t], n + 2 * uc - t);
    }
    taps.finish();
    parallel_for_ranges(0, ny * nz, [&](std::size_t first, std::size_t last) {
      std::vector<double> pad(nx + 2 * uc);
      for (std::size_t line = first; line < last; ++line) {
        const double* row = src + line * nx;
        std::copy(row + nx - uc, row + nx, pad.begin());
        std::copy(row, row + nx, pad.begin() + static_cast<long>(uc));
        std::copy(row, row + uc, pad.begin() + static_cast<long>(uc + nx));
        taps_row_x(pad.data(), taps, dst + line * nx, mode, scale);
      }
    });
    return;
  }

  // y/z: output n reads the rows (n - m) mod n_axis, m ascending.
  for (std::size_t n = 0; n < n_axis; ++n) {
    taps.start_output();
    for (int m = -c; m <= c; ++m) {
      taps.add(kernel.tap(m), Grid3d::wrap(static_cast<long>(n) - m, n_axis));
    }
  }
  taps.finish();
  taps_pass_yz(src, in.dims(), axis == ConvAxis::kY ? 1 : 2, taps, dst, mode,
               global_pool(), scale);
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
