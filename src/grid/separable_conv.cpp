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

// Each x-line runs from its periodically padded copy
// pad[j] = src[(j - pad_c) mod nx], j in [0, nx + 2 pad_c): output n reads
// src[(n - m) mod nx] = pad[n + pad_c - m] over m = -c..c ascending, a
// sliding window.  pad_c >= c may exceed the kernel's own cutoff, so terms
// of different cutoffs can share one padded line.
AxisTaps x_window_taps(const Kernel1d& k, std::size_t nx, std::size_t pad_c) {
  const std::size_t uc = static_cast<std::size_t>(k.cutoff);
  AxisTaps taps;
  taps.reserve(nx, 2 * uc + 1);
  for (std::size_t n = 0; n < nx; ++n) {
    taps.start_output();
    for (std::size_t t = 0; t <= 2 * uc; ++t) taps.add(k.taps[t], n + pad_c + uc - t);
  }
  taps.finish();
  return taps;
}

// The padded copy of one x-line for x_window_taps; pad_c < nx, so each pad
// side wraps at most once.
void pad_line(const double* row, std::size_t nx, std::size_t pad_c, double* pad) {
  std::copy(row + nx - pad_c, row + nx, pad);
  std::copy(row, row + nx, pad + pad_c);
  std::copy(row, row + pad_c, pad + pad_c + nx);
}

// y/z: output n reads the rows (n - m) mod n_axis, m ascending.
AxisTaps periodic_taps(const Kernel1d& k, std::size_t n_axis) {
  AxisTaps taps;
  taps.reserve(n_axis, k.taps.size());
  for (std::size_t n = 0; n < n_axis; ++n) {
    taps.start_output();
    for (int m = -k.cutoff; m <= k.cutoff; ++m) {
      taps.add(k.tap(m), Grid3d::wrap(static_cast<long>(n) - m, n_axis));
    }
  }
  taps.finish();
  return taps;
}

// Kernels wider than the periodic domain would double-count images in a way
// the truncated hardware kernel never does; reject loudly.
void check_cutoff(const Kernel1d& k, std::size_t n_axis) {
  check_kernel(k);
  if (2 * static_cast<long>(k.cutoff) + 1 > 2 * static_cast<long>(n_axis)) {
    throw std::invalid_argument("convolve_axis: kernel cutoff exceeds grid period");
  }
}

}  // namespace

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out) {
  convolve_axis(in, kernel, axis, out, simd::mode_from_env());
}

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out, simd::Mode mode) {
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_axis: dimension mismatch");
  }
  if (&in == &out) throw std::invalid_argument("convolve_axis: in-place not supported");
  const auto [nx, ny, nz] = in.dims();
  const std::size_t n_axis = axis == ConvAxis::kX   ? nx
                             : axis == ConvAxis::kY ? ny
                                                    : nz;
  check_cutoff(kernel, n_axis);
  const double* src = in.data();
  double* dst = out.data();
  if (axis == ConvAxis::kX) {
    const std::size_t uc = static_cast<std::size_t>(kernel.cutoff);
    const AxisTaps taps = x_window_taps(kernel, nx, uc);
    parallel_for_ranges(0, ny * nz, [&](std::size_t first, std::size_t last) {
      const ScratchRows pad = scratch_rows(nx + 2 * uc);
      for (std::size_t line = first; line < last; ++line) {
        pad_line(src + line * nx, nx, uc, pad.get());
        taps_row_x(pad.get(), taps, dst + line * nx, mode);
      }
    });
    return;
  }
  taps_pass_yz(src, in.dims(), axis == ConvAxis::kY ? 1 : 2, periodic_taps(kernel, n_axis),
               dst, mode, global_pool());
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
  convolve_tensor(in, terms, scale, out, simd::mode_from_env(), global_pool());
}

void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out, simd::Mode mode, ThreadPool& pool) {
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_tensor: dimension mismatch");
  }
  if (terms.empty()) return;
  const auto [nx, ny, nz] = in.dims();
  std::size_t pad_c = 0;
  for (const SeparableTerm& term : terms) {
    check_cutoff(term.kx, nx);
    check_cutoff(term.ky, ny);
    check_cutoff(term.kz, nz);
    pad_c = std::max(pad_c, static_cast<std::size_t>(term.kx.cutoff));
  }
  const std::size_t m = terms.size();
  std::vector<AxisTaps> x_taps, y_taps, z_taps;
  for (const SeparableTerm& term : terms) {
    x_taps.push_back(x_window_taps(term.kx, nx, pad_c));
    y_taps.push_back(periodic_taps(term.ky, ny));
    z_taps.push_back(periodic_taps(term.kz, nz));
  }
  // Pass 1, per z-plane: pad the plane's x-lines once, then for every term
  // the x pass into a plane scratch and the y pass into that term's work
  // grid (both stay inside the plane).  Every work cell is written.
  const std::size_t plane = nx * ny;
  const std::size_t cells = plane * nz;
  const ScratchRows work = scratch_rows(m * cells);
  const double* src = in.data();
  const std::size_t pad_len = nx + 2 * pad_c;
  parallel_for_ranges(pool, 0, nz, [&](std::size_t first, std::size_t last) {
    const ScratchRows padded = scratch_rows(ny * pad_len);
    const ScratchRows x_plane = scratch_rows(plane);
    for (std::size_t iz = first; iz < last; ++iz) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        pad_line(src + iz * plane + iy * nx, nx, pad_c, padded.get() + iy * pad_len);
      }
      for (std::size_t t = 0; t < m; ++t) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
          taps_row_x(padded.get() + iy * pad_len, x_taps[t], x_plane.get() + iy * nx, mode);
        }
        taps_plane_y(x_plane.get(), nx, y_taps[t], work.get() + t * cells + iz * plane, mode);
      }
    }
  });
  // Pass 2, per y-row: the z pass of every term in term order, each adding
  // scale * result into `out` cell by cell — the order of the term-by-term
  // sum.
  parallel_for_ranges(pool, 0, ny, [&](std::size_t first, std::size_t last) {
    const ScratchRows stage = scratch_rows(nz * nx);
    for (std::size_t iy = first; iy < last; ++iy) {
      for (std::size_t t = 0; t < m; ++t) {
        taps_column_z(work.get() + t * cells, in.dims(), iy, z_taps[t], out.data(),
                      stage.get(), mode, &scale);
      }
    }
  });
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
