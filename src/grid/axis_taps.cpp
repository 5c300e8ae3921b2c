#include "grid/axis_taps.hpp"

#include <algorithm>
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

// G W-wide accumulators over the taps [k0, k1), with the tap loop outermost
// so that the G fma chains are in flight together.  Block g of the output
// reads its tap-k operand at src(k) + g * W; when Partial, the last block
// holds only `last` lanes.  Every element still sees one fma chain over the
// taps in order, as a lone accumulator would compute it.
template <int W, int G, bool Partial, typename Src>
void accumulate_blocks(const double* weight, std::size_t k0, std::size_t k1,
                       const Src& src, int last, double* dst, const double* scale) {
  using V = simd::vec<double, W>;
  V acc[G] = {};
  for (std::size_t k = k0; k < k1; ++k) {
    const V wk = V::broadcast(weight[k]);
    const double* s = src(k);
    for (int g = 0; g < G; ++g) {
      const V x = Partial && g == G - 1 ? V::load_partial(s + g * W, last)
                                        : V::load(s + g * W);
      acc[g] = V::fma(wk, x, acc[g]);
    }
  }
  for (int g = 0; g < G; ++g) {
    store_out<W>(acc[g], dst + g * W, Partial && g == G - 1 ? last : W, scale);
  }
}

// `len` contiguous outputs dst[i] = sum_k weight[k] * src(k)[i]: groups of
// four W-wide accumulators, then one group of up to four for the rest.
template <int W, typename Src>
void accumulate_span(const double* weight, std::size_t k0, std::size_t k1,
                     std::size_t len, const Src& src, double* dst, const double* scale) {
  constexpr std::size_t kGroup = 4 * W;
  std::size_t i = 0;
  const auto at = [&](std::size_t k) { return src(k) + i; };
  for (; i + kGroup <= len; i += kGroup) {
    accumulate_blocks<W, 4, false>(weight, k0, k1, at, W, dst + i, scale);
  }
  const std::size_t rest = len - i;
  const int full = static_cast<int>(rest / W);
  const int tail = static_cast<int>(rest % W);
  double* d = dst + i;
  if (tail == 0) {
    switch (full) {
      case 1: accumulate_blocks<W, 1, false>(weight, k0, k1, at, W, d, scale); break;
      case 2: accumulate_blocks<W, 2, false>(weight, k0, k1, at, W, d, scale); break;
      case 3: accumulate_blocks<W, 3, false>(weight, k0, k1, at, W, d, scale); break;
      default: break;
    }
    return;
  }
  if constexpr (W > 1) {
    switch (full) {
      case 0: accumulate_blocks<W, 1, true>(weight, k0, k1, at, tail, d, scale); break;
      case 1: accumulate_blocks<W, 2, true>(weight, k0, k1, at, tail, d, scale); break;
      case 2: accumulate_blocks<W, 3, true>(weight, k0, k1, at, tail, d, scale); break;
      default: accumulate_blocks<W, 4, true>(weight, k0, k1, at, tail, d, scale); break;
    }
  }
}

// A window x-row: output n reads in_row[src[0] + n - k] over output 0's
// taps k, so W outputs share one contiguous load per tap.
template <int W>
void window_row(const double* in_row, const AxisTaps& t, double* out_row) {
  const double* first = in_row + t.src[0];
  accumulate_span<W>(t.weight.data(), 0, t.begin[1], t.outputs(),
                     [first](std::size_t k) { return first - k; }, out_row, nullptr);
}

// The y pass of one plane: output row n of nx elements reads the plane's
// rows src[k] over its taps.
template <int W>
void plane_rows(const double* in_plane, std::size_t nx, const AxisTaps& t,
                double* out_plane) {
  const std::size_t* src = t.src.data();
  for (std::size_t n = 0; n < t.outputs(); ++n) {
    accumulate_span<W>(t.weight.data(), t.begin[n], t.begin[n + 1], nx,
                       [=](std::size_t k) { return in_plane + src[k] * nx; },
                       out_plane + n * nx, nullptr);
  }
}

// The z pass of y-row iy: its nz x-rows are 8 KB apart in a 32^3 grid, so
// all of them would share one L1 set; they are first copied into `stage`
// (nz * nx contiguous values), and the taps then read the staged rows.
template <int W>
void column_rows(const double* in, GridDims in_dims, std::size_t iy, const AxisTaps& t,
                 double* out, double* stage, const double* scale) {
  const std::size_t nx = in_dims.nx;
  const std::size_t plane = nx * in_dims.ny;
  for (std::size_t iz = 0; iz < in_dims.nz; ++iz) {
    std::copy_n(in + iz * plane + iy * nx, nx, stage + iz * nx);
  }
  const std::size_t* src = t.src.data();
  for (std::size_t n = 0; n < t.outputs(); ++n) {
    accumulate_span<W>(t.weight.data(), t.begin[n], t.begin[n + 1], nx,
                       [=](std::size_t k) { return stage + src[k] * nx; },
                       out + n * plane + iy * nx, scale);
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
                simd::Mode mode) {
  if (t.window) {
    if (mode == simd::Mode::kNative) {
      window_row<simd::kNativeWidth>(in_row, t, out_row);
    } else {
      window_row<1>(in_row, t, out_row);
    }
    return;
  }
  const std::size_t n_out = t.outputs();
  for (std::size_t n = 0; n < n_out; ++n) {
    double acc = 0.0;
    for (std::size_t k = t.begin[n]; k < t.begin[n + 1]; ++k) {
      acc = simd::fma1(t.weight[k], in_row[t.src[k]], acc);
    }
    out_row[n] = acc;
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

void taps_plane_y(const double* in_plane, std::size_t nx, const AxisTaps& t,
                  double* out_plane, simd::Mode mode) {
  if (mode == simd::Mode::kNative) {
    plane_rows<simd::kNativeWidth>(in_plane, nx, t, out_plane);
  } else {
    plane_rows<1>(in_plane, nx, t, out_plane);
  }
}

void taps_column_z(const double* in, GridDims in_dims, std::size_t iy, const AxisTaps& t,
                   double* out, double* stage, simd::Mode mode, const double* scale) {
  if (mode == simd::Mode::kNative) {
    column_rows<simd::kNativeWidth>(in, in_dims, iy, t, out, stage, scale);
  } else {
    column_rows<1>(in, in_dims, iy, t, out, stage, scale);
  }
}

void taps_pass_yz(const double* in, GridDims in_dims, int axis, const AxisTaps& t,
                  double* out, simd::Mode mode, ThreadPool& pool) {
  const std::size_t nx = in_dims.nx;
  if (axis == 1) {
    const std::size_t plane_in = nx * in_dims.ny;
    const std::size_t plane_out = nx * t.outputs();
    parallel_for(pool, 0, in_dims.nz, [&](std::size_t iz) {
      taps_plane_y(in + iz * plane_in, nx, t, out + iz * plane_out, mode);
    });
    return;
  }
  parallel_for_ranges(pool, 0, in_dims.ny, [&](std::size_t first, std::size_t last) {
    const ScratchRows stage = scratch_rows(in_dims.nz * nx);
    for (std::size_t iy = first; iy < last; ++iy) {
      taps_column_z(in, in_dims, iy, t, out, stage.get(), mode);
    }
  });
}

}  // namespace tme
