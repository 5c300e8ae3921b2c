#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "grid/grid3d.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "spline/two_scale.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

Grid3d random_grid(GridDims dims, std::uint64_t seed) {
  Grid3d g(dims);
  Rng rng(seed);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
  return g;
}

Kernel1d gaussian_kernel(int cutoff, double width) {
  Kernel1d k;
  k.cutoff = cutoff;
  k.taps.resize(static_cast<std::size_t>(2 * cutoff + 1));
  for (int m = -cutoff; m <= cutoff; ++m) {
    k.taps[static_cast<std::size_t>(m + cutoff)] = std::exp(-width * m * m);
  }
  return k;
}

TEST(Grid3d, IndexingIsXFastest) {
  Grid3d g(4, 3, 2);
  EXPECT_EQ(g.index(1, 0, 0), 1u);
  EXPECT_EQ(g.index(0, 1, 0), 4u);
  EXPECT_EQ(g.index(0, 0, 1), 12u);
  EXPECT_EQ(g.size(), 24u);
}

TEST(Grid3d, WrappedAccessIsPeriodic) {
  Grid3d g(4, 4, 4);
  g.at(3, 0, 1) = 7.5;
  EXPECT_EQ(g.at_wrapped(-1, 4, 5), 7.5);
  EXPECT_EQ(g.at_wrapped(7, -4, -3), 7.5);
}

TEST(Grid3d, SumAndMaxAbs) {
  Grid3d g(2, 2, 2);
  g[0] = -3.0;
  g[7] = 2.0;
  EXPECT_NEAR(g.sum(), -1.0, 1e-15);
  EXPECT_NEAR(g.max_abs(), 3.0, 1e-15);
}

TEST(Grid3d, HalvedRequiresEvenExtents) {
  EXPECT_THROW(GridDims({3, 4, 4}).halved(), std::invalid_argument);
  const GridDims h = GridDims{8, 4, 6}.halved();
  EXPECT_EQ(h.nx, 4u);
  EXPECT_EQ(h.ny, 2u);
  EXPECT_EQ(h.nz, 3u);
}

TEST(SeparableConv, DeltaKernelIsIdentity) {
  const Grid3d in = random_grid({8, 8, 8}, 1);
  Kernel1d delta;
  delta.cutoff = 2;
  delta.taps = {0.0, 0.0, 1.0, 0.0, 0.0};
  Grid3d out(in.dims());
  for (const ConvAxis axis : {ConvAxis::kX, ConvAxis::kY, ConvAxis::kZ}) {
    convolve_axis(in, delta, axis, out);
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i]);
  }
}

TEST(SeparableConv, ShiftKernelRotatesAxis) {
  const Grid3d in = random_grid({4, 4, 4}, 2);
  Kernel1d shift;  // taps select in[n - 1]
  shift.cutoff = 1;
  shift.taps = {0.0, 0.0, 1.0};
  Grid3d out(in.dims());
  convolve_axis(in, shift, ConvAxis::kX, out);
  for (std::size_t iz = 0; iz < 4; ++iz) {
    for (std::size_t iy = 0; iy < 4; ++iy) {
      for (std::size_t ix = 0; ix < 4; ++ix) {
        EXPECT_EQ(out.at(ix, iy, iz),
                  in.at_wrapped(static_cast<long>(ix) - 1, static_cast<long>(iy),
                                static_cast<long>(iz)));
      }
    }
  }
}

TEST(SeparableConv, MatchesDense3dForTensorProductKernel) {
  const Grid3d in = random_grid({8, 6, 10}, 3);
  const int c = 2;
  const Kernel1d kx = gaussian_kernel(c, 0.4);
  const Kernel1d ky = gaussian_kernel(c, 0.7);
  const Kernel1d kz = gaussian_kernel(c, 0.9);
  // Build the dense tensor-product cube.
  const std::size_t w = static_cast<std::size_t>(2 * c + 1);
  std::vector<double> taps3d(w * w * w);
  for (int mz = -c; mz <= c; ++mz) {
    for (int my = -c; my <= c; ++my) {
      for (int mx = -c; mx <= c; ++mx) {
        taps3d[(static_cast<std::size_t>(mz + c) * w + static_cast<std::size_t>(my + c)) * w +
               static_cast<std::size_t>(mx + c)] =
            kx.tap(mx) * ky.tap(my) * kz.tap(mz);
      }
    }
  }
  const Grid3d separable = convolve_separable(in, kx, ky, kz);
  Grid3d dense(in.dims());
  convolve_dense3d(in, taps3d, c, dense);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(separable[i], dense[i], 1e-12);
  }
}

TEST(SeparableConv, TensorSumAccumulatesWithScale) {
  const Grid3d in = random_grid({6, 6, 6}, 4);
  std::vector<SeparableTerm> terms;
  terms.push_back({gaussian_kernel(1, 0.5), gaussian_kernel(1, 0.5), gaussian_kernel(1, 0.5)});
  terms.push_back({gaussian_kernel(2, 1.0), gaussian_kernel(2, 1.0), gaussian_kernel(2, 1.0)});
  Grid3d out(in.dims());
  out.fill(1.0);
  convolve_tensor(in, terms, 0.5, out);
  // Reference: 1 + 0.5 * (term1 + term2).
  const Grid3d t1 = convolve_separable(in, terms[0].kx, terms[0].ky, terms[0].kz);
  const Grid3d t2 = convolve_separable(in, terms[1].kx, terms[1].ky, terms[1].kz);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], 1.0 + 0.5 * (t1[i] + t2[i]), 1e-12);
  }
}

// The fused multi-term convolution keeps every cell's per-axis fma chains
// and the term-ordered sum: on odd extents (partial vectors, fewer than four
// accumulators per row) with cutoffs that differ per term and per axis, a
// single-term call equals convolve_separable, and the M-term call equals M
// single-term calls in term order — in both SIMD modes, at pool sizes 1
// and 3.
TEST(SeparableConv, FusedTensorEqualsTermByTerm) {
  const GridDims dims{13, 7, 10};
  const Grid3d in = random_grid(dims, 5);
  const std::vector<SeparableTerm> terms = {
      {gaussian_kernel(6, 0.2), gaussian_kernel(3, 0.4), gaussian_kernel(4, 0.3)},
      {gaussian_kernel(0, 1.0), gaussian_kernel(5, 0.1), gaussian_kernel(1, 0.6)},
      {gaussian_kernel(2, 0.7), gaussian_kernel(1, 0.9), gaussian_kernel(9, 0.05)}};
  const double scale = 0.37;
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kNative}) {
    for (const unsigned workers : {0u, 2u}) {
      ThreadPool pool(workers);
      for (const SeparableTerm& term : terms) {
        Grid3d fused(dims);
        convolve_tensor(in, {term}, 1.0, fused, mode, pool);
        const Grid3d separable = convolve_separable(in, term.kx, term.ky, term.kz);
        for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(fused[i], separable[i]) << i;
      }
      Grid3d all = random_grid(dims, 6);
      Grid3d one_by_one = all;
      convolve_tensor(in, terms, scale, all, mode, pool);
      for (const SeparableTerm& term : terms) {
        convolve_tensor(in, {term}, scale, one_by_one, mode, pool);
      }
      EXPECT_EQ(std::memcmp(all.data(), one_by_one.data(), all.size() * sizeof(double)), 0)
          << simd::mode_name(mode) << " workers=" << workers;
    }
  }
}

TEST(SeparableConv, KernelWiderThanGridFoldsPeriodically) {
  // A kernel whose cutoff reaches beyond the period must accumulate the
  // periodic images, equivalent to convolving with the folded kernel.
  const std::size_t n = 4;
  Grid3d in(n, 1, 1);
  in.at(0, 0, 0) = 1.0;
  Kernel1d k;
  k.cutoff = 3;  // 7 taps on a period of 4: taps -3 and +1 alias
  k.taps = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  Grid3d out(in.dims());
  convolve_axis(in, k, ConvAxis::kX, out);
  // out[n] = sum_m k[m] delta((n - m) mod 4 == 0) = sum of taps with m ≡ n.
  EXPECT_NEAR(out.at(0, 0, 0), 0.4, 1e-15);              // m = 0
  EXPECT_NEAR(out.at(1, 0, 0), 0.5 + 0.1, 1e-15);        // m = 1, m = -3
  EXPECT_NEAR(out.at(2, 0, 0), 0.6 + 0.2, 1e-15);        // m = 2, m = -2
  EXPECT_NEAR(out.at(3, 0, 0), 0.7 + 0.3, 1e-15);        // m = 3, m = -1
}

TEST(SeparableConv, RejectsInPlaceAndMismatch) {
  Grid3d g(4, 4, 4);
  Kernel1d k = gaussian_kernel(1, 1.0);
  EXPECT_THROW(convolve_axis(g, k, ConvAxis::kX, g), std::invalid_argument);
  Grid3d other(4, 4, 8);
  EXPECT_THROW(convolve_axis(g, k, ConvAxis::kX, other), std::invalid_argument);
}

TEST(Transfer, RestrictionPreservesTotalCharge) {
  // Per axis the J coefficients sum to 2 and downsampling halves the point
  // count, so the grid sum (total charge) is preserved in 3D: (2/2)^3 = 1...
  // more precisely sum(restrict(Q)) = sum_m sum_k J_k Q_{2m+k} = sum(Q)
  // since each fine point is hit by J taps summing to 1 per parity class.
  for (const int p : {2, 4, 6}) {
    const Grid3d fine = random_grid({8, 8, 8}, 10 + static_cast<std::uint64_t>(p));
    const Grid3d coarse = restrict_grid(fine, p);
    EXPECT_EQ(coarse.dims().nx, 4u);
    EXPECT_NEAR(coarse.sum(), fine.sum(), 1e-10) << "p=" << p;
  }
}

TEST(Transfer, RestrictionOfConstantScalesByEight) {
  // Each coarse basis function aggregates 2 fine cells per axis (the J
  // coefficients sum to 2), so a uniform charge density restricts to 2^3
  // times the per-point value — total charge is what is conserved.
  Grid3d fine(8, 8, 8);
  fine.fill(1.0);
  const Grid3d coarse = restrict_grid(fine, 6);
  for (std::size_t i = 0; i < coarse.size(); ++i) EXPECT_NEAR(coarse[i], 8.0, 1e-12);
}

TEST(Transfer, ProlongationOfConstantIsConstant) {
  Grid3d coarse(4, 4, 4);
  coarse.fill(2.5);
  const Grid3d fine = prolong_grid(coarse, 6);
  EXPECT_EQ(fine.dims().nx, 8u);
  for (std::size_t i = 0; i < fine.size(); ++i) EXPECT_NEAR(fine[i], 2.5, 1e-12);
}

TEST(Transfer, RestrictionAndProlongationAreAdjoint) {
  // <restrict(a), b>_coarse == <a, prolong(b)>_fine for all grids a, b.
  for (const int p : {2, 4, 6, 8}) {
    const Grid3d a = random_grid({8, 8, 8}, 100 + static_cast<std::uint64_t>(p));
    const Grid3d b = random_grid({4, 4, 4}, 200 + static_cast<std::uint64_t>(p));
    const Grid3d ra = restrict_grid(a, p);
    const Grid3d pb = prolong_grid(b, p);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) lhs += ra[i] * b[i];
    for (std::size_t i = 0; i < a.size(); ++i) rhs += a[i] * pb[i];
    EXPECT_NEAR(lhs, rhs, 1e-10) << "p=" << p;
  }
}

TEST(Transfer, NonCubicGridsSupported) {
  const Grid3d fine = random_grid({8, 4, 16}, 42);
  const Grid3d coarse = restrict_grid(fine, 4);
  EXPECT_EQ(coarse.dims().nx, 4u);
  EXPECT_EQ(coarse.dims().ny, 2u);
  EXPECT_EQ(coarse.dims().nz, 8u);
  const Grid3d back = prolong_grid(coarse, 4);
  EXPECT_EQ(back.dims().nx, 8u);
  EXPECT_EQ(back.dims().ny, 4u);
  EXPECT_EQ(back.dims().nz, 16u);
}

TEST(Transfer, RejectsOddExtents) {
  const Grid3d fine = random_grid({6, 6, 7}, 1);
  EXPECT_THROW(restrict_grid(fine, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transfer parity against a reference copy of the original per-tap loops:
// every output is an fma chain from 0.0 over the taps in ascending-k order,
// each tap read through at_wrapped.  The row-wise kernels must reproduce it
// bitwise at every pool size and in both SIMD modes.

Grid3d reference_restrict_axis(const Grid3d& in, const std::vector<double>& j,
                               int half_p, int axis, GridDims out_dims) {
  Grid3d out(out_dims);
  for (std::size_t mz = 0; mz < out_dims.nz; ++mz) {
    for (std::size_t my = 0; my < out_dims.ny; ++my) {
      for (std::size_t mx = 0; mx < out_dims.nx; ++mx) {
        double acc = 0.0;
        for (int k = -half_p; k <= half_p; ++k) {
          const double w = j[static_cast<std::size_t>(k + half_p)];
          long ix = static_cast<long>(mx), iy = static_cast<long>(my),
               iz = static_cast<long>(mz);
          switch (axis) {
            case 0: ix = 2 * ix + k; break;
            case 1: iy = 2 * iy + k; break;
            default: iz = 2 * iz + k; break;
          }
          acc = simd::fma1(w, in.at_wrapped(ix, iy, iz), acc);
        }
        out.at(mx, my, mz) = acc;
      }
    }
  }
  return out;
}

Grid3d reference_prolong_axis(const Grid3d& in, const std::vector<double>& j,
                              int half_p, int axis, GridDims out_dims) {
  Grid3d out(out_dims);
  for (std::size_t nz_i = 0; nz_i < out_dims.nz; ++nz_i) {
    for (std::size_t ny_i = 0; ny_i < out_dims.ny; ++ny_i) {
      for (std::size_t nx_i = 0; nx_i < out_dims.nx; ++nx_i) {
        const long n_axis = static_cast<long>(axis == 0   ? nx_i
                                              : axis == 1 ? ny_i
                                                          : nz_i);
        double acc = 0.0;
        for (int k = -half_p; k <= half_p; ++k) {
          if (((n_axis - k) & 1L) != 0) continue;
          const long m = (n_axis - k) / 2;
          const double w = j[static_cast<std::size_t>(k + half_p)];
          long ix = static_cast<long>(nx_i), iy = static_cast<long>(ny_i),
               iz = static_cast<long>(nz_i);
          switch (axis) {
            case 0: ix = m; break;
            case 1: iy = m; break;
            default: iz = m; break;
          }
          acc = simd::fma1(w, in.at_wrapped(ix, iy, iz), acc);
        }
        out.at(nx_i, ny_i, nz_i) = acc;
      }
    }
  }
  return out;
}

Grid3d reference_restrict(const Grid3d& fine, int p) {
  const std::vector<double> j = two_scale_coefficients(p);
  const GridDims f = fine.dims(), h = f.halved();
  const Grid3d x = reference_restrict_axis(fine, j, p / 2, 0, {h.nx, f.ny, f.nz});
  const Grid3d y = reference_restrict_axis(x, j, p / 2, 1, {h.nx, h.ny, f.nz});
  return reference_restrict_axis(y, j, p / 2, 2, h);
}

Grid3d reference_prolong(const Grid3d& coarse, int p) {
  const std::vector<double> j = two_scale_coefficients(p);
  const GridDims c = coarse.dims();
  const Grid3d x =
      reference_prolong_axis(coarse, j, p / 2, 0, {2 * c.nx, c.ny, c.nz});
  const Grid3d y = reference_prolong_axis(x, j, p / 2, 1, {2 * c.nx, 2 * c.ny, c.nz});
  return reference_prolong_axis(y, j, p / 2, 2, {2 * c.nx, 2 * c.ny, 2 * c.nz});
}

std::size_t count_differing(const Grid3d& a, const Grid3d& b) {
  EXPECT_EQ(a.dims(), b.dims());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    differing += std::memcmp(&a[i], &b[i], sizeof(double)) != 0;
  }
  return differing;
}

TEST(TransferParity, BitwiseEqualToPerTapReferenceAcrossPoolsAndModes) {
  const GridDims fine_shapes[] = {{32, 32, 32}, {16, 8, 12}, {6, 10, 14}};
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads - 1);
    for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kNative}) {
      for (const int p : {2, 4, 6, 8}) {
        for (const GridDims& dims : fine_shapes) {
          SCOPED_TRACE("threads=" + std::to_string(threads) + " mode=" +
                       simd::mode_name(mode) + " p=" + std::to_string(p) +
                       " fine=" + std::to_string(dims.nx) + "x" +
                       std::to_string(dims.ny) + "x" + std::to_string(dims.nz));
          const Grid3d fine = random_grid(dims, 300 + static_cast<std::uint64_t>(p));
          EXPECT_EQ(count_differing(restrict_grid(fine, p, mode, pool),
                                    reference_restrict(fine, p)),
                    0u);
          const Grid3d coarse =
              random_grid(dims.halved(), 400 + static_cast<std::uint64_t>(p));
          EXPECT_EQ(count_differing(prolong_grid(coarse, p, mode, pool),
                                    reference_prolong(coarse, p)),
                    0u);
        }
        // A 2x2x2 coarse grid: every tap of p >= 4 wraps several times.
        const Grid3d tiny =
            random_grid({2, 2, 2}, 500 + static_cast<std::uint64_t>(p));
        EXPECT_EQ(count_differing(prolong_grid(tiny, p, mode, pool),
                                  reference_prolong(tiny, p)),
                  0u)
            << "2x2x2 coarse, p=" << p;
      }
    }
  }
}

}  // namespace
}  // namespace tme
