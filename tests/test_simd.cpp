// util/simd tests: lane-op unit tests for every vec<double, W> primitive
// (against a plain per-lane reference) plus the property tests behind the
// determinism contract documented in util/simd.hpp —
//  - scalar-vs-native BITWISE force parity for the short-range engine at
//    every pool size and for both Coulomb kernels,
//  - bitwise grid parity for B-spline charge spreading,
//  - bitwise parity for every separable-convolution axis (including wrapped
//    boundaries and partial vector tails),
//  - bitwise energy, potential and force parity for back interpolation.
//
// This translation unit is compiled with -ffp-contract=off (see
// tests/CMakeLists.txt) so reference expressions written as a*b+c are not
// silently fused into something the unfused vec ops can't match.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/charge_assignment.hpp"
#include "ewald/splitting.hpp"
#include "grid/separable_conv.hpp"
#include "md/short_range_engine.hpp"
#include "md/water_box.hpp"
#include "obs/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

// ---------------------------------------------------------------------------
// vec<double, W> primitives.  Instantiated at W = 1 (the scalar twin),
// W = kNativeWidth (the ISA specialization on SIMD builds), and W = 3 (an
// odd width that can only resolve to the generic array fallback, exercising
// its odd-tail reduce).

template <int W>
void check_primitives() {
  using V = simd::vec<double, W>;
  SCOPED_TRACE("W=" + std::to_string(W));
  Rng rng(99 + W);
  double a[W], b[W], c[W], out[W + 1];
  for (int i = 0; i < W; ++i) {
    a[i] = rng.uniform(-8.0, 8.0);
    b[i] = rng.uniform(0.1, 4.0);
    c[i] = rng.uniform(-2.0, 2.0);
  }

  // load / store round trip.
  V::load(a).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i]);

  // load_partial zero-fills past n; store_partial leaves the tail untouched.
  for (int n = 0; n <= W; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const V v = V::load_partial(a, n);
    for (int i = 0; i < W; ++i) EXPECT_EQ(v.extract(i), i < n ? a[i] : 0.0);
    for (int i = 0; i <= W; ++i) out[i] = -777.0;
    V::load(a).store_partial(out, n);
    for (int i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i]);
    for (int i = n; i <= W; ++i) EXPECT_EQ(out[i], -777.0);
  }

  // gather.
  double base[4 * W];
  std::uint32_t idx[W];
  for (int i = 0; i < 4 * W; ++i) base[i] = 100.0 + i;
  for (int i = 0; i < W; ++i) idx[i] = (7 * i + 3) % (4 * W);
  const V g = V::gather(base, idx);
  for (int i = 0; i < W; ++i) EXPECT_EQ(g.extract(i), base[idx[i]]);

  // Arithmetic: each lane is the plain IEEE double op.
  const V va = V::load(a), vb = V::load(b), vc = V::load(c);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ((va + vb).extract(i), a[i] + b[i]);
    EXPECT_EQ((va - vb).extract(i), a[i] - b[i]);
    EXPECT_EQ((va * vb).extract(i), a[i] * b[i]);
    EXPECT_EQ((va / vb).extract(i), a[i] / b[i]);
    EXPECT_EQ(V::sqrt(vb).extract(i), std::sqrt(b[i]));
    EXPECT_EQ(V::nearbyint(va).extract(i), std::nearbyint(a[i]));
    EXPECT_EQ(V::floor(va).extract(i), std::floor(a[i]));
    EXPECT_EQ(V::min(va, vb).extract(i), std::min(a[i], b[i]));
    EXPECT_EQ(V::max(va, vb).extract(i), std::max(a[i], b[i]));
  }

  // fma follows the build's fusion policy on every width, and fma1 is its
  // scalar mirror — the heart of the bitwise parity contract.
  const V f = V::fma(va, vb, vc);
  for (int i = 0; i < W; ++i) {
    const double expect =
        simd::kFmaFused ? std::fma(a[i], b[i], c[i]) : a[i] * b[i] + c[i];
    EXPECT_EQ(f.extract(i), expect);
    EXPECT_EQ(simd::fma1(a[i], b[i], c[i]), expect);
  }

  // Comparisons, blend, mask_bits.
  const auto lt = V::cmp_lt(va, vc);
  const auto ge = V::cmp_ge(va, vc);
  const V bl = V::blend(lt, va, vb);
  unsigned expect_bits = 0;
  for (int i = 0; i < W; ++i) {
    const bool is_lt = a[i] < c[i];
    expect_bits |= is_lt ? (1u << i) : 0u;
    EXPECT_EQ(bl.extract(i), is_lt ? a[i] : b[i]);
  }
  EXPECT_EQ(V::mask_bits(lt), expect_bits);
  EXPECT_EQ(V::mask_bits(ge), ~expect_bits & ((1u << W) - 1u));

  // reduce_add is the fixed pairwise tree, identical to the generic
  // algorithm — a specialization with a different association would
  // silently break cross-ISA determinism of the gather path.
  double acc[W];
  std::memcpy(acc, a, sizeof(acc));
  int n = W;
  while (n > 1) {
    const int half = (n + 1) / 2;
    for (int i = 0; i < n / 2; ++i) acc[i] = acc[i] + acc[i + half];
    n = half;
  }
  EXPECT_EQ(va.reduce_add(), acc[0]);
}

TEST(SimdVec, PrimitivesScalarTwin) { check_primitives<1>(); }
TEST(SimdVec, PrimitivesNativeWidth) { check_primitives<simd::kNativeWidth>(); }
TEST(SimdVec, PrimitivesGenericOddWidth) { check_primitives<3>(); }

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// The 32-bit index gathers, gather_at, fnma, compress, compress_index and
// scatter at width W, lane for lane against the W = 1 twin, under every lane
// mask (the empty and the partial ones included), with NaN and -0 lanes.
template <int W>
void check_against_scalar_twin() {
  using V = simd::vec<double, W>;
  using V1 = simd::vec1d;
  SCOPED_TRACE("W=" + std::to_string(W));
  Rng rng(7 + W);
  double a[W], b[W], c[W];
  for (int i = 0; i < W; ++i) {
    a[i] = rng.uniform(-8.0, 8.0);
    b[i] = rng.uniform(-4.0, 4.0);
    c[i] = rng.uniform(-2.0, 2.0);
  }
  a[0] = std::numeric_limits<double>::quiet_NaN();
  if (W > 1) a[W - 1] = -0.0;
  const V va = V::load(a), vb = V::load(b), vc = V::load(c);

  // fnma: c - a*b, fused like fma.
  const V m = V::fnma(va, vb, vc);
  for (int l = 0; l < W; ++l) {
    EXPECT_TRUE(same_bits(m.extract(l), V1::fnma(V1::broadcast(a[l]), V1::broadcast(b[l]),
                                                 V1::broadcast(c[l]))
                                            .extract(0)))
        << "fnma lane " << l;
  }

  // Gathers by 32-bit index, and by an index held in a vec.
  const int nbase = 4 * W + 1;
  std::vector<double> base(static_cast<std::size_t>(nbase));
  std::vector<std::uint32_t> ubase(static_cast<std::size_t>(nbase));
  for (int i = 0; i < nbase; ++i) {
    base[static_cast<std::size_t>(i)] = 100.0 + i;
    ubase[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(1000 + 3 * i);
  }
  base[1] = std::numeric_limits<double>::quiet_NaN();
  std::uint32_t idx[W];  // distinct
  double idx_as_double[W];
  for (int l = 0; l < W; ++l) {
    idx[l] = static_cast<std::uint32_t>((3 * l + 1) % nbase);
    idx_as_double[l] = static_cast<double>(idx[l]);
  }
  const V g = V::gather(base.data(), idx);
  const V ga = V::gather_at(base.data(), V::load(idx_as_double));
  std::uint32_t gi[W];
  simd::gather_index<W>(ubase.data(), idx, gi);
  for (int l = 0; l < W; ++l) {
    const double one = V1::gather(base.data(), idx + l).extract(0);
    EXPECT_TRUE(same_bits(g.extract(l), one)) << "gather lane " << l;
    EXPECT_TRUE(same_bits(ga.extract(l), one)) << "gather_at lane " << l;
    std::uint32_t gi1 = 0;
    simd::gather_index<1>(ubase.data(), idx + l, &gi1);
    EXPECT_EQ(gi[l], gi1) << "gather_index lane " << l;
  }

  for (unsigned bits = 0; bits < (1u << W); ++bits) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    // compress / compress_index against one W = 1 call per set lane.
    double packed[W], packed1[W];
    std::uint32_t ipacked[W], ipacked1[W];
    simd::compress(va, bits, packed);
    simd::compress_index<W>(idx, bits, ipacked);
    int count = 0;
    for (int l = 0; l < W; ++l) {
      if (((bits >> l) & 1u) == 0) continue;
      simd::compress(V1::broadcast(a[l]), 1u, packed1 + count);
      simd::compress_index<1>(idx + l, 1u, ipacked1 + count);
      ++count;
    }
    EXPECT_EQ(count, std::popcount(bits));
    for (int k = 0; k < count; ++k) {
      EXPECT_TRUE(same_bits(packed[k], packed1[k])) << "compress slot " << k;
      EXPECT_EQ(ipacked[k], ipacked1[k]) << "compress_index slot " << k;
    }

    // scatter: the masked lanes land, every other slot keeps its value.
    std::vector<double> out(base), out1(base);
    simd::scatter(va, out.data(), idx, bits);
    for (int l = 0; l < W; ++l) {
      simd::scatter(V1::broadcast(a[l]), out1.data(), idx + l, (bits >> l) & 1u);
    }
    EXPECT_EQ(std::memcmp(out.data(), out1.data(), out.size() * sizeof(double)), 0);
  }
}

TEST(SimdVec, MaskMovesMatchTheScalarTwin) {
  check_against_scalar_twin<1>();
  check_against_scalar_twin<simd::kNativeWidth>();
  check_against_scalar_twin<3>();
}

TEST(SimdVec, RuntimeFacts) {
  EXPECT_STREQ(simd::mode_name(simd::Mode::kScalar), "scalar");
  EXPECT_STREQ(simd::mode_name(simd::Mode::kNative), "native");
  EXPECT_EQ(simd::lanes(simd::Mode::kScalar), 1);
  EXPECT_EQ(simd::lanes(simd::Mode::kNative), simd::kNativeWidth);
  EXPECT_STREQ(simd::active_isa(), simd::kIsaName);
  const std::string json = simd::describe_json(simd::Mode::kNative).dump();
  EXPECT_NE(json.find("\"isa\""), std::string::npos);
  EXPECT_NE(json.find("\"native_width\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"native\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property: the short-range engine's forces and energies are bitwise
// identical between the scalar twin and the native kernel, for both Coulomb
// kernels and at every pool size (the accumulation order is fixed by the
// pair list, never by the vector width) -- on the frame that built the list
// and on a displaced frame that reuses it.

TEST(SimdParity, ShortRangeForcesBitwiseAcrossPoolSizes) {
  WaterBoxSpec spec;
  spec.molecules = 216;
  spec.seed = 7;
  WaterBox wb = build_water_box(spec);
  add_ion_pairs(wb, 4);  // several LJ types, non-trivial mixing table
  const std::size_t n = wb.system.size();

  ShortRangeParams params;
  params.cutoff = std::min(0.9, 0.45 * wb.system.box.lengths.x);
  params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
  params.shift_lj = true;

  // The second frame moves every atom by under a fifth of the list buffer.
  std::vector<Vec3> displaced = wb.system.positions;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 0.2 * ShortRangeEngine::kListBuffer / std::sqrt(3.0);
    displaced[i] += Vec3{s * std::sin(1.0 * i), s * std::cos(2.0 * i), s * std::sin(3.0 * i)};
  }
  const std::vector<Vec3> original = wb.system.positions;

  for (const CoulombKernel kernel :
       {CoulombKernel::kAnalytic, CoulombKernel::kTabulated}) {
    ShortRangeParams p_scalar = params;
    p_scalar.kernel = kernel;
    p_scalar.simd = ShortRangeParams::SimdChoice::kScalar;
    ShortRangeParams p_native = p_scalar;
    p_native.simd = ShortRangeParams::SimdChoice::kNative;
    const ShortRangeEngine scalar_engine(p_scalar);
    const ShortRangeEngine native_engine(p_native);
    ASSERT_EQ(scalar_engine.simd_mode(), simd::Mode::kScalar);
    ASSERT_EQ(native_engine.simd_mode(), simd::Mode::kNative);

    for (const std::size_t workers : {0u, 1u, 3u}) {
      for (const bool moved : {false, true}) {
        SCOPED_TRACE(std::string(kernel == CoulombKernel::kAnalytic
                                     ? "analytic"
                                     : "tabulated") +
                     " workers=" + std::to_string(workers) +
                     (moved ? " displaced frame" : " build frame"));
        ThreadPool pool(workers);
        wb.system.positions = moved ? displaced : original;

        wb.system.forces.assign(n, Vec3{});
        const ShortRangeResult rs =
            scalar_engine.compute(wb.system, wb.topology, &pool);
        const std::vector<Vec3> f_scalar = wb.system.forces;

        wb.system.forces.assign(n, Vec3{});
        const ShortRangeResult rn =
            native_engine.compute(wb.system, wb.topology, &pool);

        EXPECT_EQ(rn.pair_count, rs.pair_count);
        EXPECT_EQ(rn.energy_coulomb, rs.energy_coulomb);
        EXPECT_EQ(rn.energy_lj, rs.energy_lj);
        EXPECT_TRUE(rn.third_law_ok);
        ASSERT_EQ(wb.system.forces.size(), f_scalar.size());
        EXPECT_EQ(std::memcmp(wb.system.forces.data(), f_scalar.data(),
                              n * sizeof(Vec3)),
                  0)
            << "native forces are not bitwise identical to the scalar twin";
      }
    }
    // Both engines evaluated every frame from the list of the first one.
    EXPECT_EQ(scalar_engine.list_builds(), 1u);
    EXPECT_EQ(native_engine.list_builds(), 1u);
  }
  wb.system.positions = original;
}

// ---------------------------------------------------------------------------
// Property: B-spline charge spreading produces a bitwise-identical grid in
// both modes (element-wise fma on the grid, wrap fallback included), at
// every pool size and for both the hardware order (6) and order 4.

TEST(SimdParity, ChargeSpreadingBitwiseAcrossPoolSizes) {
  Box box;
  box.lengths = {2.0, 1.6, 1.3};
  const GridDims dims{24, 20, 18};  // non-cubic: distinct axis strides
  Rng rng(4242);
  const std::size_t n_particles = 500;
  std::vector<Vec3> pos(n_particles);
  std::vector<double> q(n_particles);
  for (std::size_t i = 0; i < n_particles; ++i) {
    // Includes particles whose stencil window wraps the x boundary, so the
    // scalar wrap fallback and the contiguous fast path are both exercised.
    pos[i] = {rng.uniform(0.0, box.lengths.x), rng.uniform(0.0, box.lengths.y),
              rng.uniform(0.0, box.lengths.z)};
    q[i] = rng.uniform(-1.0, 1.0);
  }

  for (const int order : {4, 6}) {
    ChargeAssigner assigner(box, dims, order);
    for (const std::size_t workers : {0u, 2u}) {
      SCOPED_TRACE("order=" + std::to_string(order) +
                   " workers=" + std::to_string(workers));
      ThreadPool pool(workers);
      assigner.set_simd_mode(simd::Mode::kScalar);
      const Grid3d g_scalar = assigner.assign(pos, q, &pool);
      assigner.set_simd_mode(simd::Mode::kNative);
      const Grid3d g_native = assigner.assign(pos, q, &pool);
      ASSERT_EQ(g_scalar.size(), g_native.size());
      EXPECT_EQ(std::memcmp(g_scalar.values().data(), g_native.values().data(),
                            g_scalar.size() * sizeof(double)),
                0)
          << "native spreading is not bitwise identical to the scalar twin";
    }
  }
}

// Property: native back interpolation agrees with scalar to well within
// 1e-12 relative (~4 decades above double epsilon and ~4 decades below any
// physical tolerance).  BackInterpolationBitwiseAcrossModes below asserts
// the stronger bitwise contract.

TEST(SimdParity, BackInterpolationWithinReassociationRounding) {
  Box box;
  box.lengths = {2.0, 2.0, 2.0};
  const GridDims dims{20, 20, 20};
  Rng rng(1717);
  const std::size_t n_particles = 400;
  std::vector<Vec3> pos(n_particles);
  std::vector<double> q(n_particles);
  for (std::size_t i = 0; i < n_particles; ++i) {
    pos[i] = {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
              rng.uniform(0.0, 2.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  ChargeAssigner assigner(box, dims, 6);
  assigner.set_simd_mode(simd::Mode::kScalar);
  const Grid3d grid = assigner.assign(pos, q);

  std::vector<Vec3> f_scalar(n_particles, Vec3{}), f_native(n_particles, Vec3{});
  std::vector<double> phi_scalar, phi_native;
  const double e_scalar =
      assigner.back_interpolate(grid, pos, q, &f_scalar, &phi_scalar);
  assigner.set_simd_mode(simd::Mode::kNative);
  const double e_native =
      assigner.back_interpolate(grid, pos, q, &f_native, &phi_native);

  EXPECT_NEAR(e_native, e_scalar, 1e-12 * std::abs(e_scalar));
  double f_scale = 0.0;
  for (const Vec3& f : f_scalar) f_scale = std::max(f_scale, norm(f));
  for (std::size_t i = 0; i < n_particles; ++i) {
    EXPECT_NEAR(phi_native[i], phi_scalar[i],
                1e-12 * std::max(1.0, std::abs(phi_scalar[i])));
    EXPECT_LE(norm(f_native[i] - f_scalar[i]), 1e-12 * f_scale);
  }
}

// Property: back interpolation accumulates each atom's stencil rows
// element-wise and finishes with fixed-order scalar dots, so energy, phi and
// forces are bitwise identical under the mode — for every even order, with
// stencils that wrap (including grids narrower than the stencil).  phi and
// forces are also bitwise invariant under the pool size.

TEST(SimdParity, BackInterpolationBitwiseAcrossModes) {
  Box box;
  box.lengths = {2.0, 2.0, 2.0};
  Rng rng(2121);
  const std::size_t n_particles = 300;
  std::vector<Vec3> pos(n_particles);
  std::vector<double> q(n_particles);
  for (std::size_t i = 0; i < n_particles; ++i) {
    pos[i] = {rng.uniform(-0.3, 2.3), rng.uniform(0.0, 2.0),
              rng.uniform(0.0, 2.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  for (const int order : {4, 6, 8, 10}) {
    for (const GridDims dims : {GridDims{20, 20, 20}, GridDims{9, 7, 12},
                                GridDims{5, 6, 4}}) {
      SCOPED_TRACE("order=" + std::to_string(order) + " dims=" +
                   std::to_string(dims.nx) + "x" + std::to_string(dims.ny) +
                   "x" + std::to_string(dims.nz));
      ChargeAssigner assigner(box, dims, order);
      const Grid3d grid = assigner.assign(pos, q);
      struct Run {
        double energy = 0.0;
        std::vector<Vec3> forces;
        std::vector<double> phi;
      };
      auto run = [&](simd::Mode mode) {
        assigner.set_simd_mode(mode);
        Run r;
        r.forces.assign(n_particles, Vec3{});
        r.energy = assigner.back_interpolate(grid, pos, q, &r.forces, &r.phi);
        return r;
      };
      const Run scalar = run(simd::Mode::kScalar);
      const Run native = run(simd::Mode::kNative);
      // A nested call runs serially on the calling thread: pool size 1.
      Run serial;
      ThreadPool one(0);
      parallel_for(one, 0, 1, [&](std::size_t) { serial = run(simd::Mode::kNative); });

      EXPECT_EQ(native.energy, scalar.energy);
      for (std::size_t i = 0; i < n_particles; ++i) {
        EXPECT_EQ(native.phi[i], scalar.phi[i]) << "atom " << i;
        EXPECT_EQ(serial.phi[i], native.phi[i]) << "atom " << i;
        for (std::size_t k = 0; k < 3; ++k) {
          EXPECT_EQ(native.forces[i][k], scalar.forces[i][k]) << "atom " << i;
          EXPECT_EQ(serial.forces[i][k], native.forces[i][k]) << "atom " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: every separable-convolution axis is bitwise invariant under the
// mode, including wrapped boundary columns, partial vector tails (axis
// lengths not divisible by any W), and taps wider than half the axis.

TEST(SimdParity, SeparableConvolutionBitwisePerAxis) {
  struct Case {
    GridDims dims;
    int cutoff;
  };
  const Case cases[] = {
      {{16, 16, 16}, 3},  // clean interior + small wrap
      {{20, 12, 9}, 4},   // non-cubic, odd z, tails on every axis
      {{12, 13, 17}, 8},  // boundary regions dominate (nx < 2c on x)
  };
  Rng rng(8080);
  for (const Case& c : cases) {
    Grid3d src(c.dims);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src.values()[i] = rng.uniform(-1.0, 1.0);
    }
    Kernel1d kernel;
    kernel.cutoff = c.cutoff;
    kernel.taps.resize(static_cast<std::size_t>(2 * c.cutoff + 1));
    for (int t = -c.cutoff; t <= c.cutoff; ++t) {
      kernel.taps[static_cast<std::size_t>(t + c.cutoff)] =
          std::exp(-0.21 * t * t);
    }
    for (const ConvAxis axis : {ConvAxis::kX, ConvAxis::kY, ConvAxis::kZ}) {
      SCOPED_TRACE("dims=" + std::to_string(c.dims.nx) + "x" +
                   std::to_string(c.dims.ny) + "x" + std::to_string(c.dims.nz) +
                   " cutoff=" + std::to_string(c.cutoff) +
                   " axis=" + std::to_string(static_cast<int>(axis)));
      Grid3d out_scalar(c.dims), out_native(c.dims);
      convolve_axis(src, kernel, axis, out_scalar, simd::Mode::kScalar);
      convolve_axis(src, kernel, axis, out_native, simd::Mode::kNative);
      EXPECT_EQ(std::memcmp(out_scalar.values().data(),
                            out_native.values().data(),
                            out_scalar.size() * sizeof(double)),
                0)
          << "native convolution is not bitwise identical to the scalar twin";
    }
  }
}

}  // namespace
}  // namespace tme
