// Pinned bits of the TME long-range kernels: charge assignment, restriction,
// prolongation, the level convolutions, the whole grid solve and back
// interpolation, each hashed (FNV-1a-64) on the 2048-molecule water box of
// the step benchmark with some atoms shifted out of the primary cell.  The
// hashes were recorded from the kernels before they were restructured for
// throughput (accumulator blocking, staged z pass, fused multi-term
// convolution, batched B-spline weights); any change to these kernels must
// keep them.  They hold for every build whose simd::fma is fused, under
// TME_SIMD=scalar and native alike, and at every pool size (charge
// assignment and the back-interpolation energy are pinned per pool size) —
// except the FFT top level of the whole solve, see below.
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/tme.hpp"
#include "ewald/charge_assignment.hpp"
#include "ewald/splitting.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "md/water_box.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

struct Hash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  Hash& feed(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= c[k];
      h *= 0x100000001b3ull;
    }
    return *this;
  }
  Hash& grid(const Grid3d& g) { return feed(g.data(), g.size() * sizeof(double)); }
};

std::uint64_t grid_hash(const Grid3d& g) { return Hash().grid(g).h; }

// The water-tme-fine set-up: 32^3 finest grid, two levels, p = 6, g_c = 8,
// M = 4, r_c = 4.011 h and erfc(alpha r_c) = 1e-4.
struct Fixture {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
  TmeParams params;
  std::unique_ptr<Tme> tme;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    WaterBoxSpec spec;
    spec.molecules = 2048;
    spec.seed = 1;
    const WaterBox wb = build_water_box(spec);
    fx.box = wb.system.box;
    fx.positions = wb.system.positions;
    fx.charges = wb.system.charges;
    const Vec3 l = fx.box.lengths;
    for (std::size_t i = 0; i < fx.positions.size(); ++i) {
      if (i % 5 == 0) fx.positions[i].x += l.x;
      if (i % 7 == 0) fx.positions[i].y -= l.y;
      if (i % 11 == 0) fx.positions[i].z += 2.0 * l.z;
    }
    const double r_cut = 4.011 * l.x / 32.0;
    fx.params.alpha = alpha_from_tolerance(r_cut, 1e-4);
    fx.params.order = 6;
    fx.params.grid = {32, 32, 32};
    fx.params.levels = 2;
    fx.params.grid_cutoff = 8;
    fx.params.num_gaussians = 4;
    fx.tme = std::make_unique<Tme>(fx.box, fx.params);
    return fx;
  }();
  return f;
}

// Terms whose cutoffs differ by term and by axis, down to a single tap.
std::vector<SeparableTerm> mixed_cutoff_terms() {
  Rng rng(26);
  auto kernel = [&rng](int cutoff) {
    Kernel1d k;
    k.cutoff = cutoff;
    k.taps.resize(static_cast<std::size_t>(2 * cutoff + 1));
    for (double& t : k.taps) t = rng.uniform(-1.0, 1.0);
    return k;
  };
  std::vector<SeparableTerm> terms;
  for (const auto& c : {std::array<int, 3>{8, 8, 8}, std::array<int, 3>{3, 5, 1},
                        std::array<int, 3>{0, 2, 7}, std::array<int, 3>{6, 0, 4}}) {
    terms.push_back({kernel(c[0]), kernel(c[1]), kernel(c[2])});
  }
  return terms;
}

constexpr simd::Mode kModes[] = {simd::Mode::kScalar, simd::Mode::kNative};

// The charge grid every grid-stage case starts from (one-thread spread).
Grid3d charge_grid() {
  const Fixture& f = fixture();
  ThreadPool serial(0);
  return ChargeAssigner(f.box, f.params.grid, f.params.order)
      .assign(f.positions, f.charges, &serial);
}

TEST(LongRangeGolden, ChargeAssignmentKeepsTheParentBits) {
  if (!simd::kFmaFused) GTEST_SKIP() << "hashes are for builds with fused fma";
  const Fixture& f = fixture();
  const std::uint64_t want[3] = {0x6bf3ba14a3cd3e51ull, 0xf9f91a04f0687c69ull,
                                 0xc926c7a3d5179bc3ull};  // pool sizes 1, 2, 3
  ChargeAssigner assigner(f.box, f.params.grid, f.params.order);
  for (const simd::Mode mode : kModes) {
    assigner.set_simd_mode(mode);
    for (unsigned threads = 1; threads <= 3; ++threads) {
      ThreadPool pool(threads - 1);
      const std::uint64_t h = grid_hash(assigner.assign(f.positions, f.charges, &pool));
      EXPECT_EQ(h, want[threads - 1]) << simd::mode_name(mode) << " threads=" << threads
                                      << std::hex << " hash=0x" << h;
    }
  }
}

TEST(LongRangeGolden, TransferAndConvolutionKeepTheParentBits) {
  if (!simd::kFmaFused) GTEST_SKIP() << "hashes are for builds with fused fma";
  const Fixture& f = fixture();
  const Grid3d q1 = charge_grid();
  const std::vector<SeparableTerm> mixed = mixed_cutoff_terms();
  const std::uint64_t want_restrict = 0x7b50c692df7341eaull;
  const std::uint64_t want_prolong = 0x8e0b667c3fdfb007ull;
  const std::uint64_t want_l1 = 0xe401f8947bc51a01ull;
  const std::uint64_t want_l2 = 0x0074b5cd8ed0d056ull;
  const std::uint64_t want_mixed = 0xa0669e438cc12780ull;
  for (const simd::Mode mode : kModes) {
    for (unsigned threads = 1; threads <= 3; ++threads) {
      ThreadPool pool(threads - 1);
      const Grid3d q2 = restrict_grid(q1, f.params.order, mode, pool);
      const Grid3d up = prolong_grid(q2, f.params.order, mode, pool);
      // The convolutions accumulate onto a grid that already holds values.
      Grid3d l1 = up;
      convolve_tensor(q1, f.tme->level_kernels(1), tme_level_scale(1), l1, mode, pool);
      Grid3d l2 = restrict_grid(up, f.params.order, mode, pool);
      convolve_tensor(q2, f.tme->level_kernels(2), tme_level_scale(2), l2, mode, pool);
      Grid3d mixed_out = up;
      convolve_tensor(q1, mixed, 0.75, mixed_out, mode, pool);
      const struct {
        const char* name;
        const Grid3d& grid;
        std::uint64_t want;
      } cases[] = {{"restrict", q2, want_restrict},
                   {"prolong", up, want_prolong},
                   {"convolve_l1", l1, want_l1},
                   {"convolve_l2", l2, want_l2},
                   {"convolve_mixed", mixed_out, want_mixed}};
      for (const auto& c : cases) {
        const std::uint64_t h = grid_hash(c.grid);
        EXPECT_EQ(h, c.want) << c.name << " " << simd::mode_name(mode)
                             << " threads=" << threads << std::hex << " hash=0x" << h;
      }
    }
  }
}

// The whole grid solve on the process-wide pool and TME_SIMD mode.  Its
// top level is an FFT, compiled with the default floating-point
// contraction, so those bits belong to the build (ISA, optimisation level):
// the solve must always equal the chain of its stages, and its hash is
// pinned whenever this build's top-level solve reproduces the recorded one.
TEST(LongRangeGolden, SolvePotentialKeepsTheParentBits) {
  if (!simd::kFmaFused) GTEST_SKIP() << "hashes are for builds with fused fma";
  const Tme& tme = *fixture().tme;
  const int p = tme.params().order;
  const Grid3d q1 = charge_grid();
  const Grid3d phi = tme.solve_potential(q1);

  const Grid3d q2 = restrict_grid(q1, p);
  const Grid3d q3 = restrict_grid(q2, p);
  const Grid3d top = tme.solve_top(q3);
  Grid3d chain = prolong_grid(top, p);
  convolve_tensor(q2, tme.level_kernels(2), tme_level_scale(2), chain);
  chain = prolong_grid(chain, p);
  convolve_tensor(q1, tme.level_kernels(1), tme_level_scale(1), chain);
  EXPECT_EQ(grid_hash(phi), grid_hash(chain)) << "solve_potential != its stage chain";

  const std::uint64_t top_hash = grid_hash(top);
  if (top_hash != 0x99d6903d839cacc3ull) {
    GTEST_SKIP() << std::hex << "this build's FFT top level gives other bits (hash=0x"
                 << top_hash << "); the stage chain matched";
  }
  const std::uint64_t h = grid_hash(phi);
  EXPECT_EQ(h, 0x4e82b96cb5957144ull) << std::hex << "hash=0x" << h;
}

// Back interpolation from a potential made by the grid kernels alone (no
// FFT): the level-1 convolution accumulated onto prolong(restrict(Q)).
TEST(LongRangeGolden, BackInterpolationKeepsTheParentBits) {
  if (!simd::kFmaFused) GTEST_SKIP() << "hashes are for builds with fused fma";
  const Fixture& f = fixture();
  const Grid3d q1 = charge_grid();
  Grid3d phi_grid = prolong_grid(restrict_grid(q1, f.params.order), f.params.order);
  convolve_tensor(q1, f.tme->level_kernels(1), tme_level_scale(1), phi_grid);
  const std::uint64_t want_forces_phi = 0x105c068931837f87ull;
  const std::uint64_t want_energy[3] = {0xe4d86338d6b2a699ull, 0xd0f8ecf67dd2effdull,
                                        0xf69266c65d2478e9ull};  // pool sizes 1, 2, 3
  ChargeAssigner assigner(f.box, f.params.grid, f.params.order);
  for (const simd::Mode mode : kModes) {
    assigner.set_simd_mode(mode);
    for (unsigned threads = 1; threads <= 3; ++threads) {
      ThreadPool pool(threads - 1);
      std::vector<Vec3> forces(f.positions.size());
      std::vector<double> phi;
      const double energy =
          assigner.back_interpolate(phi_grid, f.positions, f.charges, &forces, &phi, &pool);
      const std::uint64_t h = Hash()
                                  .feed(forces.data(), forces.size() * sizeof(Vec3))
                                  .feed(phi.data(), phi.size() * sizeof(double))
                                  .h;
      const std::uint64_t he = Hash().feed(&energy, sizeof energy).h;
      EXPECT_EQ(h, want_forces_phi) << simd::mode_name(mode) << " threads=" << threads
                                    << std::hex << " hash=0x" << h;
      EXPECT_EQ(he, want_energy[threads - 1]) << simd::mode_name(mode) << " threads="
                                              << threads << std::hex << " energy hash=0x"
                                              << he;
    }
  }
}

}  // namespace
}  // namespace tme
