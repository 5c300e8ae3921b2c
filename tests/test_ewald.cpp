#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/charge_assignment.hpp"
#include "ewald/greens_function.hpp"
#include "ewald/reference_ewald.hpp"
#include "ewald/splitting.hpp"
#include "ewald/spme.hpp"
#include "spline/bspline.hpp"
#include "util/constants.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tme {
namespace {

// Random neutral charge system in a cubic box.
struct TestSystem {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

TestSystem random_system(std::size_t n, double box_length, std::uint64_t seed) {
  TestSystem sys;
  sys.box.lengths = {box_length, box_length, box_length};
  Rng rng(seed);
  sys.positions.resize(n);
  sys.charges.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                        rng.uniform(0.0, box_length)};
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    total += sys.charges[i];
  }
  // Neutralise.
  for (auto& q : sys.charges) q -= total / static_cast<double>(n);
  return sys;
}

TEST(Splitting, ShortPlusLongIsCoulomb) {
  for (const double r : {0.1, 0.7, 1.3, 2.9}) {
    for (const double alpha : {0.5, 2.0, 5.0}) {
      EXPECT_NEAR(g_short(r, alpha) + g_long(r, alpha), 1.0 / r, 1e-13);
    }
  }
}

TEST(Splitting, ShellsTelescopeToLongRangeDifference) {
  // sum_{l=1..L} g_l(r) = g_L(r; alpha) - g_L(r; alpha/2^L).
  const double alpha = 2.4, r = 0.9;
  const int levels = 3;
  double shells = 0.0;
  for (int l = 1; l <= levels; ++l) shells += g_shell(r, alpha, l);
  EXPECT_NEAR(shells, g_long(r, alpha) - g_long(r, alpha / 8.0), 1e-13);
}

TEST(Splitting, ShellScalingIdentity) {
  // g_l(r) = g_1(r / 2^{l-1}) / 2^{l-1}  (paper Eq. 5).
  const double alpha = 1.7;
  for (const int l : {2, 3, 4}) {
    const double scale = std::ldexp(1.0, l - 1);
    for (const double r : {0.3, 1.1, 2.2}) {
      EXPECT_NEAR(g_shell(r, alpha, l), g_shell(r / scale, alpha, 1) / scale, 1e-13);
    }
  }
}

TEST(Splitting, ZeroLimits) {
  const double alpha = 3.1;
  EXPECT_NEAR(g_long(0.0, alpha), 2.0 * alpha / std::sqrt(M_PI), 1e-13);
  EXPECT_NEAR(g_shell(0.0, alpha, 1),
              2.0 * (alpha - alpha / 2.0) / std::sqrt(M_PI), 1e-13);
}

TEST(Splitting, DerivativesMatchFiniteDifferences) {
  const double alpha = 2.0, eps = 1e-6;
  for (const double r : {0.4, 1.0, 1.9}) {
    const double fd_s = (g_short(r + eps, alpha) - g_short(r - eps, alpha)) / (2 * eps);
    EXPECT_NEAR(g_short_derivative(r, alpha), fd_s, 1e-6);
    const double fd_l = (g_long(r + eps, alpha) - g_long(r - eps, alpha)) / (2 * eps);
    EXPECT_NEAR(g_long_derivative(r, alpha), fd_l, 1e-6);
  }
}

TEST(Splitting, AlphaFromToleranceMatchesPaper) {
  // The paper: erfc(alpha r_c) = 1e-4  =>  alpha r_c ~ 2.751064.
  const double alpha = alpha_from_tolerance(1.0, 1e-4);
  EXPECT_NEAR(alpha, 2.751064, 1e-5);
  // And the Table 1 headline value: r_c = L/2-independent scaling.
  EXPECT_NEAR(alpha_from_tolerance(1.25, 1e-4), 2.751064 / 1.25, 1e-5);
}

TEST(Splitting, ReciprocalCutoffScalesWithAlphaAndBox) {
  const int n1 = reciprocal_cutoff_from_tolerance(3.0, 5.0, 1e-15);
  const int n2 = reciprocal_cutoff_from_tolerance(6.0, 5.0, 1e-15);
  EXPECT_GE(n2, 2 * n1 - 1);
  // Paper reference configuration: alpha = 1.178612 nm^-1, L = 9.9727 nm
  // gives n_c = 22.
  EXPECT_EQ(reciprocal_cutoff_from_tolerance(1.178612, 9.97270, 1e-15), 22);
}

TEST(ChargeAssignment, ConservesTotalCharge) {
  const TestSystem sys = random_system(100, 4.0, 3);
  const ChargeAssigner ca(sys.box, {16, 16, 16}, 6);
  const Grid3d grid = ca.assign(sys.positions, sys.charges);
  double qtot = 0.0;
  for (const double q : sys.charges) qtot += q;
  EXPECT_NEAR(grid.sum(), qtot, 1e-10);
}

TEST(ChargeAssignment, SingleChargeOnGridPointIsLocalised) {
  Box box{{4.0, 4.0, 4.0}};
  const ChargeAssigner ca(box, {8, 8, 8}, 6);
  // Atom exactly on grid point (2, 2, 2): h = 0.5.
  const std::vector<Vec3> pos{{1.0, 1.0, 1.0}};
  const std::vector<double> q{1.0};
  const Grid3d grid = ca.assign(pos, q);
  // For even p on a grid point, the spline spreads to p-1 points per axis
  // centred at the atom; the centre gets M_p(p/2) = 11/20 per axis for p=6.
  EXPECT_NEAR(grid.at(2, 2, 2), std::pow(11.0 / 20.0, 3), 1e-12);
  EXPECT_NEAR(grid.sum(), 1.0, 1e-12);
}

TEST(ChargeAssignment, BackInterpolationRecoversSmoothField) {
  // Fill the grid with a smooth periodic potential and check that
  // interpolation reproduces it and its gradient.
  Box box{{8.0, 8.0, 8.0}};
  const GridDims dims{32, 32, 32};
  const ChargeAssigner ca(box, dims, 6);
  Grid3d phi(dims);
  const double kx = 2.0 * M_PI / box.lengths.x;
  for (std::size_t iz = 0; iz < dims.nz; ++iz) {
    for (std::size_t iy = 0; iy < dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < dims.nx; ++ix) {
        phi.at(ix, iy, iz) = std::sin(kx * 0.25 * static_cast<double>(ix));
      }
    }
  }
  const std::vector<Vec3> pos{{3.37, 1.2, 5.9}};
  const std::vector<double> q{2.0};
  std::vector<Vec3> forces(1);
  std::vector<double> phi_atom;
  const double q_phi = ca.back_interpolate(phi, pos, q, &forces, &phi_atom);
  // B-spline summation of raw samples is quasi-interpolation: the tone is
  // attenuated by bhat(theta) = sum_m M_p^c(m) cos(theta m) with theta the
  // phase advance per grid step.  (SPME's |b|^2 Euler factors undo exactly
  // this attenuation.)
  const double theta = kx * 0.25;
  const double bhat = 66.0 / 120.0 + 2.0 * (26.0 / 120.0) * std::cos(theta) +
                      2.0 * (1.0 / 120.0) * std::cos(2.0 * theta);
  const double expected_phi = bhat * std::sin(kx * pos[0].x);
  EXPECT_NEAR(phi_atom[0], expected_phi, 1e-5);
  EXPECT_NEAR(q_phi, 2.0 * phi_atom[0], 1e-12);
  // Force = -q dphi/dx with dphi/dx = (kx/h... ) cos(...) — compare against a
  // numerical derivative of the interpolant itself.
  const double eps = 1e-5;
  const std::vector<Vec3> pos_hi{{pos[0].x + eps, pos[0].y, pos[0].z}};
  const std::vector<Vec3> pos_lo{{pos[0].x - eps, pos[0].y, pos[0].z}};
  std::vector<double> phi_hi, phi_lo;
  ca.back_interpolate(phi, pos_hi, q, nullptr, &phi_hi);
  ca.back_interpolate(phi, pos_lo, q, nullptr, &phi_lo);
  const double dphi_dx = (phi_hi[0] - phi_lo[0]) / (2.0 * eps);
  EXPECT_NEAR(forces[0].x, -q[0] * dphi_dx, 1e-5);
  EXPECT_NEAR(forces[0].y, 0.0, 1e-9);
  EXPECT_NEAR(forces[0].z, 0.0, 1e-9);
}

TEST(ChargeAssigner, RejectsOddOrder) {
  // Odd orders have no central B-spline; they are rejected at construction
  // instead of throwing from every atom inside the pool on the first assign.
  const Box box{{2.0, 2.0, 2.0}};
  for (const int order : {3, 5, 7}) {
    EXPECT_THROW(ChargeAssigner(box, {8, 8, 8}, order), std::invalid_argument)
        << "order=" << order;
  }
  EXPECT_THROW(ChargeAssigner(box, {8, 8, 8}, 0), std::invalid_argument);
  EXPECT_THROW(ChargeAssigner(box, {8, 8, 8}, kMaxBsplineOrder + 2),
               std::invalid_argument);
  EXPECT_NO_THROW(ChargeAssigner(box, {8, 8, 8}, 2));
  EXPECT_NO_THROW(ChargeAssigner(box, {8, 8, 8}, kMaxBsplineOrder));
}

TEST(GreensFunction, EulerFactorsPositiveForEvenOrders) {
  for (const int p : {4, 6, 8}) {
    const auto b2 = euler_factors(p, 32);
    for (const double v : b2) EXPECT_GT(v, 0.0);
  }
}

TEST(GreensFunction, ZeroModeDropped) {
  const Box box{{5.0, 5.0, 5.0}};
  const auto g = spme_influence(box, {16, 16, 16}, 6, 3.0);
  EXPECT_EQ(g[0], 0.0);
}

TEST(EwaldReference, QuadrupoleEnergyMatchesDirectSum) {
  // Two antiparallel +/- pairs: the cell dipole vanishes, so the direct
  // image sum with cubic shells converges absolutely to the tinfoil Ewald
  // value (a dipolar cell would carry a summation-order-dependent boundary
  // term instead).
  Box box{{6.0, 6.0, 6.0}};
  const Vec3 d{1.2, 0.0, 0.0};
  const Vec3 a{1.0, 1.0, 1.0};
  const Vec3 b{3.0, 2.5, 4.0};
  const std::vector<Vec3> pos{a, a + d, b, b + d};
  const std::vector<double> q{1.0, -1.0, -1.0, 1.0};
  EwaldParams params;
  params.alpha = 2.0;
  const CoulombResult ewald = ewald_reference(box, pos, q, params);
  const double direct = direct_lattice_energy(box, pos, q, 12);
  EXPECT_NEAR(ewald.energy, direct, 2e-3 * std::abs(direct));
}

TEST(EwaldReference, EnergyIndependentOfAlpha) {
  const TestSystem sys = random_system(40, 3.5, 17);
  EwaldParams p1;
  p1.alpha = 2.5;
  EwaldParams p2;
  p2.alpha = 3.5;
  const CoulombResult r1 = ewald_reference(sys.box, sys.positions, sys.charges, p1);
  const CoulombResult r2 = ewald_reference(sys.box, sys.positions, sys.charges, p2);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-6 * std::abs(r1.energy));
  for (std::size_t i = 0; i < r1.forces.size(); ++i) {
    EXPECT_NEAR(norm(r1.forces[i] - r2.forces[i]), 0.0, 1e-5);
  }
}

TEST(EwaldReference, ForcesSumToZero) {
  const TestSystem sys = random_system(60, 4.2, 23);
  EwaldParams params;
  params.alpha = 2.5;
  const CoulombResult r = ewald_reference(sys.box, sys.positions, sys.charges, params);
  Vec3 total{};
  for (const Vec3& f : r.forces) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-8);
}

TEST(EwaldReference, RepeatedCallsOnAThreadedPoolAreBitwiseEqual) {
  // The ranges finish in a different order on every call; their partials
  // must still be added in one fixed order.
  const TestSystem sys = random_system(300, 3.0, 41);
  EwaldParams params;
  params.alpha = 3.0;
  ThreadPool pool(3);
  const CoulombResult first =
      ewald_reference(sys.box, sys.positions, sys.charges, params, &pool);
  for (int call = 0; call < 12; ++call) {
    const CoulombResult again =
        ewald_reference(sys.box, sys.positions, sys.charges, params, &pool);
    ASSERT_EQ(std::memcmp(&again.energy, &first.energy, sizeof(double)), 0);
    ASSERT_EQ(std::memcmp(&again.virial, &first.virial, sizeof(double)), 0);
    ASSERT_EQ(std::memcmp(again.forces.data(), first.forces.data(),
                          first.forces.size() * sizeof(Vec3)),
              0)
        << "call " << call;
  }
}

TEST(EwaldReference, ForceMatchesEnergyGradient) {
  const TestSystem sys = random_system(20, 3.0, 31);
  EwaldParams params;
  params.alpha = 3.0;
  const CoulombResult r = ewald_reference(sys.box, sys.positions, sys.charges, params);
  // Displace atom 0 along x and compare numerical gradient.
  const double eps = 1e-5;
  auto shifted = sys.positions;
  shifted[0].x += eps;
  const double e_hi = ewald_reference(sys.box, shifted, sys.charges, params).energy;
  shifted[0].x -= 2 * eps;
  const double e_lo = ewald_reference(sys.box, shifted, sys.charges, params).energy;
  const double fd = -(e_hi - e_lo) / (2 * eps);
  EXPECT_NEAR(r.forces[0].x, fd, 5e-5 * std::max(1.0, std::abs(fd)));
}

TEST(EwaldReference, MadelungConstantNaCl) {
  // Rock-salt unit cell (8 ions) with unit charges and nearest-neighbour
  // distance d = 0.5: E per ion pair = -M * kC / d with M = 1.7475645946.
  Box box{{1.0, 1.0, 1.0}};
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      for (int k = 0; k < 2; ++k) {
        pos.push_back({0.5 * i, 0.5 * j, 0.5 * k});
        q.push_back(((i + j + k) % 2 == 0) ? 1.0 : -1.0);
      }
    }
  }
  EwaldParams params;
  params.alpha = 12.0;  // erfc(alpha L/2) ~ 2e-17: real-space truncation safe
  const CoulombResult r = ewald_reference(box, pos, q, params);
  const double madelung = -r.energy / (4.0 * constants::kCoulomb) * 0.5;
  EXPECT_NEAR(madelung, 1.7475645946, 1e-8);
}

TEST(Spme, MatchesEwaldReferenceOnRandomSystem) {
  const TestSystem sys = random_system(200, 4.0, 41);
  EwaldParams eparams;
  eparams.alpha = alpha_from_tolerance(1.0, 1e-4);
  const CoulombResult ref = ewald_reference(sys.box, sys.positions, sys.charges, eparams);

  SpmeParams sparams;
  sparams.alpha = eparams.alpha;
  sparams.order = 6;
  sparams.grid = {32, 32, 32};
  const Spme spme(sys.box, sparams);
  const CoulombResult lr = spme.compute(sys.positions, sys.charges);

  // Add the short-range part directly to complete the total.
  CoulombResult total = lr;
  const double r_cut = 1.0;
  for (std::size_t i = 0; i < sys.positions.size(); ++i) {
    for (std::size_t j = i + 1; j < sys.positions.size(); ++j) {
      const Vec3 d = sys.box.min_image_disp(sys.positions[i], sys.positions[j]);
      const double r2 = norm2(d);
      if (r2 >= r_cut * r_cut) continue;
      const double r = std::sqrt(r2);
      const double qq = constants::kCoulomb * sys.charges[i] * sys.charges[j];
      total.energy += qq * g_short(r, eparams.alpha);
      const double fr = -qq * g_short_derivative(r, eparams.alpha) / r;
      total.forces[i] += fr * d;
      total.forces[j] -= fr * d;
    }
  }
  EXPECT_NEAR(total.energy, ref.energy,
              2e-3 * std::abs(ref.energy) + 1e-4);
  const double rel_err = total.relative_force_error_against(ref);
  EXPECT_LT(rel_err, 2e-3);
}

TEST(Spme, AnisotropicGridAndBoxSupported) {
  // Non-cubic box with per-axis grid extents (including a non-power-of-two
  // axis, exercising the Bluestein FFT path end to end).
  Box box{{3.0, 4.5, 6.0}};
  Rng rng(61);
  const std::size_t n = 200;
  std::vector<Vec3> pos(n);
  std::vector<double> q(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0.0, 3.0), rng.uniform(0.0, 4.5), rng.uniform(0.0, 6.0)};
    q[i] = rng.uniform(-1.0, 1.0);
    total += q[i];
  }
  for (auto& v : q) v -= total / static_cast<double>(n);

  EwaldParams ep;
  // Tight splitting tolerance so the r_c truncation (which the converged
  // reference does not share) stays below the comparison threshold.
  ep.alpha = alpha_from_tolerance(0.9, 1e-6);
  const CoulombResult ref = ewald_reference(box, pos, q, ep);

  SpmeParams sp;
  sp.alpha = ep.alpha;
  sp.grid = {16, 24, 32};  // h = (0.19, 0.19, 0.19)
  const Spme spme(box, sp);
  CoulombResult lr = spme.compute(pos, q);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Vec3 d = box.min_image_disp(pos[i], pos[j]);
      const double r2 = norm2(d);
      if (r2 >= 0.81) continue;
      const double r = std::sqrt(r2);
      const double qq = constants::kCoulomb * q[i] * q[j];
      lr.energy += qq * g_short(r, ep.alpha);
      const double fr = -qq * g_short_derivative(r, ep.alpha) / r;
      lr.forces[i] += fr * d;
      lr.forces[j] -= fr * d;
    }
  }
  // The dilute random gas inflates the relative-error metric (few
  // near-contact pairs in the reference norm); the point here is correct
  // anisotropic support, asserted at the metric's dilute-gas level.
  EXPECT_LT(lr.relative_force_error_against(ref), 2e-2);
  // Grid energy error scales with the gross reciprocal energy
  // kC alpha/sqrt(pi) sum q^2 (the net energy of a dilute gas is a
  // cancellation-dominated yardstick).
  double q2 = 0.0;
  for (const double v : q) q2 += v * v;
  const double gross = constants::kCoulomb * ep.alpha / std::sqrt(M_PI) * q2;
  EXPECT_NEAR(lr.energy, ref.energy, 5e-3 * gross);
}

TEST(Spme, EnergyAgreesWithKSpaceSum) {
  // The grid energy 0.5 sum(Q Phi) must match the analytic reciprocal-space
  // SPME energy expression evaluated independently.
  const TestSystem sys = random_system(50, 3.0, 53);
  SpmeParams params;
  params.alpha = 2.8;
  params.order = 6;
  params.grid = {24, 24, 24};
  params.subtract_self = false;
  const Spme spme(sys.box, params);
  const CoulombResult lr = spme.compute(sys.positions, sys.charges);
  // Independent evaluation through ewald_reference's reciprocal part with
  // matching alpha and a converged k-cutoff, minus its real and self parts:
  EwaldParams eparams;
  eparams.alpha = params.alpha;
  const CoulombResult ref = ewald_reference(sys.box, sys.positions, sys.charges, eparams);
  EXPECT_NEAR(lr.energy_reciprocal, ref.energy_reciprocal,
              5e-3 * std::abs(ref.energy_reciprocal));
}

}  // namespace
}  // namespace tme
