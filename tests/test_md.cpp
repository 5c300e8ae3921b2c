#include <cmath>
#include <limits>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/splitting.hpp"
#include "md/bonded.hpp"
#include "md/cell_list.hpp"
#include "md/forcefield.hpp"
#include "md/integrator.hpp"
#include "md/settle.hpp"
#include "md/short_range.hpp"
#include "md/system.hpp"
#include "md/topology.hpp"
#include "md/water_box.hpp"
#include "util/constants.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tme {
namespace {

using namespace constants;

// --- system / topology ------------------------------------------------------

TEST(ParticleSystem, KineticEnergyAndTemperature) {
  ParticleSystem sys;
  sys.resize(2);
  sys.masses = {2.0, 4.0};
  sys.velocities = {{1.0, 0.0, 0.0}, {0.0, 1.0, 1.0}};
  EXPECT_NEAR(sys.kinetic_energy(), 0.5 * 2.0 + 0.5 * 4.0 * 2.0, 1e-14);
  const double t = sys.temperature(3);
  EXPECT_NEAR(t, 2.0 * 5.0 / (3.0 * kBoltzmann), 1e-9);
}

TEST(ParticleSystem, RemoveComMotionZeroesMomentum) {
  ParticleSystem sys;
  sys.resize(10);
  Rng rng(3);
  for (std::size_t i = 0; i < 10; ++i) {
    sys.masses[i] = rng.uniform(1.0, 16.0);
    sys.velocities[i] = {rng.normal(), rng.normal(), rng.normal()};
  }
  sys.remove_com_motion();
  EXPECT_NEAR(norm(sys.momentum()), 0.0, 1e-12);
}

TEST(Topology, ExclusionLookupIsSymmetricAndDeduplicated) {
  Topology topo;
  topo.add_exclusion(3, 7);
  topo.add_exclusion(7, 3);
  topo.add_exclusion(0, 1);
  topo.finalize(10);
  EXPECT_EQ(topo.exclusions().size(), 2u);
  EXPECT_TRUE(topo.excluded(3, 7));
  EXPECT_TRUE(topo.excluded(7, 3));
  EXPECT_TRUE(topo.excluded(0, 1));
  EXPECT_FALSE(topo.excluded(1, 2));
}

TEST(Topology, RigidWaterAddsThreeExclusions) {
  Topology topo;
  topo.add_rigid_water({0, 1, 2});
  topo.finalize(3);
  EXPECT_EQ(topo.exclusions().size(), 3u);
  EXPECT_EQ(topo.constraint_count(), 3u);
}

TEST(Topology, BuildExclusionsFromBonded) {
  Topology topo;
  topo.add_bond({0, 1, 0.1, 1000.0});
  topo.add_bond({1, 2, 0.1, 1000.0});
  topo.add_angle({0, 1, 2, 1.9, 500.0});
  topo.build_exclusions_from_bonded();
  topo.finalize(3);
  EXPECT_TRUE(topo.excluded(0, 1));
  EXPECT_TRUE(topo.excluded(1, 2));
  EXPECT_TRUE(topo.excluded(0, 2));  // 1-3 via the angle
}

// --- water box ---------------------------------------------------------------

TEST(WaterBox, GeometryAndChargesAreTip3p) {
  WaterBoxSpec spec;
  spec.molecules = 27;
  const WaterBox wb = build_water_box(spec);
  ASSERT_EQ(wb.system.size(), 81u);
  double total_charge = 0.0;
  for (const double q : wb.system.charges) total_charge += q;
  EXPECT_NEAR(total_charge, 0.0, 1e-12);
  // Rigid geometry holds at construction.
  const WaterConstraints constraints(wb.topology, wb.system.masses, ConstraintParams{});
  EXPECT_LT(constraints.max_violation(wb.system.box, wb.system.positions), 1e-9);
  // O carries LJ, H does not.
  EXPECT_GT(wb.topology.lj()[0].epsilon, 0.0);
  EXPECT_EQ(wb.topology.lj()[1].epsilon, 0.0);
}

TEST(WaterBox, DensityDefaultsToLiquidWater) {
  WaterBoxSpec spec;
  spec.molecules = 512;
  const WaterBox wb = build_water_box(spec);
  const double density =
      static_cast<double>(spec.molecules) / wb.system.box.volume();
  EXPECT_NEAR(density, 33.0, 0.5);  // molecules / nm^3
}

TEST(WaterBox, VelocitiesMatchRequestedTemperature) {
  WaterBoxSpec spec;
  spec.molecules = 1000;
  spec.temperature = 300.0;
  const WaterBox wb = build_water_box(spec);
  // Unconstrained 3N - 3 dof at construction time.
  const double t = wb.system.temperature(3 * wb.system.size() - 3);
  EXPECT_NEAR(t, 300.0, 10.0);
}

TEST(WaterBox, PaperSpecMatchesTable1) {
  const WaterBoxSpec spec = paper_table1_spec();
  EXPECT_EQ(spec.molecules, 32773u);
  EXPECT_NEAR(spec.box_length, 9.97270, 1e-9);
  // 3 * 32773 = 98319 atoms, the N of the paper.
  EXPECT_EQ(3 * spec.molecules, 98319u);
}

// --- cell list ---------------------------------------------------------------

TEST(CellList, FindsExactlyTheBruteForcePairs) {
  const Box box{{3.0, 2.5, 4.0}};
  Rng rng(11);
  std::vector<Vec3> pos(200);
  for (auto& p : pos) {
    p = {rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.5), rng.uniform(0.0, 4.0)};
  }
  const double cutoff = 0.7;
  std::vector<std::pair<std::size_t, std::size_t>> brute;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (norm2(box.min_image_disp(pos[i], pos[j])) < cutoff * cutoff) {
        brute.emplace_back(i, j);
      }
    }
  }
  const CellList cells(box, pos, cutoff);
  std::vector<std::pair<std::size_t, std::size_t>> found;
  cells.for_each_pair(box, pos, cutoff, [&](std::size_t i, std::size_t j) {
    found.emplace_back(std::min(i, j), std::max(i, j));
  });
  std::sort(brute.begin(), brute.end());
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, brute);
}

TEST(CellList, DegenerateSmallBoxStillCorrect) {
  // Cutoff comparable to the box: 1-2 cells per axis exercises the
  // duplicate-free stencil logic.
  const Box box{{1.0, 1.0, 1.0}};
  Rng rng(13);
  std::vector<Vec3> pos(40);
  for (auto& p : pos) p = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
  const double cutoff = 0.45;
  std::size_t brute = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (norm2(box.min_image_disp(pos[i], pos[j])) < cutoff * cutoff) ++brute;
    }
  }
  const CellList cells(box, pos, cutoff);
  std::size_t found = 0;
  cells.for_each_pair(box, pos, cutoff, [&](std::size_t, std::size_t) { ++found; });
  EXPECT_EQ(found, brute);
}

TEST(CellList, NonFiniteCoordinateBinsIntoCellZero) {
  const Box box{{2.0, 2.0, 2.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN x and an infinite y go to the first cell of their axis; the
  // finite coordinates bin as usual (1.5 nm is cell 3 of 4).
  const std::vector<Vec3> pos = {{1.5, 1.5, 1.5}, {nan, 1.5, 1.5}, {1.5, inf, 1.5}};
  const CellList cells(box, pos, 0.5);
  ASSERT_EQ(cells.cells_x(), 4u);
  auto cell_of = [&](std::size_t atom) {
    for (std::size_t c = 0; c < cells.cell_count(); ++c) {
      for (const std::size_t a : cells.cell_atoms(c)) {
        if (a == atom) return c;
      }
    }
    return cells.cell_count();
  };
  EXPECT_EQ(cell_of(0), 3u + 4u * (3u + 4u * 3u));
  EXPECT_EQ(cell_of(1), 0u + 4u * (3u + 4u * 3u));
  EXPECT_EQ(cell_of(2), 3u + 4u * (0u + 4u * 3u));
}

// --- short range -------------------------------------------------------------

TEST(ShortRange, LjMinimumAtTwoToTheSixth) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(2);
  Topology topo;
  topo.lj().assign(2, LjParams{0.3, 1.0});
  topo.finalize(2);
  const double r_min = 0.3 * std::pow(2.0, 1.0 / 6.0);
  sys.positions = {{5.0, 5.0, 5.0}, {5.0 + r_min, 5.0, 5.0}};
  ShortRangeParams params;
  params.cutoff = 1.2;
  params.alpha = 3.0;
  const ShortRangeResult r = compute_short_range(sys, topo, params);
  EXPECT_NEAR(r.energy_lj, -1.0, 1e-12);
  EXPECT_NEAR(norm(sys.forces[0]), 0.0, 1e-9);
}

TEST(ShortRange, CoulombMatchesAnalyticPair) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(2);
  sys.charges = {1.0, -1.0};
  sys.positions = {{5.0, 5.0, 5.0}, {5.9, 5.0, 5.0}};
  Topology topo;
  topo.lj().assign(2, LjParams{});
  topo.finalize(2);
  ShortRangeParams params;
  params.cutoff = 1.2;
  params.alpha = 2.5;
  const ShortRangeResult r = compute_short_range(sys, topo, params);
  EXPECT_NEAR(r.energy_coulomb, -kCoulomb * g_short(0.9, 2.5), 1e-10);
  EXPECT_NEAR(sys.forces[0].x, -kCoulomb * g_short_derivative(0.9, 2.5), 1e-9);
  EXPECT_EQ(r.pair_count, 1u);
}

TEST(ShortRange, ExclusionsSkipPairs) {
  ParticleSystem sys;
  sys.box.lengths = {5.0, 5.0, 5.0};
  sys.resize(2);
  sys.charges = {1.0, -1.0};
  sys.positions = {{2.0, 2.0, 2.0}, {2.5, 2.0, 2.0}};
  Topology topo;
  topo.lj().assign(2, LjParams{});
  topo.add_exclusion(0, 1);
  topo.finalize(2);
  ShortRangeParams params;
  params.cutoff = 1.0;
  params.alpha = 3.0;
  const ShortRangeResult r = compute_short_range(sys, topo, params);
  EXPECT_EQ(r.pair_count, 0u);
  EXPECT_EQ(r.energy_coulomb, 0.0);
}

TEST(ShortRange, ExclusionCorrectionMatchesErfTerm) {
  ParticleSystem sys;
  sys.box.lengths = {5.0, 5.0, 5.0};
  sys.resize(2);
  sys.charges = {0.4, -0.8};
  sys.positions = {{1.0, 1.0, 1.0}, {1.0, 1.1, 1.0}};
  Topology topo;
  topo.add_exclusion(0, 1);
  topo.finalize(2);
  sys.forces.assign(2, Vec3{});
  const double e = apply_exclusion_corrections(sys, topo, 3.0);
  EXPECT_NEAR(e, kCoulomb * 0.32 * g_long(0.1, 3.0), 1e-10);
  // Force: the subtraction must exactly cancel the erf-pair force a mesh
  // solver would produce.
  EXPECT_NEAR(sys.forces[0].y, -kCoulomb * (-0.32) * g_long_derivative(0.1, 3.0),
              1e-9);
}

// --- bonded ------------------------------------------------------------------

TEST(Bonded, HarmonicBondEnergyAndForce) {
  ParticleSystem sys;
  sys.box.lengths = {5.0, 5.0, 5.0};
  sys.resize(2);
  sys.positions = {{1.0, 1.0, 1.0}, {1.12, 1.0, 1.0}};
  Topology topo;
  topo.add_bond({0, 1, 0.1, 1000.0});
  const BondedResult r = compute_bonded(sys, topo);
  EXPECT_NEAR(r.energy_bonds, 0.5 * 1000.0 * 0.02 * 0.02, 1e-12);
  EXPECT_NEAR(sys.forces[0].x, 1000.0 * 0.02, 1e-9);  // pulled toward j
  EXPECT_NEAR(sys.forces[1].x, -1000.0 * 0.02, 1e-9);
}

TEST(Bonded, AngleForceMatchesNumericalGradient) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(3);
  sys.positions = {{1.0, 1.0, 1.0}, {2.0, 1.0, 1.0}, {2.4, 1.9, 1.2}};
  Topology topo;
  topo.add_angle({0, 1, 2, 1.8, 400.0});
  compute_bonded(sys, topo);
  const Vec3 analytic = sys.forces[2];
  const double eps = 1e-7;
  for (int axis = 0; axis < 3; ++axis) {
    auto perturbed = sys;
    perturbed.positions[2][static_cast<std::size_t>(axis)] += eps;
    perturbed.forces.assign(3, Vec3{});
    const double e_hi = compute_bonded(perturbed, topo).energy_angles;
    perturbed.positions[2][static_cast<std::size_t>(axis)] -= 2 * eps;
    perturbed.forces.assign(3, Vec3{});
    const double e_lo = compute_bonded(perturbed, topo).energy_angles;
    EXPECT_NEAR(analytic[static_cast<std::size_t>(axis)],
                -(e_hi - e_lo) / (2 * eps), 1e-4);
  }
}

TEST(Bonded, DihedralEnergyMatchesClosedForm) {
  // Four atoms with a known torsion angle of 90 degrees.
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(4);
  sys.positions = {{1.0, 1.0, 0.0}, {1.0, 0.0, 0.0}, {2.0, 0.0, 0.0},
                   {2.0, 0.0, 1.0}};
  Topology topo;
  topo.add_dihedral({0, 1, 2, 3, 2, 0.0, 5.0});  // V = 5 (1 + cos(2 phi))
  const BondedResult r = compute_bonded(sys, topo);
  // phi = +-90 degrees -> cos(2 phi) = -1 -> V = 0.
  EXPECT_NEAR(r.energy_dihedrals, 0.0, 1e-10);
}

TEST(Bonded, DihedralForceMatchesNumericalGradient) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(4);
  sys.positions = {{1.1, 1.0, 0.2}, {1.0, 0.1, 0.0}, {2.0, 0.0, 0.1},
                   {2.3, 0.4, 1.0}};
  Topology topo;
  topo.add_dihedral({0, 1, 2, 3, 3, 0.7, 12.0});
  compute_bonded(sys, topo);
  const auto analytic = sys.forces;
  const double eps = 1e-7;
  for (std::size_t atom = 0; atom < 4; ++atom) {
    for (int axis = 0; axis < 3; ++axis) {
      auto perturbed = sys;
      perturbed.positions[atom][static_cast<std::size_t>(axis)] += eps;
      perturbed.forces.assign(4, Vec3{});
      const double e_hi = compute_bonded(perturbed, topo).energy_dihedrals;
      perturbed.positions[atom][static_cast<std::size_t>(axis)] -= 2 * eps;
      perturbed.forces.assign(4, Vec3{});
      const double e_lo = compute_bonded(perturbed, topo).energy_dihedrals;
      EXPECT_NEAR(analytic[atom][static_cast<std::size_t>(axis)],
                  -(e_hi - e_lo) / (2 * eps), 1e-4)
          << "atom " << atom << " axis " << axis;
    }
  }
}

TEST(Bonded, DihedralForcesSumToZero) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(4);
  sys.positions = {{0.9, 1.2, 0.3}, {1.0, 0.0, 0.0}, {2.1, 0.2, 0.0},
                   {2.5, 0.1, 0.9}};
  Topology topo;
  topo.add_dihedral({0, 1, 2, 3, 1, 0.3, 7.0});
  compute_bonded(sys, topo);
  Vec3 net{};
  for (const Vec3& f : sys.forces) net += f;
  EXPECT_NEAR(norm(net), 0.0, 1e-10);
}

TEST(Bonded, CollinearDihedralIsSkippedSafely) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(4);
  sys.positions = {{1.0, 0.0, 0.0}, {2.0, 0.0, 0.0}, {3.0, 0.0, 0.0},
                   {4.0, 0.0, 0.0}};
  Topology topo;
  topo.add_dihedral({0, 1, 2, 3, 1, 0.0, 7.0});
  const BondedResult r = compute_bonded(sys, topo);
  for (const Vec3& f : sys.forces) EXPECT_EQ(norm(f), 0.0);
  (void)r;
}

TEST(Bonded, AngleForcesSumToZero) {
  ParticleSystem sys;
  sys.box.lengths = {10.0, 10.0, 10.0};
  sys.resize(3);
  sys.positions = {{1.0, 1.3, 0.9}, {2.0, 1.0, 1.0}, {2.4, 1.9, 1.2}};
  Topology topo;
  topo.add_angle({0, 1, 2, 1.8, 400.0});
  compute_bonded(sys, topo);
  const Vec3 net = sys.forces[0] + sys.forces[1] + sys.forces[2];
  EXPECT_NEAR(norm(net), 0.0, 1e-10);
}

// --- constraints -------------------------------------------------------------

bool bitwise_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

class ConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WaterBoxSpec spec;
    spec.molecules = 64;
    spec.seed = 5;
    wb_ = build_water_box(spec);
  }

  // Random unconstrained displacement of all atoms.
  std::vector<Vec3> displaced(double scale, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vec3> out = wb_.system.positions;
    for (auto& p : out) {
      p += Vec3{scale * rng.normal(), scale * rng.normal(), scale * rng.normal()};
    }
    return out;
  }

  std::vector<Vec3> random_velocities(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vec3> vel(wb_.system.size());
    for (auto& v : vel) v = {rng.normal(), rng.normal(), rng.normal()};
    return vel;
  }

  std::vector<Vec3> projected_random_velocities(const WaterConstraints& constraints,
                                                std::uint64_t seed) const {
    std::vector<Vec3> vel = random_velocities(seed);
    constraints.project_velocities(wb_.system.box, wb_.system.positions, vel);
    return vel;
  }

  // |d r_ij / dt| along the bond, nm/ps.
  double bond_rate(const std::vector<Vec3>& vel, std::size_t i, std::size_t j) const {
    const Vec3 rij =
        wb_.system.box.min_image_disp(wb_.system.positions[i], wb_.system.positions[j]);
    return std::abs(dot(rij, vel[i] - vel[j])) / norm(rij);
  }

  WaterBox wb_;
};

TEST_F(ConstraintTest, SettleRestoresRigidGeometry) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  std::vector<Vec3> pos = displaced(0.005, 7);
  constraints.apply_positions(wb_.system.box, wb_.system.positions, pos, nullptr,
                              0.001, ConstraintMethod::kSettle);
  EXPECT_LT(constraints.max_violation(wb_.system.box, pos), 1e-9);
}

TEST_F(ConstraintTest, ShakeRestoresRigidGeometry) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  std::vector<Vec3> pos = displaced(0.005, 7);
  constraints.apply_positions(wb_.system.box, wb_.system.positions, pos, nullptr,
                              0.001, ConstraintMethod::kShake);
  EXPECT_LT(constraints.max_violation(wb_.system.box, pos), 1e-9);
}

TEST_F(ConstraintTest, SettleAgreesWithShake) {
  // SETTLE is the analytical solution of the same constraint problem SHAKE
  // solves iteratively; for MD-sized displacements they must agree to the
  // SHAKE tolerance.
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  std::vector<Vec3> settled = displaced(0.003, 21);
  std::vector<Vec3> shaken = settled;
  constraints.apply_positions(wb_.system.box, wb_.system.positions, settled, nullptr,
                              0.001, ConstraintMethod::kSettle);
  constraints.apply_positions(wb_.system.box, wb_.system.positions, shaken, nullptr,
                              0.001, ConstraintMethod::kShake);
  double worst = 0.0;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    worst = std::max(worst, norm(settled[i] - shaken[i]));
  }
  EXPECT_LT(worst, 1e-6);
}

TEST_F(ConstraintTest, SettlePreservesMomentum) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  std::vector<Vec3> pos = displaced(0.004, 9);
  std::vector<Vec3> before = pos;
  constraints.apply_positions(wb_.system.box, wb_.system.positions, pos, nullptr,
                              0.001, ConstraintMethod::kSettle);
  // Internal constraint forces cannot change each molecule's COM.
  for (const RigidWater& w : wb_.topology.rigid_waters()) {
    const Vec3 delta_com = kMassO * (pos[w.o] - before[w.o]) +
                           kMassH * (pos[w.h1] - before[w.h1]) +
                           kMassH * (pos[w.h2] - before[w.h2]);
    EXPECT_LT(norm(delta_com), 1e-10);
  }
}

TEST_F(ConstraintTest, VelocityProjectionRemovesBondRates) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  const std::vector<Vec3> vel = projected_random_velocities(constraints, 33);
  for (const RigidWater& w : wb_.topology.rigid_waters()) {
    EXPECT_LT(bond_rate(vel, w.o, w.h1), 1e-12);
    EXPECT_LT(bond_rate(vel, w.o, w.h2), 1e-12);
    EXPECT_LT(bond_rate(vel, w.h1, w.h2), 1e-12);
  }
}

TEST_F(ConstraintTest, VelocityProjectionKeepsMolecularMomentaAndNeverHeats) {
  // The bond impulses are internal and central: each molecule keeps its
  // linear momentum and its angular momentum about its COM, and the
  // projection can only remove kinetic energy.
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  const std::vector<Vec3> before = random_velocities(34);
  const std::vector<Vec3> after = projected_random_velocities(constraints, 34);
  const Box& box = wb_.system.box;
  for (const RigidWater& w : wb_.topology.rigid_waters()) {
    const std::size_t idx[3] = {w.o, w.h1, w.h2};
    const double mass[3] = {kMassO, kMassH, kMassH};
    Vec3 r[3];  // unwrapped about the oxygen
    for (int a = 0; a < 3; ++a) {
      r[a] = box.min_image_disp(wb_.system.positions[idx[a]], wb_.system.positions[w.o]);
    }
    const Vec3 com = (kMassO * r[0] + kMassH * r[1] + kMassH * r[2]) /
                     (kMassO + 2.0 * kMassH);
    Vec3 dp{}, dl{};
    double ke_before = 0.0, ke_after = 0.0;
    for (int a = 0; a < 3; ++a) {
      const Vec3 dv = after[idx[a]] - before[idx[a]];
      dp += mass[a] * dv;
      dl += cross(r[a] - com, mass[a] * dv);
      ke_before += 0.5 * mass[a] * norm2(before[idx[a]]);
      ke_after += 0.5 * mass[a] * norm2(after[idx[a]]);
    }
    EXPECT_LT(norm(dp), 1e-12);
    EXPECT_LT(norm(dl), 1e-12);
    EXPECT_LE(ke_after, ke_before);
  }
}

TEST_F(ConstraintTest, VelocityProjectionMatchesIterativeRattle) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  const std::vector<Vec3> closed_form = projected_random_velocities(constraints, 35);
  std::vector<Vec3> iterative = random_velocities(35);
  // Gauss-Seidel RATTLE sweep over the three bonds, run to round-off.
  const Box& box = wb_.system.box;
  for (const RigidWater& w : wb_.topology.rigid_waters()) {
    const std::size_t idx[3] = {w.o, w.h1, w.h2};
    const double inv_m[3] = {1.0 / kMassO, 1.0 / kMassH, 1.0 / kMassH};
    const int pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
    for (int iter = 0; iter < 1000; ++iter) {
      double worst = 0.0;
      for (const auto& [a, b] : pairs) {
        const std::size_t i = idx[a], j = idx[b];
        const Vec3 rij = box.min_image_disp(wb_.system.positions[i],
                                            wb_.system.positions[j]);
        const Vec3 vij = iterative[i] - iterative[j];
        const double k = dot(rij, vij) / (norm2(rij) * (inv_m[a] + inv_m[b]));
        worst = std::max(worst, std::abs(dot(rij, vij)) / norm(rij));
        iterative[i] -= (k * inv_m[a]) * rij;
        iterative[j] += (k * inv_m[b]) * rij;
      }
      if (worst < 1e-15) break;
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < closed_form.size(); ++i) {
    worst = std::max(worst, norm(closed_form[i] - iterative[i]));
  }
  EXPECT_LT(worst, 1e-9);
}

TEST_F(ConstraintTest, ConstraintCallsAreBitwiseInvariantUnderPoolSize) {
  const WaterConstraints constraints(wb_.topology, wb_.system.masses, ConstraintParams{});
  const Box& box = wb_.system.box;
  for (const ConstraintMethod method : {ConstraintMethod::kSettle, ConstraintMethod::kShake}) {
    std::vector<Vec3> ref_pos, ref_vel;
    for (const unsigned threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads - 1);
      std::vector<Vec3> pos = displaced(0.004, 36);
      std::vector<Vec3> vel = random_velocities(37);
      constraints.apply_positions(box, wb_.system.positions, pos, &vel, 0.001, method,
                                  &pool);
      constraints.project_velocities(box, pos, vel, &pool);
      if (threads == 1) {
        ref_pos = pos;
        ref_vel = vel;
        continue;
      }
      EXPECT_TRUE(bitwise_equal(pos, ref_pos)) << threads << " threads";
      EXPECT_TRUE(bitwise_equal(vel, ref_vel)) << threads << " threads";
    }
  }
}

// --- NVE integration ----------------------------------------------------------

TEST(Integrator, NveConservesEnergyWithSpme) {
  WaterBoxSpec spec;
  spec.molecules = 216;  // box ~1.87 nm so that r_c < L/2
  spec.temperature = 300.0;
  WaterBox wb = build_water_box(spec);

  const double r_cut = 0.7;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  SpmeParams sp;
  sp.alpha = alpha;
  sp.grid = {16, 16, 16};
  ForceField ff(sr, make_spme_solver(wb.system.box, sp));

  IntegratorParams ip;
  ip.dt = 0.001;
  const VelocityVerlet integrator(wb.topology, wb.system, ip);
  integrator.prime(wb.system, wb.topology, ff);
  // Let the freshly built lattice relax before measuring conservation.
  StepReport report{};
  for (int s = 0; s < 20; ++s) report = integrator.step(wb.system, wb.topology, ff);
  const double e0 = report.total();

  double max_drift = 0.0;
  for (int s = 0; s < 100; ++s) {
    report = integrator.step(wb.system, wb.topology, ff);
    max_drift = std::max(max_drift, std::abs(report.total() - e0));
  }
  // 100 fs of NVE: fluctuation stays well below 1% of the kinetic energy.
  EXPECT_LT(max_drift, 0.01 * report.kinetic + 1.0);
  // Constraints stay satisfied throughout.
  EXPECT_LT(integrator.constraints().max_violation(wb.system.box,
                                                   wb.system.positions),
            1e-8);
}

TEST(Integrator, SettleAndShakeGiveSameTrajectory) {
  WaterBoxSpec spec;
  spec.molecules = 125;  // box ~1.56 nm: r_c < L/2
  WaterBox wb1 = build_water_box(spec);
  WaterBox wb2 = build_water_box(spec);

  const double r_cut = 0.7;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  auto make_ff = [&](const Box& box) {
    SpmeParams sp;
    sp.alpha = alpha;
    sp.grid = {16, 16, 16};
    return ForceField(sr, make_spme_solver(box, sp));
  };
  const ForceField ff1 = make_ff(wb1.system.box);
  const ForceField ff2 = make_ff(wb2.system.box);

  IntegratorParams p1;
  p1.constraint_method = ConstraintMethod::kSettle;
  IntegratorParams p2;
  p2.constraint_method = ConstraintMethod::kShake;
  const VelocityVerlet i1(wb1.topology, wb1.system, p1);
  const VelocityVerlet i2(wb2.topology, wb2.system, p2);
  i1.prime(wb1.system, wb1.topology, ff1);
  i2.prime(wb2.system, wb2.topology, ff2);
  for (int s = 0; s < 20; ++s) {
    i1.step(wb1.system, wb1.topology, ff1);
    i2.step(wb2.system, wb2.topology, ff2);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < wb1.system.size(); ++i) {
    worst = std::max(worst, norm(wb1.system.positions[i] - wb2.system.positions[i]));
  }
  EXPECT_LT(worst, 1e-5);
}

TEST(Integrator, TrajectoryIsBitwiseInvariantUnderConstraintPoolSize) {
  // VelocityVerlet::step with its constraint calls on an explicit pool: the
  // same three phases as the integrator, so pool size 1, 2 and 4 must all
  // reproduce the integrator's own trajectory bit for bit.
  WaterBoxSpec spec;
  spec.molecules = 125;
  const double alpha = alpha_from_tolerance(0.7, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = 0.7;
  sr.alpha = alpha;
  const auto make_ff = [&](const Box& box) {
    SpmeParams sp;
    sp.alpha = alpha;
    sp.grid = {16, 16, 16};
    return ForceField(sr, make_spme_solver(box, sp));
  };
  constexpr int kSteps = 50;

  WaterBox ref = build_water_box(spec);
  const ForceField ref_ff = make_ff(ref.system.box);
  const VelocityVerlet integrator(ref.topology, ref.system, IntegratorParams{});
  integrator.prime(ref.system, ref.topology, ref_ff);
  for (int s = 0; s < kSteps; ++s) integrator.step(ref.system, ref.topology, ref_ff);

  const WaterConstraints& constraints = integrator.constraints();
  const double dt = integrator.params().dt;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads - 1);
    WaterBox wb = build_water_box(spec);
    ParticleSystem& sys = wb.system;
    const ForceField ff = make_ff(sys.box);
    constraints.project_velocities(sys.box, sys.positions, sys.velocities, &pool);
    ff.evaluate(sys, wb.topology);
    for (int s = 0; s < kSteps; ++s) {
      const std::vector<Vec3> previous = sys.positions;
      for (std::size_t i = 0; i < sys.size(); ++i) {
        sys.velocities[i] += (0.5 * dt / sys.masses[i]) * sys.forces[i];
        sys.positions[i] += dt * sys.velocities[i];
      }
      constraints.apply_positions(sys.box, previous, sys.positions, &sys.velocities, dt,
                                  ConstraintMethod::kSettle, &pool);
      ff.evaluate(sys, wb.topology);
      for (std::size_t i = 0; i < sys.size(); ++i) {
        sys.velocities[i] += (0.5 * dt / sys.masses[i]) * sys.forces[i];
      }
      constraints.project_velocities(sys.box, sys.positions, sys.velocities, &pool);
    }
    EXPECT_TRUE(bitwise_equal(sys.positions, ref.system.positions)) << threads;
    EXPECT_TRUE(bitwise_equal(sys.velocities, ref.system.velocities)) << threads;
  }
}

TEST(Integrator, MomentumIsConservedApproximately) {
  WaterBoxSpec spec;
  spec.molecules = 125;
  WaterBox wb = build_water_box(spec);
  const double alpha = alpha_from_tolerance(0.7, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = 0.7;
  sr.alpha = alpha;
  SpmeParams sp;
  sp.alpha = alpha;
  sp.grid = {16, 16, 16};
  ForceField ff(sr, make_spme_solver(wb.system.box, sp));
  const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
  integrator.prime(wb.system, wb.topology, ff);
  for (int s = 0; s < 50; ++s) integrator.step(wb.system, wb.topology, ff);
  // The mesh force is the only non-conserving term; its net force is tiny.
  double v_scale = 0.0;
  for (std::size_t i = 0; i < wb.system.size(); ++i) {
    v_scale += wb.system.masses[i] * norm(wb.system.velocities[i]);
  }
  EXPECT_LT(norm(wb.system.momentum()), 1e-3 * v_scale);
}

TEST(Integrator, NveConservesEnergyWithFullBondedStack) {
  // A flexible 5-bead chain (bonds + angles + torsions) in a periodic box
  // with SPME electrostatics: the complete force-field stack must conserve
  // energy under velocity Verlet.
  ParticleSystem sys;
  sys.box.lengths = {3.0, 3.0, 3.0};
  sys.resize(5);
  Topology topo;
  const double b0 = 0.15;
  for (std::size_t b = 0; b < 5; ++b) {
    const double zig = (b % 2 == 0) ? 0.0 : 0.08;
    sys.positions[b] = {1.0 + 0.13 * static_cast<double>(b), 1.5, 1.5 + zig};
    sys.masses[b] = 12.0;
    sys.charges[b] = (b % 2 == 0) ? 0.3 : -0.3;
    topo.lj().push_back({0.25, 0.2});
  }
  sys.charges[4] -= 0.3;  // neutralise
  for (std::size_t b = 0; b + 1 < 5; ++b) topo.add_bond({b, b + 1, b0, 30000.0});
  for (std::size_t b = 0; b + 2 < 5; ++b) {
    topo.add_angle({b, b + 1, b + 2, 2.0, 300.0});
  }
  for (std::size_t b = 0; b + 3 < 5; ++b) {
    topo.add_dihedral({b, b + 1, b + 2, b + 3, 3, 0.4, 4.0});
  }
  topo.build_exclusions_from_bonded();
  topo.finalize(5);

  const double r_cut = 0.9;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  sr.shift_lj = true;
  SpmeParams sp;
  sp.alpha = alpha;
  sp.grid = {16, 16, 16};
  const ForceField ff(sr, make_spme_solver(sys.box, sp));
  const VelocityVerlet integrator(topo, sys, IntegratorParams{});
  // Small random velocities.
  Rng rng(4);
  for (auto& v : sys.velocities) v = {0.2 * rng.normal(), 0.2 * rng.normal(),
                                      0.2 * rng.normal()};
  StepReport report = integrator.prime(sys, topo, ff);
  const double e0 = report.total();
  double worst = 0.0;
  bool torsions_active = false;
  for (int s = 0; s < 400; ++s) {
    report = integrator.step(sys, topo, ff);
    worst = std::max(worst, std::abs(report.total() - e0));
    if (report.energies.dihedrals > 0.1) torsions_active = true;
  }
  EXPECT_LT(worst, 0.5);  // kJ/mol over 0.4 ps
  EXPECT_TRUE(torsions_active);
}

TEST(ForceField, RejectsMismatchedAlpha) {
  const Box box{{4.0, 4.0, 4.0}};
  ShortRangeParams sr;
  sr.alpha = 2.0;
  SpmeParams sp;
  sp.alpha = 3.0;
  sp.grid = {16, 16, 16};
  EXPECT_THROW(ForceField(sr, make_spme_solver(box, sp)), std::invalid_argument);
}

TEST(ForceField, TmeAndSpmeGiveSameEnergiesOnWater) {
  WaterBoxSpec spec;
  spec.molecules = 512;  // box ~2.49 nm
  WaterBox wb_a = build_water_box(spec);
  WaterBox wb_b = build_water_box(spec);
  // Keep the paper's operating point alpha * h ~ 0.69: r_c = 4 h.
  const double r_cut = wb_a.system.box.lengths.x * 4.0 / 16.0;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;

  SpmeParams sp;
  sp.alpha = alpha;
  sp.grid = {16, 16, 16};
  const ForceField ff_spme(sr, make_spme_solver(wb_a.system.box, sp));

  TmeParams tp;
  tp.alpha = alpha;
  tp.grid = {16, 16, 16};
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  const ForceField ff_tme(sr, make_tme_solver(wb_b.system.box, tp));

  const EnergyReport e_spme = ff_spme.evaluate(wb_a.system, wb_a.topology);
  const EnergyReport e_tme = ff_tme.evaluate(wb_b.system, wb_b.topology);
  // The systematic TME-vs-SPME offset scales with the gross reciprocal
  // energy kC alpha/sqrt(pi) sum q^2 (the net potential of an
  // unequilibrated lattice is a poor yardstick); measured ~6e-4 of gross.
  double q2 = 0.0;
  for (const double q : wb_a.system.charges) q2 += q * q;
  const double gross = kCoulomb * alpha / std::sqrt(M_PI) * q2;
  EXPECT_NEAR(e_tme.potential(), e_spme.potential(), 1.5e-3 * gross);
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < wb_a.system.size(); ++i) {
    worst = std::max(worst, norm(wb_a.system.forces[i] - wb_b.system.forces[i]));
    scale = std::max(scale, norm(wb_a.system.forces[i]));
  }
  EXPECT_LT(worst, 5e-3 * scale);
}

}  // namespace
}  // namespace tme
