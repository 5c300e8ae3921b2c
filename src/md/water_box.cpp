#include "md/water_box.hpp"

#include <cmath>
#include <stdexcept>

#include "util/constants.hpp"
#include "util/rng.hpp"

namespace tme {

namespace {

using namespace constants;

// TIP3P molecular geometry in a local frame: O at the apex, H's below,
// centred on O.
struct WaterTemplate {
  Vec3 o{0.0, 0.0, 0.0};
  Vec3 h1, h2;

  WaterTemplate() {
    const double half_angle = 0.5 * kTip3pAngleHOH * M_PI / 180.0;
    h1 = {kTip3pBondOH * std::sin(half_angle), 0.0, kTip3pBondOH * std::cos(half_angle)};
    h2 = {-kTip3pBondOH * std::sin(half_angle), 0.0, kTip3pBondOH * std::cos(half_angle)};
  }
};

// Random rotation matrix via a uniformly random unit quaternion.
struct Rotation {
  Vec3 col0, col1, col2;

  static Rotation random(Rng& rng) {
    // Shoemake's method: uniform quaternion from three uniforms.
    const double u1 = rng.uniform(), u2 = rng.uniform(), u3 = rng.uniform();
    const double qx = std::sqrt(1.0 - u1) * std::sin(2.0 * M_PI * u2);
    const double qy = std::sqrt(1.0 - u1) * std::cos(2.0 * M_PI * u2);
    const double qz = std::sqrt(u1) * std::sin(2.0 * M_PI * u3);
    const double qw = std::sqrt(u1) * std::cos(2.0 * M_PI * u3);
    Rotation r;
    r.col0 = {1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy + qz * qw),
              2 * (qx * qz - qy * qw)};
    r.col1 = {2 * (qx * qy - qz * qw), 1 - 2 * (qx * qx + qz * qz),
              2 * (qy * qz + qx * qw)};
    r.col2 = {2 * (qx * qz + qy * qw), 2 * (qy * qz - qx * qw),
              1 - 2 * (qx * qx + qy * qy)};
    return r;
  }

  Vec3 apply(const Vec3& v) const { return v.x * col0 + v.y * col1 + v.z * col2; }
};

}  // namespace

WaterBoxSpec paper_table1_spec() {
  WaterBoxSpec spec;
  spec.molecules = 32773;
  spec.box_length = 9.97270;
  return spec;
}

void add_ion_pairs(WaterBox& box, std::size_t pairs, std::uint64_t seed) {
  if (pairs == 0) return;
  if (2 * pairs > box.molecules) {
    throw std::invalid_argument("add_ion_pairs: not enough waters to replace");
  }
  // Joung–Cheatham (TIP3P-matched) ion parameters.
  struct IonSpec {
    double charge, mass, sigma, epsilon;
  };
  const IonSpec na{+1.0, 22.98977, 0.2439, 0.36585};
  const IonSpec cl{-1.0, 35.45300, 0.4478, 0.14891};

  // Pick 2*pairs distinct molecules to convert.
  Rng rng(seed);
  std::vector<std::size_t> chosen;
  std::vector<bool> taken(box.molecules, false);
  while (chosen.size() < 2 * pairs) {
    const std::size_t m = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(box.molecules)));
    if (m >= box.molecules || taken[m]) continue;
    taken[m] = true;
    chosen.push_back(m);
  }

  WaterBox out;
  out.system.box = box.system.box;
  std::size_t ion_index = 0;
  // Waters first (preserving rigid groups), then ions.
  std::vector<std::pair<std::size_t, IonSpec>> ions;  // (source O atom, spec)
  for (std::size_t m = 0; m < box.molecules; ++m) {
    const std::size_t o = 3 * m;
    if (taken[m]) {
      ions.emplace_back(o, (ion_index++ % 2 == 0) ? na : cl);
      continue;
    }
    const std::size_t base = out.system.positions.size();
    for (std::size_t a = o; a < o + 3; ++a) {
      out.system.positions.push_back(box.system.positions[a]);
      out.system.velocities.push_back(box.system.velocities[a]);
      out.system.forces.push_back({});
      out.system.masses.push_back(box.system.masses[a]);
      out.system.charges.push_back(box.system.charges[a]);
      out.topology.lj().push_back(box.topology.lj()[a]);
    }
    out.topology.add_rigid_water({base, base + 1, base + 2});
    ++out.molecules;
  }
  for (const auto& [o, spec] : ions) {
    out.system.positions.push_back(box.system.positions[o]);
    // Rescale the donor oxygen's velocity to the ion mass (same kinetic
    // energy share).
    out.system.velocities.push_back(box.system.velocities[o] *
                                    std::sqrt(box.system.masses[o] / spec.mass));
    out.system.forces.push_back({});
    out.system.masses.push_back(spec.mass);
    out.system.charges.push_back(spec.charge);
    out.topology.lj().push_back({spec.sigma, spec.epsilon});
  }
  out.topology.finalize(out.system.size());
  box = std::move(out);
}

WaterBox build_water_box(const WaterBoxSpec& spec) {
  if (spec.molecules == 0) throw std::invalid_argument("build_water_box: empty box");
  WaterBox out;
  out.molecules = spec.molecules;

  double box_length = spec.box_length;
  if (box_length <= 0.0) {
    // TIP3P liquid number density ~ 33.0 molecules / nm^3 (0.986 g/cm^3).
    box_length = std::cbrt(static_cast<double>(spec.molecules) / 33.0);
  }
  out.system.box.lengths = {box_length, box_length, box_length};

  std::size_t cells = 1;
  while (cells * cells * cells < spec.molecules) ++cells;
  const double spacing = box_length / static_cast<double>(cells);

  const std::size_t n_atoms = 3 * spec.molecules;
  out.system.resize(n_atoms);

  Rng rng(spec.seed);
  const WaterTemplate mol;
  out.topology.lj().resize(n_atoms);  // hydrogens stay LJ-less (TIP3P)
  for (std::size_t m = 0; m < spec.molecules; ++m) {
    const std::size_t cx = m % cells;
    const std::size_t cy = (m / cells) % cells;
    const std::size_t cz = m / (cells * cells);
    // Small jitter keeps the initial configuration off an exact lattice
    // (an exact lattice aliases coherently with the mesh grids).
    const Vec3 centre{(cx + 0.5) * spacing + rng.uniform(-0.02, 0.02),
                      (cy + 0.5) * spacing + rng.uniform(-0.02, 0.02),
                      (cz + 0.5) * spacing + rng.uniform(-0.02, 0.02)};
    const Rotation rot = Rotation::random(rng);

    const std::size_t o = 3 * m, h1 = 3 * m + 1, h2 = 3 * m + 2;
    out.system.positions[o] = out.system.box.wrap(centre + rot.apply(mol.o));
    out.system.positions[h1] = out.system.box.wrap(centre + rot.apply(mol.h1));
    out.system.positions[h2] = out.system.box.wrap(centre + rot.apply(mol.h2));

    out.system.masses[o] = kMassO;
    out.system.masses[h1] = out.system.masses[h2] = kMassH;
    out.system.charges[o] = kTip3pChargeO;
    out.system.charges[h1] = out.system.charges[h2] = kTip3pChargeH;

    out.topology.add_rigid_water({o, h1, h2});
    out.topology.lj()[o] = {kTip3pSigmaO, kTip3pEpsilonO};
  }

  // Maxwell–Boltzmann velocities at the requested temperature; rigid-body
  // projection happens on the first constrained step.
  for (std::size_t i = 0; i < n_atoms; ++i) {
    const double sigma_v =
        std::sqrt(kBoltzmann * spec.temperature / out.system.masses[i]);
    out.system.velocities[i] = {sigma_v * rng.normal(), sigma_v * rng.normal(),
                                sigma_v * rng.normal()};
  }
  out.system.remove_com_motion();

  out.topology.finalize(n_atoms);
  return out;
}

}  // namespace tme
