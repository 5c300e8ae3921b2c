// Molecular topology: bonded terms, exclusions, rigid water groups.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace tme {

struct Bond {
  std::size_t i = 0;
  std::size_t j = 0;
  double length = 0.0;          // equilibrium, nm
  double force_constant = 0.0;  // kJ mol^-1 nm^-2
};

struct Angle {
  std::size_t i = 0;  // outer
  std::size_t j = 0;  // centre
  std::size_t k = 0;  // outer
  double theta0 = 0.0;          // equilibrium, radians
  double force_constant = 0.0;  // kJ mol^-1 rad^-2
};

// Periodic (proper) torsion: V = k (1 + cos(n phi - phi0)).
struct Dihedral {
  std::size_t i = 0;  // chain i - j - k - l
  std::size_t j = 0;
  std::size_t k = 0;
  std::size_t l = 0;
  int multiplicity = 1;         // n
  double phi0 = 0.0;            // radians
  double force_constant = 0.0;  // kJ/mol
};

// Rigid 3-site water (O, H1, H2) handled by SETTLE.
struct RigidWater {
  std::size_t o = 0;
  std::size_t h1 = 0;
  std::size_t h2 = 0;
};

// Per-atom Lennard-Jones parameters (geometric/Lorentz–Berthelot combined at
// evaluation time).
struct LjParams {
  double sigma = 0.0;    // nm
  double epsilon = 0.0;  // kJ/mol
};

class Topology {
 public:
  void add_bond(const Bond& b) { bonds_.push_back(b); }
  void add_angle(const Angle& a) { angles_.push_back(a); }
  void add_dihedral(const Dihedral& d) { dihedrals_.push_back(d); }
  void add_rigid_water(const RigidWater& w);
  void add_exclusion(std::size_t i, std::size_t j);

  const std::vector<Bond>& bonds() const { return bonds_; }
  const std::vector<Angle>& angles() const { return angles_; }
  const std::vector<Dihedral>& dihedrals() const { return dihedrals_; }
  const std::vector<RigidWater>& rigid_waters() const { return rigid_waters_; }
  const std::vector<std::pair<std::size_t, std::size_t>>& exclusions() const {
    return exclusions_;
  }

  std::vector<LjParams>& lj() { return lj_; }
  const std::vector<LjParams>& lj() const { return lj_; }

  // Derive 1-2 and 1-3 exclusions from the bond/angle lists (idempotent:
  // duplicates are removed).
  void build_exclusions_from_bonded();

  // Fast membership test; call finalize() after all exclusions are added.
  void finalize(std::size_t n_atoms);
  bool excluded(std::size_t i, std::size_t j) const;
  // The atoms excluded() pairs with i, ascending (empty before finalize()).
  std::span<const std::size_t> excluded_partners(std::size_t i) const;

  // Number of constrained degrees of freedom (3 per rigid water).
  std::size_t constraint_count() const { return 3 * rigid_waters_.size(); }
  // Unconstrained degrees of freedom of `n_atoms` atoms under this topology:
  // 3N minus the constraints minus 3 for the centre of mass.
  std::size_t degrees_of_freedom(std::size_t n_atoms) const {
    return 3 * n_atoms - constraint_count() - 3;
  }

 private:
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<Dihedral> dihedrals_;
  std::vector<RigidWater> rigid_waters_;
  std::vector<std::pair<std::size_t, std::size_t>> exclusions_;
  std::vector<LjParams> lj_;
  // CSR-style adjacency for excluded() lookups.
  std::vector<std::size_t> excl_offsets_;
  std::vector<std::size_t> excl_neighbours_;
};

}  // namespace tme
