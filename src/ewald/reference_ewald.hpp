// Classical Ewald summation — the accuracy reference of the paper
// (Table 1 computes relative force errors of SPME and TME against this).
//
// Energy (kJ/mol) and forces (kJ mol^-1 nm^-1) of N point charges in a
// periodic orthorhombic box:
//   E = E_real + E_reciprocal + E_self
//   E_real       = kC sum_{i<j, r<r_c} q_i q_j erfc(alpha r)/r   (minimum image)
//   E_reciprocal = kC/(2V) sum_{k != 0, |n| <= n_c} (4pi/k^2) e^{-k^2/4a^2} |S(k)|^2
//   E_self       = -kC alpha/sqrt(pi) sum q_i^2
// The paper's reference uses r_c = L/2 and n_c = 22 so both truncation error
// factors fall below 1e-15.
#pragma once

#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace tme {

class ThreadPool;

struct EwaldParams {
  double alpha = 3.0;    // nm^-1
  double r_cut = 0.0;    // real-space cutoff; 0 means L_min/2
  int n_cut = 0;         // reciprocal cutoff |n| <= n_cut; 0 means auto (1e-15)
};

struct CoulombResult {
  double energy = 0.0;                  // kJ/mol
  double energy_real = 0.0;
  double energy_reciprocal = 0.0;
  double energy_self = 0.0;
  double energy_background = 0.0;       // net-charge neutralising background
  std::vector<Vec3> forces;             // kJ mol^-1 nm^-1

  // Trace of the Coulomb virial tensor (kJ/mol), with the convention
  // P V = N k T + virial / 3.  Filled analytically by ewald_reference and by
  // Spme when SpmeParams::compute_virial is set; other solvers leave it 0
  // (their LongRangeSolver adapters report computes_virial() = false).
  double virial = 0.0;

  // Root-sum-square relative force deviation against a reference
  // (the paper's Table 1 metric).
  double relative_force_error_against(const CoulombResult& reference) const;
};

// Full Ewald sum, threaded on `pool` (nullptr = the process-wide pool).
// Positions may be outside the box; they are wrapped internally.  Each
// range's partial sums are added in range order, so the result is the same
// on every call at a given pool size.
CoulombResult ewald_reference(const Box& box, std::span<const Vec3> positions,
                              std::span<const double> charges,
                              const EwaldParams& params, ThreadPool* pool = nullptr);

// Direct real-space lattice sum over periodic images out to `shells` image
// layers of the *bare* 1/r kernel.  Converges only for special geometries
// (used by the Madelung tests/example, where shell-wise charge neutrality
// makes it conditionally convergent); not for production use.
double direct_lattice_energy(const Box& box, std::span<const Vec3> positions,
                             std::span<const double> charges, int shells);

}  // namespace tme
