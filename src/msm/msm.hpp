// B-spline multilevel summation method (MSM) — the baseline the paper's
// Sec. III.C cost analysis compares the TME against (Hardy et al. 2016).
//
// Structure is identical to the TME: the grid solve is the same multilevel
// driver (grid/multilevel.hpp), and this file supplies only its stage
// bodies.  The one difference is the one that motivates the TME: the
// level kernels are *exact* shell kernels, not sums of M separable
// Gaussians, so the level convolution stage is a dense 3D stencil of
// (2 g_c + 1)^3 taps instead of 3 M passes of (2 g_c + 1) taps.
//
// Substitution note (DESIGN.md): classic MSM softens 1/r with polynomial
// splittings; this implementation keeps the paper's Ewald splitting and the
// SPME top level so that TME and MSM differ in exactly one variable — the
// convolution structure — which is what both the accuracy comparison and
// the cost model isolate.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ewald/charge_assignment.hpp"
#include "ewald/reference_ewald.hpp"
#include "ewald/spme.hpp"
#include "grid/grid3d.hpp"
#include "util/vec3.hpp"

namespace tme {

struct MsmParams {
  int order = 6;       // B-spline order p (even)
  GridDims grid;       // finest grid N
  double alpha = 3.0;  // Ewald splitting parameter, nm^-1
  int levels = 1;      // L middle-range levels
  int grid_cutoff = 8; // g_c: dense kernel reach per axis
  bool subtract_self = true;
};

class Msm {
 public:
  Msm(const Box& box, const MsmParams& params);

  const MsmParams& params() const { return params_; }
  const Box& box() const { return box_; }

  // Long-range energy and forces, same contract as Tme::compute.
  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges) const;

  // Grid pipeline alone (finest charges -> finest potentials).
  Grid3d solve_potential(const Grid3d& finest_charges) const;

  // The dense (2 g_c + 1)^3 kernel cube of one level (exposed for tests and
  // the cost benches).
  const std::vector<double>& level_kernel(int level) const;

 private:
  Box box_;
  MsmParams params_;
  ChargeAssigner assigner_;
  std::vector<std::vector<double>> kernels_;  // dense cubes, level 1..L
  std::unique_ptr<Spme> top_;
};

// Builds the exact level-l kernel cube: the periodised shell g_{alpha,l}
// expanded in the level's B-spline basis (G = g * omega' per the same
// construction as the TME, but on the full 3D sample cube), truncated to
// (2 g_c + 1)^3 with periodic-class deduplication.
std::vector<double> msm_level_kernel(const Box& box, GridDims level_dims,
                                     int order, double alpha, int level,
                                     int grid_cutoff);

}  // namespace tme
