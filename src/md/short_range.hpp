// Short-range nonbonded interactions — the workload of MDGRAPE-4A's 64
// dedicated nonbond pipelines (paper Sec. II): the erfc-screened real-space
// Coulomb term of the Ewald splitting plus Lennard-Jones, evaluated with a
// cell list under the minimum-image convention, skipping excluded pairs.
//
// Two evaluators share these parameter/result types:
//  - compute_short_range (below): the serial reference loop over a fresh
//    cell list, kept as the equivalence baseline for tests;
//  - ShortRangeEngine (md/short_range_engine.hpp): the production path —
//    a buffered Verlet pair list kept across calls, parallel row ranges,
//    precombined LJ table, optional tabulated Coulomb kernel mirroring the
//    hardware's table-lookup evaluators.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "md/system.hpp"
#include "md/topology.hpp"

namespace tme {

class ThreadPool;

// How the real-space (erfc) Coulomb kernel is evaluated per pair.
enum class CoulombKernel {
  kAnalytic,   // std::erfc / std::sqrt per pair (exact)
  kTabulated,  // segmented-polynomial table in r² (hardware-faithful; see
               // ewald/force_table.hpp for the measured accuracy bound)
};

struct ShortRangeParams {
  double cutoff = 1.2;     // nm, shared by LJ and real-space Coulomb
  double alpha = 3.0;      // Ewald splitting parameter, nm^-1
  bool shift_lj = false;   // subtract LJ at the cutoff (energy continuity)

  // Kernel selection (used by ShortRangeEngine; the serial reference loop is
  // always analytic).  The table covers [table_r_min, cutoff] and falls back
  // to the analytic kernel below table_r_min.
  CoulombKernel kernel = CoulombKernel::kAnalytic;
  double table_r_min = 0.1;           // nm
  std::size_t table_segments = 4096;

  // Multiplies the Newton's-third-law (net-force) ABFT tolerance — the same
  // loosening knob as GuardedTmeConfig::tolerance_scale, for reduced formats.
  double abft_tolerance_scale = 1.0;

  // Which instantiation of the batched pair kernel the engine runs: follow
  // the TME_SIMD environment knob (default), or pin scalar/native for A/B
  // sweeps within one process (bench_shortrange, parity tests).  Scalar and
  // native are bitwise identical per build (see util/simd.hpp).
  enum class SimdChoice { kEnv, kScalar, kNative };
  SimdChoice simd = SimdChoice::kEnv;
};

struct ShortRangeResult {
  double energy_coulomb = 0.0;  // kJ/mol (erfc part)
  double energy_lj = 0.0;       // kJ/mol
  std::size_t pair_count = 0;   // pairs inside the cutoff (after exclusions)

  // Newton's-third-law ABFT check (filled by ShortRangeEngine).  Every pair
  // accumulates +f on one particle and -f on the other, so the engine's own
  // contribution sums to zero up to reduction rounding; an SDC flip in a
  // force accumulator breaks the cancellation.
  Vec3 net_force{};                  // engine's summed force contribution
  double net_force_tolerance = 0.0;  // rounding envelope for that sum
  bool third_law_ok = true;          // |net_force| within tolerance, per axis
};

// Serial reference evaluator.  Accumulates forces into system.forces (does
// not clear them).  Production code should prefer ShortRangeEngine.
ShortRangeResult compute_short_range(ParticleSystem& system, const Topology& topology,
                                     const ShortRangeParams& params);

// Correction for excluded pairs: the mesh (long-range) solvers include the
// erf part for *all* pairs, so for every excluded pair subtract
// q_i q_j erf(alpha r)/r (energy and force).  Accumulates into forces.
//
// The per-pair kernel evaluations run on `pool` (nullptr = the process-wide
// pool); the scatter into forces and the energy sum stay serial in exclusion
// list order, so the result is bitwise identical for every pool size.
double apply_exclusion_corrections(ParticleSystem& system, const Topology& topology,
                                   double alpha, ThreadPool* pool = nullptr);

}  // namespace tme
