// Row kernel of the short-range engine — the vectorized heart of the
// software nonbond pipelines.
//
// sweep_rows() walks rows of the engine's CSR half list.  For each row it
// gathers W columns' positions, takes their minimum images, left-packs the
// columns inside the cutoff into row-local SoA buffers, and evaluates the
// packed pairs W at a time with the portable SIMD layer (util/simd.hpp):
// the segmented-polynomial erfc table in r² or the analytic erfc, and the
// precombined Lorentz–Berthelot LJ term.  Each pair's force comes off its
// column atom through a vector gather, fnma and scatter (a row's columns are
// distinct and never the row atom, so no two lanes collide) and goes onto
// the row atom, one pair at a time in column order, as do the two energies.
// The scalar twin (W = 1) executes the identical op sequence, so the two
// modes are bitwise interchangeable (TME_SIMD=scalar|native).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): every fused multiply-add is written out as
// simd::fma / fnma / fma1, never left to the compiler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ewald/force_table.hpp"
#include "util/simd.hpp"
#include "util/vec3.hpp"

namespace tme {

// Coulomb kernel configuration: `table` selects the segmented-polynomial r²
// path (non-null) or the analytic erfc path.
struct PairKernelConfig {
  double alpha = 0.0;
  const ForceTable* table = nullptr;
};

// Read-only view of what a sweep needs: the half list, the atoms and the
// precombined LJ mixing table.
struct PairRows {
  // Row i holds the columns cols[row_start[i] .. row_start[i + 1]),
  // ascending and never i.  `cols` carries simd::kNativeWidth readable
  // entries past the last row, so a row's last vector may overhang it.
  const std::size_t* row_start = nullptr;
  const std::uint32_t* cols = nullptr;

  // Positions by coordinate, charges and LJ type per atom.
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* charge = nullptr;
  const std::uint32_t* type_of = nullptr;

  // Mixing table of `ntypes` types, row-major by (type_i, type_j):
  // E = (c12/r⁶ - c6)/r⁶ - e_shift and f·r = (12 c12/r⁶ - 6 c6)/r⁶ / r².
  const double* c6 = nullptr;
  const double* c12 = nullptr;
  const double* e_shift = nullptr;
  std::size_t ntypes = 0;

  Vec3 box{};           // orthorhombic box lengths; cutoff < L/2 on each axis
  double cutoff2 = 0.0;  // pairs with r² >= cutoff2 (or r² == 0) are skipped
  PairKernelConfig kernel;
};

// One sweep's accumulators: forces by coordinate (indexed by atom), the two
// energies and the count of evaluated pairs.  sweep_rows() adds to them.
struct PairSums {
  std::vector<double> fx, fy, fz;
  double energy_coulomb = 0.0;
  double energy_lj = 0.0;
  std::size_t pairs = 0;

  // Zeroes everything for n atoms, keeping the storage.
  void reset(std::size_t n);
};

// Evaluates rows [row_begin, row_end) into `sums`.  `mode` picks the
// native-width or the W = 1 instantiation of the same kernel; both give
// bitwise-identical sums.  The analytic Coulomb path (erfc/sqrt) runs pair
// by pair over each packed row in both modes; everything else runs W pairs
// at a time.
void sweep_rows(const PairRows& rows, std::size_t row_begin, std::size_t row_end,
                PairSums& sums, simd::Mode mode);

}  // namespace tme
