// Hardware-faithful and single-precision TME variants.  Both run the one
// multilevel driver (grid/multilevel.hpp) inside Tme::compute_with and
// supply only its stage bodies:
//   fixed   quantize_grid on the finest and every restricted grid, and
//           convolve_tensor_fixed for the level convolutions (32-bit grid
//           words, 24-bit coefficients, exact 64-bit accumulation — paper
//           Sec. IV.B);
//   single  round_grid_to_float after every stage.
// The top level is Tme::solve_top in floating point, as on the root FPGA
// ("in the calculation, we used the single-precision floating-point
// format", Sec. IV.C).
#pragma once

#include "core/tme.hpp"
#include "fixed/fixed_point.hpp"

namespace tme {

struct TmeFixedConfig {
  FixedFormat grid_format = mdgrape_grid_format(20);
  FixedFormat coeff_format = mdgrape_coeff_format(18);
};

// Drop-in fixed-point variant of tme.solve_potential(charges).
Grid3d tme_solve_potential_fixed(const Tme& tme, const Grid3d& finest_charges,
                                 const TmeFixedConfig& config = {});

// Full fixed-point long-range evaluation: CA (double, like the LRU's
// dedicated 24-bit-fraction pipeline which is effectively exact at this
// scale) -> fixed-point grid pipeline -> BI.
CoulombResult tme_compute_fixed(const Tme& tme, std::span<const Vec3> positions,
                                std::span<const double> charges,
                                const TmeFixedConfig& config = {});

// Single-precision variant: the paper's software implementation measures
// "the error of the single-precision Coulomb forces ... of SPME or TME".
// Grid data is rounded to IEEE float at every pipeline stage boundary,
// which captures the dominant fp32 effect (the arithmetic inside a stage
// contributes at the same epsilon level).
void round_grid_to_float(Grid3d& grid);
CoulombResult tme_compute_single(const Tme& tme, std::span<const Vec3> positions,
                                 std::span<const double> charges);

}  // namespace tme
