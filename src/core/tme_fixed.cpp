#include "core/tme_fixed.hpp"

#include <stdexcept>

#include "grid/multilevel.hpp"
#include "grid/transfer.hpp"
#include "obs/metrics.hpp"

namespace tme {

Grid3d tme_solve_potential_fixed(const Tme& tme, const Grid3d& finest_charges,
                                 const TmeFixedConfig& config) {
  if (!(finest_charges.dims() == tme.params().grid)) {
    throw std::invalid_argument("tme_solve_potential_fixed: grid mismatch");
  }
  const int p = tme.params().order;
  const FixedFormat& grid_fmt = config.grid_format;
  // Level charges are quantised to grid memory words; the top level runs in
  // floating point (FPGA).
  Grid3d q0 = finest_charges;
  quantize_grid(q0, grid_fmt);
  return solve_multilevel(
      std::move(q0), tme.params().levels,
      [&](const Grid3d& fine, int) {
        Grid3d coarse = restrict_grid(fine, p);
        quantize_grid(coarse, grid_fmt);
        return coarse;
      },
      [&](const Grid3d& top) { return tme.solve_top(top); },
      [&](const Grid3d& coarse, int) { return prolong_grid(coarse, p); },
      [&](const Grid3d& q, int l, Grid3d& phi) {
        convolve_tensor_fixed(q, tme.level_kernels(l), tme_level_scale(l),
                              grid_fmt, config.coeff_format, phi);
      });
}

void round_grid_to_float(Grid3d& grid) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = static_cast<double>(static_cast<float>(grid[i]));
  }
}

namespace {

Grid3d solve_potential_single(const Tme& tme, const Grid3d& finest_charges) {
  const int p = tme.params().order;
  Grid3d q0 = finest_charges;
  round_grid_to_float(q0);
  return solve_multilevel(
      std::move(q0), tme.params().levels,
      [&](const Grid3d& fine, int) {
        Grid3d coarse = restrict_grid(fine, p);
        round_grid_to_float(coarse);
        return coarse;
      },
      [&](const Grid3d& top) {
        Grid3d phi = tme.solve_top(top);
        round_grid_to_float(phi);
        return phi;
      },
      [&](const Grid3d& coarse, int) { return prolong_grid(coarse, p); },
      [&](const Grid3d& q, int l, Grid3d& phi) {
        convolve_tensor(q, tme.level_kernels(l), tme_level_scale(l), phi);
        round_grid_to_float(phi);
      });
}

}  // namespace

CoulombResult tme_compute_single(const Tme& tme, std::span<const Vec3> positions,
                                 std::span<const double> charges) {
  TME_PHASE("tme_single");
  return tme.compute_with(positions, charges, [&](const Grid3d& q_grid) {
    return solve_potential_single(tme, q_grid);
  });
}

CoulombResult tme_compute_fixed(const Tme& tme, std::span<const Vec3> positions,
                                std::span<const double> charges,
                                const TmeFixedConfig& config) {
  TME_PHASE("tme_fixed");
  TME_COUNTER_ADD("tme_fixed/compute_calls", 1);
  return tme.compute_with(positions, charges, [&](const Grid3d& q_grid) {
    return tme_solve_potential_fixed(tme, q_grid, config);
  });
}

}  // namespace tme
