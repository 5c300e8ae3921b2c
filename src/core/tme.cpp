#include "core/tme.hpp"

#include <cmath>
#include <stdexcept>

#include "core/grid_kernel.hpp"
#include "ewald/greens_function.hpp"
#include "ewald/splitting.hpp"
#include "fft/fft3d.hpp"
#include "grid/transfer.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace tme {

Tme::Tme(const Box& box, const TmeParams& params)
    : box_(box),
      params_(params),
      assigner_(box, params.grid, params.order) {
  if (params.order % 2 != 0 || params.order < 2) {
    throw std::invalid_argument("Tme: order must be even and >= 2");
  }
  if (params.levels < 1) throw std::invalid_argument("Tme: levels must be >= 1");
  if (params.num_gaussians < 1) {
    throw std::invalid_argument("Tme: num_gaussians must be >= 1");
  }
  // Validate the hierarchy (throws if any level has odd extents) and make
  // sure the top grid still supports the spline order.
  const GridDims top = multilevel_dims(params.grid, params.levels + 1);
  if (top.nx < static_cast<std::size_t>(params.order) ||
      top.ny < static_cast<std::size_t>(params.order) ||
      top.nz < static_cast<std::size_t>(params.order)) {
    throw std::invalid_argument("Tme: top-level grid too coarse for spline order");
  }

  gaussians_ = fit_shell_gaussians(params.alpha, params.num_gaussians);
  const Vec3 h = assigner_.spacing();
  kernels_.reserve(static_cast<std::size_t>(params.levels));
  for (int l = 1; l <= params.levels; ++l) {
    kernels_.push_back(build_level_kernels(gaussians_, params.order,
                                           multilevel_dims(params.grid, l), h,
                                           params.grid_cutoff));
  }

  SpmeParams top_params;
  top_params.order = params.order;
  top_params.grid = top;
  top_params.alpha = params.alpha / std::ldexp(1.0, params.levels);
  top_params.subtract_self = false;  // handled once, in compute_with
  top_ = std::make_unique<Spme>(box, top_params);

  if (params.top_level_mode == TopLevelMode::kDense) {
    // The exact periodic real-space kernel: inverse transform of the
    // influence function (construction may use an FFT; runtime must not).
    const std::vector<double> influence =
        spme_influence(box, top, params.order, top_params.alpha);
    Fft3d fft(top.nx, top.ny, top.nz);
    std::vector<std::complex<double>> spectrum(influence.begin(), influence.end());
    top_dense_kernel_ = Grid3d(top);
    top_dense_kernel_.values() = fft.inverse_to_real(std::move(spectrum));
  }
}

Grid3d Tme::solve_top(const Grid3d& charges) const {
  if (params_.top_level_mode == TopLevelMode::kSpme) {
    return top_->solve_potential(charges);
  }
  const GridDims& d = top_dense_kernel_.dims();
  Grid3d phi(d);
  // Direct periodic convolution: Phi_n = sum_m K_{n-m} Q_m.
  parallel_for(0, d.nz, [&](std::size_t nz) {
    for (std::size_t ny = 0; ny < d.ny; ++ny) {
      for (std::size_t nx = 0; nx < d.nx; ++nx) {
        double acc = 0.0;
        for (std::size_t mz = 0; mz < d.nz; ++mz) {
          const std::size_t kz = (nz + d.nz - mz) % d.nz;
          for (std::size_t my = 0; my < d.ny; ++my) {
            const std::size_t ky = (ny + d.ny - my) % d.ny;
            const std::size_t row_k = (kz * d.ny + ky) * d.nx;
            const std::size_t row_q = (mz * d.ny + my) * d.nx;
            for (std::size_t mx = 0; mx < d.nx; ++mx) {
              const std::size_t kx = (nx + d.nx - mx) % d.nx;
              acc += top_dense_kernel_[row_k + kx] * charges[row_q + mx];
            }
          }
        }
        phi.at(nx, ny, nz) = acc;
      }
    }
  });
  return phi;
}

GridDims Tme::level_dims(int level) const {
  if (level < 1 || level > params_.levels + 1) {
    throw std::invalid_argument("Tme::level_dims: level out of range");
  }
  return multilevel_dims(params_.grid, level);
}

const std::vector<SeparableTerm>& Tme::level_kernels(int level) const {
  if (level < 1 || level > params_.levels) {
    throw std::invalid_argument("Tme::level_kernels: level out of range");
  }
  return kernels_[static_cast<std::size_t>(level - 1)];
}

Grid3d Tme::solve_potential(const Grid3d& finest_charges, TmeTrace* trace) const {
  if (!(finest_charges.dims() == params_.grid)) {
    throw std::invalid_argument("Tme::solve_potential: grid mismatch");
  }
  const int p = params_.order;
  return solve_multilevel(
      finest_charges, params_.levels,
      [&](const Grid3d& fine, int) { return restrict_grid(fine, p); },
      [&](const Grid3d& top) { return solve_top(top); },
      [&](const Grid3d& coarse, int) { return prolong_grid(coarse, p); },
      [&](const Grid3d& q, int l, Grid3d& phi) {
        convolve_tensor(q, level_kernels(l), tme_level_scale(l), phi);
      },
      trace);
}

CoulombResult Tme::compute(std::span<const Vec3> positions,
                           std::span<const double> charges,
                           TmeTrace* trace) const {
  TME_PHASE("tme");
  TME_COUNTER_ADD("tme/compute_calls", 1);
  TME_GAUGE_SET("tme/atoms", positions.size());
  TME_GAUGE_SET("tme/grid_points", params_.grid.total());
  TME_GAUGE_SET("tme/levels", params_.levels);
  return compute_with(positions, charges, [&](const Grid3d& q_grid) {
    return solve_potential(q_grid, trace);
  });
}

CoulombResult Tme::compute_with(
    std::span<const Vec3> positions, std::span<const double> charges,
    const std::function<Grid3d(const Grid3d&)>& solve) const {
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});
  Grid3d q_grid;
  {
    TME_PHASE("charge_assignment");
    q_grid = assigner_.assign(positions, charges);
  }
  const Grid3d potential = solve(q_grid);
  double q_phi = 0.0;
  {
    TME_PHASE("back_interpolation");
    q_phi =
        assigner_.back_interpolate(potential, positions, charges, &out.forces);
  }
  out.energy_reciprocal = 0.5 * q_phi;
  finish_long_range_energy(out, charges, params_.alpha, top_->params().alpha,
                           box_.volume(), params_.subtract_self);
  return out;
}

}  // namespace tme
