#include "msm/msm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ewald/greens_function.hpp"
#include "ewald/splitting.hpp"
#include "fft/fft3d.hpp"
#include "grid/multilevel.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "obs/metrics.hpp"
#include "util/constants.hpp"

namespace tme {

std::vector<double> msm_level_kernel(const Box& box, GridDims level_dims,
                                     int order, double alpha, int level,
                                     int grid_cutoff) {
  if (grid_cutoff < 1) throw std::invalid_argument("msm_level_kernel: bad cutoff");
  const Vec3 h{box.lengths.x / static_cast<double>(level_dims.nx),
               box.lengths.y / static_cast<double>(level_dims.ny),
               box.lengths.z / static_cast<double>(level_dims.nz)};

  // Periodised samples of the shell on the level grid.  The shell decays on
  // the scale 2^l / alpha, so a few image layers converge to double
  // precision.
  Grid3d samples(level_dims);
  // Shell tail ~ exp(-(alpha r / 2^l)^2): radius 8 * 2^l / alpha reaches
  // exp(-64), far below double precision.
  const double reach = 8.0 * std::ldexp(1.0, level) / alpha;
  const int images_x = static_cast<int>(std::ceil(reach / box.lengths.x));
  const int images_y = static_cast<int>(std::ceil(reach / box.lengths.y));
  const int images_z = static_cast<int>(std::ceil(reach / box.lengths.z));
  for (std::size_t iz = 0; iz < level_dims.nz; ++iz) {
    for (std::size_t iy = 0; iy < level_dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < level_dims.nx; ++ix) {
        double sum = 0.0;
        for (int wx = -images_x; wx <= images_x; ++wx) {
          for (int wy = -images_y; wy <= images_y; ++wy) {
            for (int wz = -images_z; wz <= images_z; ++wz) {
              const double dx = (static_cast<double>(ix) +
                                 wx * static_cast<double>(level_dims.nx)) * h.x;
              const double dy = (static_cast<double>(iy) +
                                 wy * static_cast<double>(level_dims.ny)) * h.y;
              const double dz = (static_cast<double>(iz) +
                                 wz * static_cast<double>(level_dims.nz)) * h.z;
              const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
              sum += g_shell(r, alpha, level);
            }
          }
        }
        samples.at(ix, iy, iz) = sum;
      }
    }
  }

  // Sharpen with omega' per axis: divide the spectrum by bhat^2 per axis —
  // exactly the Eq. 8 construction in 3D.
  Fft3d fft(level_dims.nx, level_dims.ny, level_dims.nz);
  auto spectrum = fft.forward_real(samples.values());
  const std::vector<double> bx = euler_factors(order, level_dims.nx);
  const std::vector<double> by = euler_factors(order, level_dims.ny);
  const std::vector<double> bz = euler_factors(order, level_dims.nz);
  // euler_factors returns 1/|b|^2 inverted... it returns |b(n)|^2 as the
  // *reciprocal* of the denominator magnitude: spme uses it multiplicatively.
  // Here we need division by bhat^2 = multiplication by euler factor, per
  // axis, where bhat is the B-spline sample DFT; euler_factors is exactly
  // 1 / |sum_k M_p(k+1) e^{2 pi i n k / N}|^2 = 1 / bhat^2.
  for (std::size_t nz = 0; nz < level_dims.nz; ++nz) {
    for (std::size_t ny = 0; ny < level_dims.ny; ++ny) {
      for (std::size_t nx = 0; nx < level_dims.nx; ++nx) {
        spectrum[(nz * level_dims.ny + ny) * level_dims.nx + nx] *=
            bx[nx] * by[ny] * bz[nz];
      }
    }
  }
  Grid3d g(level_dims);
  g.values() = fft.inverse_to_real(std::move(spectrum));

  // Truncate to the dense cube with periodic-class deduplication (outward
  // from the centre, like the TME's 1D taps).
  const int c = grid_cutoff;
  const std::size_t w = static_cast<std::size_t>(2 * c + 1);
  std::vector<double> cube(w * w * w, 0.0);
  std::vector<bool> seen(level_dims.total(), false);
  // Visit offsets sorted by Chebyshev distance so the shortest image of
  // each periodic class is the one retained.
  for (int dist = 0; dist <= c; ++dist) {
    for (int mz = -c; mz <= c; ++mz) {
      for (int my = -c; my <= c; ++my) {
        for (int mx = -c; mx <= c; ++mx) {
          const int cheb = std::max({std::abs(mx), std::abs(my), std::abs(mz)});
          if (cheb != dist) continue;
          const std::size_t cls =
              (Grid3d::wrap(mz, level_dims.nz) * level_dims.ny +
               Grid3d::wrap(my, level_dims.ny)) *
                  level_dims.nx +
              Grid3d::wrap(mx, level_dims.nx);
          double tap = 0.0;
          if (!seen[cls]) {
            seen[cls] = true;
            tap = g[cls];
          }
          cube[(static_cast<std::size_t>(mz + c) * w +
                static_cast<std::size_t>(my + c)) *
                   w +
               static_cast<std::size_t>(mx + c)] = tap;
        }
      }
    }
  }
  return cube;
}

Msm::Msm(const Box& box, const MsmParams& params)
    : box_(box), params_(params), assigner_(box, params.grid, params.order) {
  if (params.order % 2 != 0 || params.order < 2) {
    throw std::invalid_argument("Msm: order must be even and >= 2");
  }
  if (params.levels < 1) throw std::invalid_argument("Msm: levels must be >= 1");
  const GridDims top = multilevel_dims(params.grid, params.levels + 1);
  if (top.nx < static_cast<std::size_t>(params.order) ||
      top.ny < static_cast<std::size_t>(params.order) ||
      top.nz < static_cast<std::size_t>(params.order)) {
    throw std::invalid_argument("Msm: top-level grid too coarse for spline order");
  }

  kernels_.reserve(static_cast<std::size_t>(params.levels));
  for (int l = 1; l <= params.levels; ++l) {
    kernels_.push_back(msm_level_kernel(box, multilevel_dims(params.grid, l),
                                        params.order, params.alpha, l,
                                        params.grid_cutoff));
  }

  SpmeParams top_params;
  top_params.order = params.order;
  top_params.grid = top;
  top_params.alpha = params.alpha / std::ldexp(1.0, params.levels);
  top_params.subtract_self = false;
  top_ = std::make_unique<Spme>(box, top_params);
}

const std::vector<double>& Msm::level_kernel(int level) const {
  if (level < 1 || level > params_.levels) {
    throw std::invalid_argument("Msm::level_kernel: level out of range");
  }
  return kernels_[static_cast<std::size_t>(level - 1)];
}

Grid3d Msm::solve_potential(const Grid3d& finest_charges) const {
  if (!(finest_charges.dims() == params_.grid)) {
    throw std::invalid_argument("Msm::solve_potential: grid mismatch");
  }
  const int p = params_.order;
  return solve_multilevel(
      finest_charges, params_.levels,
      [&](const Grid3d& fine, int) { return restrict_grid(fine, p); },
      [&](const Grid3d& top) { return top_->solve_potential(top); },
      [&](const Grid3d& coarse, int) { return prolong_grid(coarse, p); },
      [&](const Grid3d& q, int l, Grid3d& phi) {
        Grid3d conv(phi.dims());
        convolve_dense3d(q, level_kernel(l), params_.grid_cutoff, conv);
        conv *= constants::kCoulomb;  // shell samples carry the 1/2^{l-1} already
        phi += conv;
      });
}

CoulombResult Msm::compute(std::span<const Vec3> positions,
                           std::span<const double> charges) const {
  TME_PHASE("msm");
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});
  const Grid3d q_grid = assigner_.assign(positions, charges);
  const Grid3d potential = solve_potential(q_grid);
  const double q_phi =
      assigner_.back_interpolate(potential, positions, charges, &out.forces);
  out.energy_reciprocal = 0.5 * q_phi;
  finish_long_range_energy(out, charges, params_.alpha, top_->params().alpha,
                           box_.volume(), params_.subtract_self);
  return out;
}

}  // namespace tme
