#include "ewald/spme.hpp"

#include <stdexcept>

#include "ewald/greens_function.hpp"
#include "ewald/splitting.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace tme {

Spme::Spme(const Box& box, const SpmeParams& params)
    : box_(box),
      params_(params),
      assigner_(box, params.grid, params.order),
      fft_(params.grid.nx, params.grid.ny, params.grid.nz),
      influence_(spme_influence(box, params.grid, params.order, params.alpha)) {
  if (params.order % 2 != 0) {
    throw std::invalid_argument("Spme: B-spline order must be even");
  }
  if (params.compute_virial) {
    virial_influence_ =
        spme_virial_influence(box, params.grid, params.order, params.alpha);
  }
}

Grid3d Spme::solve_potential(const Grid3d& charge_grid) const {
  if (!(charge_grid.dims() == params_.grid)) {
    throw std::invalid_argument("Spme::solve_potential: grid mismatch");
  }
  TME_PHASE("spme_solve");
  TME_GAUGE_SET("spme/grid_points", params_.grid.total());
  std::vector<std::complex<double>> spectrum;
  {
    TME_PHASE("fft_forward");
    spectrum = fft_.forward_real(charge_grid.values());
  }
  {
    TME_PHASE("influence_apply");
    // Element-wise, so threading cannot change the result bits.
    parallel_for(0, spectrum.size(),
                 [&](std::size_t i) { spectrum[i] *= influence_[i]; });
  }
  Grid3d potential(params_.grid);
  {
    TME_PHASE("fft_inverse");
    potential.values() = fft_.inverse_to_real(std::move(spectrum));
  }
  return potential;
}

CoulombResult Spme::compute(std::span<const Vec3> positions,
                            std::span<const double> charges) const {
  TME_PHASE("spme");
  TME_COUNTER_ADD("spme/compute_calls", 1);
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});

  Grid3d q_grid;
  {
    TME_PHASE("charge_assignment");
    q_grid = assigner_.assign(positions, charges);
  }
  const Grid3d potential = solve_potential(q_grid);
  double q_phi = 0.0;
  {
    TME_PHASE("back_interpolation");
    q_phi =
        assigner_.back_interpolate(potential, positions, charges, &out.forces);
  }
  out.energy_reciprocal = 0.5 * q_phi;

  if (params_.compute_virial) {
    TME_PHASE("virial_solve");
    // Reciprocal virial via Parseval: 0.5 sum(Q (.) IFFT[G_vir FFT(Q)]).
    std::vector<std::complex<double>> spectrum =
        fft_.forward_real(q_grid.values());
    parallel_for(0, spectrum.size(),
                 [&](std::size_t i) { spectrum[i] *= virial_influence_[i]; });
    const std::vector<double> phi_vir = fft_.inverse_to_real(std::move(spectrum));
    double w = 0.0;
    const std::vector<double>& q_values = q_grid.values();
    for (std::size_t i = 0; i < phi_vir.size(); ++i) w += q_values[i] * phi_vir[i];
    out.virial = 0.5 * w;
  }

  finish_long_range_energy(out, charges, params_.alpha, params_.alpha,
                           box_.volume(), params_.subtract_self);
  if (params_.compute_virial) out.virial += 3.0 * out.energy_background;
  return out;
}

}  // namespace tme
