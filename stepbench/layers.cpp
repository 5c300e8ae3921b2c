#include "layers.hpp"

#include <cmath>

#include "ewald/greens_function.hpp"
#include "ewald/splitting.hpp"
#include "grid/transfer.hpp"
#include "md/bonded.hpp"
#include "util/constants.hpp"
#include "util/parallel.hpp"

namespace stepbench {

using namespace tme;

double Spans::seconds(const std::string& name) const {
  const auto it = seconds_.find(name);
  return it == seconds_.end() ? 0.0 : it->second;
}

void Spans::close(const char* name, double t0_us) {
  obs::Tracer& tracer = obs::Tracer::global();
  const double dur_us = tracer.now_us() - t0_us;
  seconds_[name] += dur_us * 1e-6;
  if (obs::tracing_active()) tracer.complete(tracer.thread_track(), name, t0_us, dur_us);
}

TracedStepper::TracedStepper(Setup& setup) : setup_(&setup) {
  const WorkloadSpec& spec = setup.spec();
  if (spec.fleet) return;  // the solver call is the only long-range span
  const Box& box = setup.water().system.box;
  const TmeParams tp = tme_params_for(spec, setup.geometry());
  GridDims fft_dims = tp.grid;
  fft_alpha_ = tp.alpha;
  if (spec.backend == "tme") {
    tme_ = std::make_unique<Tme>(box, tp);
    fft_dims = tme_->level_dims(tp.levels + 1);
    fft_alpha_ = tme_->top_level().params().alpha;
  }
  assigner_ = std::make_unique<ChargeAssigner>(box, tp.grid, tp.order);
  fft_ = std::make_unique<Fft3d>(fft_dims.nx, fft_dims.ny, fft_dims.nz);
  influence_ = spme_influence(box, fft_dims, tp.order, fft_alpha_);
}

// Spme::solve_potential, call by call.
Grid3d TracedStepper::grid_solve(const Grid3d& charges, Spans& spans) const {
  return spans.time("ewald.grid_solve", [&] {
    std::vector<std::complex<double>> spectrum =
        spans.time("fft.transform", [&] { return fft_->forward_real(charges.values()); });
    parallel_for(0, spectrum.size(), [&](std::size_t i) { spectrum[i] *= influence_[i]; });
    Grid3d potential(charges.dims());
    potential.values() = spans.time(
        "fft.transform", [&] { return fft_->inverse_to_real(std::move(spectrum)); });
    return potential;
  });
}

CoulombResult TracedStepper::long_range(std::span<const Vec3> positions,
                                        std::span<const double> charges,
                                        Spans& spans) const {
  if (!assigner_) {
    return spans.time("par.compute", [&] {
      return setup_->forcefield().long_range().compute(positions, charges);
    });
  }
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});
  const Grid3d q_grid =
      spans.time("ewald.charge_assign", [&] { return assigner_->assign(positions, charges); });

  Grid3d potential;
  if (tme_) {
    // Tme::solve_potential: restrict^L -> top -> (prolong + convolve)^L.
    potential = spans.time("core.pipeline", [&] {
      const int levels = tme_->params().levels;
      const int order = tme_->params().order;
      std::vector<Grid3d> q(static_cast<std::size_t>(levels) + 1);
      q[0] = q_grid;
      for (int l = 1; l <= levels; ++l) {
        q[static_cast<std::size_t>(l)] = spans.time("grid.restrict", [&] {
          return restrict_grid(q[static_cast<std::size_t>(l - 1)], order);
        });
      }
      Grid3d phi = grid_solve(q[static_cast<std::size_t>(levels)], spans);
      for (int l = levels; l >= 1; --l) {
        Grid3d level_phi = spans.time("grid.prolong", [&] { return prolong_grid(phi, order); });
        const double scale = constants::kCoulomb / std::ldexp(1.0, l - 1);
        spans.time(l == 1 ? "grid.convolve_l1" : "grid.convolve_l2", [&] {
          convolve_tensor(q[static_cast<std::size_t>(l - 1)], tme_->level_kernels(l), scale,
                          level_phi);
        });
        phi = std::move(level_phi);
      }
      return phi;
    });
  } else {
    potential = grid_solve(q_grid, spans);
  }

  const double q_phi = spans.time("ewald.back_interp", [&] {
    return assigner_->back_interpolate(potential, positions, charges, &out.forces);
  });
  out.energy_reciprocal = 0.5 * q_phi;
  // Self and net-charge terms, as Tme::compute / Spme::compute add them.
  const double alpha = tme_ ? tme_->params().alpha : fft_alpha_;
  double q2 = 0.0;
  for (const double q : charges) q2 += q * q;
  out.energy_self = -constants::kCoulomb * alpha / std::sqrt(M_PI) * q2;
  double q_total = 0.0;
  for (const double q : charges) q_total += q;
  out.energy_background = net_charge_background_energy(
      q_total, fft_alpha_, setup_->water().system.box.volume());
  out.energy = out.energy_reciprocal + out.energy_self + out.energy_background;
  return out;
}

// ForceField::evaluate, call by call.
EnergyReport TracedStepper::evaluate(Spans& spans, ShortRangeResult* sr_out) const {
  ParticleSystem& system = setup_->water().system;
  const Topology& topology = setup_->water().topology;
  const ForceField& ff = setup_->forcefield();
  EnergyReport report;
  system.forces.assign(system.size(), Vec3{});

  const ShortRangeResult sr = spans.time(
      "md.short_range", [&] { return ff.short_range_engine().compute(system, topology); });
  report.coulomb_short = sr.energy_coulomb;
  report.lj = sr.energy_lj;
  if (sr_out != nullptr) *sr_out = sr;

  const BondedResult bonded =
      spans.time("md.bonded", [&] { return compute_bonded(system, topology); });
  report.bonds = bonded.energy_bonds;
  report.angles = bonded.energy_angles;
  report.dihedrals = bonded.energy_dihedrals;

  const CoulombResult lr = spans.time(
      "ewald.long_range", [&] { return long_range(system.positions, system.charges, spans); });
  report.coulomb_long = lr.energy;
  for (std::size_t i = 0; i < system.size(); ++i) system.forces[i] += lr.forces[i];

  report.coulomb_exclusion = spans.time("md.exclusion", [&] {
    return apply_exclusion_corrections(system, topology, ff.short_range_params().alpha);
  });
  return report;
}

// VelocityVerlet::step, call by call.
StepReport TracedStepper::step(Spans& spans, ShortRangeResult* sr) const {
  ParticleSystem& system = setup_->water().system;
  const VelocityVerlet& vv = setup_->integrator();
  const double dt = vv.params().dt;
  const std::size_t n = system.size();
  return spans.time("md.step", [&] {
    std::vector<Vec3> previous;
    spans.time("md.integrate", [&] {
      previous = system.positions;
      for (std::size_t i = 0; i < n; ++i) {
        system.velocities[i] += (0.5 * dt / system.masses[i]) * system.forces[i];
        system.positions[i] += dt * system.velocities[i];
      }
    });
    spans.time("md.settle", [&] {
      vv.constraints().apply_positions(system.box, previous, system.positions,
                                       &system.velocities, dt,
                                       vv.params().constraint_method);
    });

    StepReport report;
    report.energies = spans.time("md.force_eval", [&] { return evaluate(spans, sr); });

    spans.time("md.integrate", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        system.velocities[i] += (0.5 * dt / system.masses[i]) * system.forces[i];
      }
    });
    spans.time("md.settle", [&] {
      vv.constraints().project_velocities(system.box, system.positions, system.velocities);
    });
    report.kinetic = spans.time("md.integrate", [&] { return system.kinetic_energy(); });
    return report;
  });
}

namespace {

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].x == b[i].x && a[i].y == b[i].y && a[i].z == b[i].z)) return false;
  }
  return true;
}

bool same_bits(const StepReport& a, const StepReport& b) {
  const EnergyReport& x = a.energies;
  const EnergyReport& y = b.energies;
  return a.kinetic == b.kinetic && x.coulomb_short == y.coulomb_short &&
         x.coulomb_long == y.coulomb_long && x.coulomb_exclusion == y.coulomb_exclusion &&
         x.lj == y.lj && x.bonds == y.bonds && x.angles == y.angles &&
         x.dihedrals == y.dihedrals;
}

}  // namespace

Fidelity check_fidelity(Setup& setup, const TracedStepper& traced) {
  Fidelity f;
  ParticleSystem& system = setup.water().system;
  Spans spans;
  f.chain_bitwise = bitwise_equal(
      setup.forcefield().long_range().compute(system.positions, system.charges),
      traced.long_range(system.positions, system.charges, spans));

  const ParticleSystem start = system;
  const StepReport want = setup.step();
  const ParticleSystem stepped = system;
  system = start;
  const StepReport got = traced.step(spans);
  f.step_bitwise = same_bits(want, got) && same_bits(stepped.positions, system.positions) &&
                   same_bits(stepped.velocities, system.velocities) &&
                   same_bits(stepped.forces, system.forces);
  return f;
}

bool fleet_matches_inline(Setup& setup) {
  const ParticleSystem& system = setup.water().system;
  const ParallelTmeSolver inline_solver(system.box,
                                        tme_params_for(setup.spec(), setup.geometry()),
                                        setup.parallel_solver()->parallel().topology(), 0);
  return bitwise_equal(
      setup.forcefield().long_range().compute(system.positions, system.charges),
      inline_solver.compute(system.positions, system.charges));
}

}  // namespace stepbench
