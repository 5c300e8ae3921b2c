// Liquid-water structure and dynamics with the TME: equilibrates a TIP3P
// box, then samples the O-O radial distribution function and the oxygen
// mean-square displacement.  A physically meaningful end-to-end check: the
// first g_OO peak of TIP3P sits near 0.28 nm.
//
//   ./examples/water_structure [--molecules 216] [--equil-ps 1] [--sample-ps 2]
#include <cstdio>
#include <limits>

#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "md/observables.hpp"
#include "md/simulation.hpp"
#include "md/thermostat.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);

  WaterBoxSpec spec;
  spec.molecules = args.get_int("molecules", 216);
  spec.temperature = 300.0;
  const double equil_ps = args.get_double("equil-ps", 1.0);
  const double sample_ps = args.get_double("sample-ps", 2.0);

  WaterBox wb = build_water_box(spec);
  const Box box = wb.system.box;
  const std::size_t grid_n = 16;
  const double r_cut = 4.0 * box.lengths.x / static_cast<double>(grid_n);
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  sr.shift_lj = true;
  TmeParams tp;
  tp.alpha = alpha;
  tp.grid = {grid_n, grid_n, grid_n};
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  const ForceField ff(sr, make_tme_solver(box, tp));
  const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
  const std::size_t dof = wb.degrees_of_freedom();

  std::printf("TIP3P water: %zu molecules, box %.3f nm, r_c = %.3f nm\n",
              wb.molecules, box.lengths.x, r_cut);

  // Equilibrate with weak coupling.  The thermostat does not conserve
  // energy: only the guardrail's drift check is off.
  BerendsenParams thermostat;
  thermostat.dof = dof;
  thermostat.time_constant = 0.02;
  SimulationParams params;
  params.guardrail.energy_drift_tol = std::numeric_limits<double>::infinity();
  Simulation sim(wb.system, wb.topology, ff, integrator, params);
  Timer timer;
  const auto equil_steps = static_cast<std::uint64_t>(equil_ps * 1000.0);
  sim.run(equil_steps, [&](std::uint64_t, const StepReport&,
                           const ParticleSystem&) {
    apply_berendsen(wb.system, thermostat, 0.001);
  });
  std::printf("equilibrated %.1f ps at T = %.0f K (%.0f s)\n", equil_ps,
              wb.system.temperature(dof), timer.seconds());

  // Sample every 100 steps of the NVE continuation.
  std::vector<std::size_t> oxygens;
  for (std::size_t m = 0; m < wb.molecules; ++m) oxygens.push_back(3 * m);
  RdfAccumulator rdf(std::min(1.0, 0.45 * box.lengths.x), 60);
  MsdTracker msd(box, wb.system.positions, oxygens);
  const auto sample_steps = static_cast<std::uint64_t>(sample_ps * 1000.0);
  double final_msd = 0.0;
  const auto sample = [&](std::uint64_t step, const StepReport&,
                          const ParticleSystem& system) {
    if ((step - equil_steps) % 100 != 0) return;
    rdf.accumulate(box, system.positions, oxygens, oxygens);
    final_msd = msd.update(system.positions);
  };
  sim.run(equil_steps + sample_steps, sample);

  const RdfResult g = rdf.result();
  std::printf("\nO-O radial distribution function (%zu frames):\n", g.samples);
  std::printf("%8s %10s\n", "r (nm)", "g(r)");
  for (std::size_t b = 0; b < g.r.size(); b += 2) {
    std::printf("%8.3f %10.3f\n", g.r[b], g.g[b]);
  }
  std::size_t peak = 0;
  for (std::size_t b = 1; b < g.g.size(); ++b) {
    if (g.g[b] > g.g[peak]) peak = b;
  }
  std::printf("\nfirst g_OO peak at r = %.3f nm (TIP3P literature: ~0.28 nm)\n",
              g.r[peak]);
  std::printf("oxygen MSD after %.1f ps: %.4f nm^2 (D ~ %.2e cm^2/s)\n", sample_ps,
              final_msd, final_msd / (6.0 * sample_ps) * 1e-2);
  return 0;
}
