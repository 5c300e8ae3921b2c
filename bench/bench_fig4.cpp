// Reproduces paper Fig. 4: NVE total-energy traces of SETTLE-constrained
// TIP3P water with SPME vs TME (g_c = 8, M = 1, 2, 3) long-range solvers.
//
// Paper configuration: the Table 1 water system, 200 ps at 1 fs,
// ewald-rtol = 1e-4, p = 6, N = 32^3, r_c = 1.25 nm.  The default run uses
// a smaller box / shorter trajectory with all dimensionless parameters
// preserved; pass --molecules / --ps to scale up.
//
// Protocol: the freshly built box is equilibrated once (velocity rescaling
// to 300 K) with the SPME force field; every solver then runs NVE from that
// identical snapshot.  Signatures to reproduce: no systematic energy drift
// for any solver, and a total-energy offset of the TME relative to SPME
// that shrinks as M grows.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "md/simulation.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

#include "common.hpp"

namespace {

struct Trace {
  std::string label;
  std::vector<double> total_energy;  // sampled, kJ/mol
  double e_first = 0.0;
  double drift_per_ns = 0.0;  // linear-fit slope
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);

  WaterBoxSpec spec;
  spec.molecules = args.get_int("molecules", 500);
  spec.temperature = 300.0;
  spec.seed = args.get_int("seed", 7);
  const double sim_ps = args.get_double("ps", 2.0);
  const double equil_ps = args.get_double("equil-ps", 0.5);
  const int sample_every = args.get_int("sample", 50);

  const std::size_t grid_n = args.get_int("grid", 16);
  const int steps = static_cast<int>(sim_ps * 1000.0);
  const int equil_steps = static_cast<int>(equil_ps * 1000.0);

  // r_c / h = 4.011 (the paper's r_c = 1.25 nm row).
  WaterBox wb = build_water_box(spec);
  const Box box = wb.system.box;
  const double h = box.lengths.x / static_cast<double>(grid_n);
  const double r_cut = 4.0110 * h;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  sr.shift_lj = true;  // GROMACS-style potential shift at the cutoff

  std::printf("NVE: %zu molecules, box %.4f nm, grid %zu^3, r_c = %.4f nm, "
              "dt = 1 fs, %d + %d steps (equil + production)\n",
              spec.molecules, box.lengths.x, grid_n, r_cut, equil_steps, steps);

  // --- Equilibrate once with SPME; snapshot the state. ---------------------
  {
    SpmeParams sp;
    sp.alpha = alpha;
    sp.grid = {grid_n, grid_n, grid_n};
    const ForceField ff(sr, make_spme_solver(box, sp));
    const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
    const std::size_t dof = wb.degrees_of_freedom();
    // The rescale does not conserve energy: only the drift check is off.
    SimulationParams params;
    params.guardrail.energy_drift_tol = std::numeric_limits<double>::infinity();
    Simulation sim(wb.system, wb.topology, ff, integrator, params);
    Timer timer;
    sim.run(equil_steps, [&](std::uint64_t step, const StepReport&,
                             const ParticleSystem& system) {
      if (step % 50 != 0) return;
      // Crude velocity rescale to 300 K during equilibration only.
      const double scale =
          std::sqrt(300.0 / std::max(system.temperature(dof), 1.0));
      for (auto& v : wb.system.velocities) v *= scale;
    });
    std::printf("equilibrated %.1f ps (T = %.0f K) in %.1f s\n", equil_ps,
                wb.system.temperature(dof), timer.seconds());
  }
  const std::vector<Vec3> snapshot_x = wb.system.positions;
  const std::vector<Vec3> snapshot_v = wb.system.velocities;

  auto run = [&](const std::string& label,
                 std::unique_ptr<LongRangeSolver> solver) {
    wb.system.positions = snapshot_x;
    wb.system.velocities = snapshot_v;
    const ForceField ff(sr, std::move(solver));
    const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
    Simulation sim(wb.system, wb.topology, ff, integrator, SimulationParams{});

    Trace trace;
    trace.label = label;
    Timer timer;
    sim.run(steps, [&](std::uint64_t step, const StepReport& report,
                       const ParticleSystem&) {
      if ((step - 1) % sample_every == 0) {
        trace.total_energy.push_back(report.total());
      }
    });
    trace.e_first = trace.total_energy.front();
    // Least-squares drift in kJ/mol per ns.
    const std::size_t n = trace.total_energy.size();
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t_ns = static_cast<double>(i) * sample_every * 1e-6;
      sx += t_ns;
      sy += trace.total_energy[i];
      sxx += t_ns * t_ns;
      sxy += t_ns * trace.total_energy[i];
    }
    trace.drift_per_ns = (n * sxy - sx * sy) / (n * sxx - sx * sx + 1e-30);
    std::printf("  %-12s done in %.1f s\n", label.c_str(), timer.seconds());
    return trace;
  };

  bench::print_header("Fig 4: NVE total energy traces (identical start state)");
  std::vector<Trace> traces;
  {
    SpmeParams sp;
    sp.alpha = alpha;
    sp.grid = {grid_n, grid_n, grid_n};
    traces.push_back(run("SPME", make_spme_solver(box, sp)));
  }
  for (const std::size_t m : {1u, 2u, 3u}) {
    TmeParams tp;
    tp.alpha = alpha;
    tp.grid = {grid_n, grid_n, grid_n};
    tp.grid_cutoff = 8;
    tp.num_gaussians = m;
    traces.push_back(run("TME M=" + std::to_string(m), make_tme_solver(box, tp)));
  }

  std::printf("\n%10s", "t (ps)");
  for (const Trace& t : traces) std::printf(" %14s", t.label.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < traces[0].total_energy.size(); ++i) {
    std::printf("%10.3f", static_cast<double>(i) * sample_every * 1e-3);
    for (const Trace& t : traces) std::printf(" %14.3f", t.total_energy[i]);
    std::printf("\n");
  }

  bench::print_header("Fig 4 summary");
  std::printf("%-12s %16s %18s %20s\n", "solver", "E(0) kJ/mol",
              "drift kJ/mol/ns", "offset vs SPME");
  const double spme_e0 = traces[0].e_first;
  for (const Trace& t : traces) {
    std::printf("%-12s %16.3f %18.3f %20.3f\n", t.label.c_str(), t.e_first,
                t.drift_per_ns, t.e_first - spme_e0);
  }
  std::printf(
      "\nexpected shape (paper Fig 4): no systematic drift for any solver;\n"
      "TME M=1 shows the largest total-energy offset from SPME, shrinking\n"
      "for M=2 and M=3 (paper: ~80 kJ/mol for M=1 at 98,319 atoms).\n");
  return 0;
}
