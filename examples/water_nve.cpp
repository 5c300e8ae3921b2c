// NVE molecular dynamics of TIP3P water with the TME long-range solver —
// the paper's Fig. 4 workload as a runnable application.
//
//   ./examples/water_nve [--molecules 216] [--ps 2]
//                        [--solver tme|spme|tme_fixed|ewald]
//                        [--ion-pairs 0] [--traj out.xyz]
//
// The lattice start heats by several hundred kelvin in its first 0.2 ps,
// so a fixed 0.5 ps of velocity rescaling to --temperature runs first.  Then
// it prints a short NVE trajectory log (time, kinetic/potential/total
// energy, temperature) and verifies constraint satisfaction at the end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/solvers.hpp"
#include "ewald/splitting.hpp"
#include "md/simulation.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);

  WaterBoxSpec spec;
  spec.molecules = args.get_int("molecules", 216);
  spec.temperature = args.get_double("temperature", 300.0);
  const double sim_ps = args.get_double("ps", 2.0);
  const std::string solver_name = args.get("solver", "tme");

  WaterBox wb = build_water_box(spec);
  const std::size_t ion_pairs =
      static_cast<std::size_t>(args.get_int("ion-pairs", 0));
  if (ion_pairs > 0) add_ion_pairs(wb, ion_pairs);
  const std::string traj_path = args.get("traj", "");
  const Box& box = wb.system.box;
  const std::size_t grid_n = 16;
  const double r_cut = 4.0 * box.lengths.x / static_cast<double>(grid_n);
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);

  SolverTuning tuning;
  tuning.alpha = alpha;
  tuning.grid = {grid_n, grid_n, grid_n};
  std::unique_ptr<LongRangeSolver> solver;
  try {
    solver = make_long_range_solver(solver_name, box, tuning);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  const ForceField ff(sr, std::move(solver));
  const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});

  const int steps = static_cast<int>(sim_ps * 1000.0);
  const std::size_t dof = wb.degrees_of_freedom();
  std::unique_ptr<XyzWriter> traj;
  std::vector<std::string> elements;
  if (!traj_path.empty()) {
    traj = std::make_unique<XyzWriter>(traj_path);
    for (std::size_t w = 0; w < wb.molecules; ++w) {
      elements.push_back("O");
      elements.push_back("H");
      elements.push_back("H");
    }
    for (std::size_t i = elements.size(); i < wb.system.size(); ++i) {
      elements.push_back(wb.system.charges[i] > 0 ? "Na" : "Cl");
    }
  }
  std::printf("NVE %s: %zu molecules, box %.3f nm, r_c = %.3f nm, %d steps\n",
              solver_name.c_str(), wb.molecules, box.lengths.x, r_cut, steps);
  {
    // The rescale does not conserve energy: only the drift check is off.
    constexpr std::uint64_t kEquilSteps = 500;
    constexpr std::uint64_t kRescaleEvery = 20;
    SimulationParams params;
    params.guardrail.energy_drift_tol = std::numeric_limits<double>::infinity();
    Simulation equil(wb.system, wb.topology, ff, integrator, params);
    equil.run(kEquilSteps, [&](std::uint64_t step, const StepReport&,
                               const ParticleSystem& system) {
      if (step % kRescaleEvery != 0) return;
      const double scale =
          std::sqrt(spec.temperature / std::max(system.temperature(dof), 1.0));
      for (auto& v : wb.system.velocities) v *= scale;
    });
    std::printf("equilibrated %.1f ps (T = %.0f K)\n", kEquilSteps * 0.001,
                wb.system.temperature(dof));
  }
  std::printf("%10s %14s %14s %14s %10s\n", "t (ps)", "kinetic", "potential",
              "total", "T (K)");

  const std::uint64_t every = std::max(steps / 10, 1);
  const auto log_row = [&](std::uint64_t s, const StepReport& report,
                           const ParticleSystem& system) {
    if (s % every != 0) return;
    std::printf("%10.3f %14.3f %14.3f %14.3f %10.1f\n", s * 0.001,
                report.kinetic, report.energies.potential(), report.total(),
                system.temperature(dof));
    if (traj) traj->write_frame(elements, system.positions, box);
  };
  // NVE: the guardrail keeps every check on, energy drift included.
  Timer timer;
  Simulation sim(wb.system, wb.topology, ff, integrator, SimulationParams{});
  log_row(0, sim.result().last_report, wb.system);
  sim.run(steps, log_row);
  std::printf("\n%.1f s wall clock, %.2f ms/step\n", timer.seconds(),
              timer.milliseconds() / steps);
  std::printf("max constraint violation: %.2e nm\n",
              integrator.constraints().max_violation(box, wb.system.positions));
  return 0;
}
