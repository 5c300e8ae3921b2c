// A charged bead-spring polymer solvated in TIP3P water — a small analogue
// of the paper's Fig. 9 production system (a 480-residue protein, ions and
// water).  Exercises the full force-field stack: bonds, angles, 1-2/1-3
// exclusions, mixed LJ sites, rigid water, and the TME long-range solver.
//
//   ./examples/solvated_polymer [--beads 6] [--molecules 500] [--ps 1]
//                               [--traj polymer.xyz]
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "md/simulation.hpp"
#include "md/thermostat.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

namespace {

using namespace tme;

// Inserts a linear chain of `beads` along the box diagonal region,
// deleting any water molecule that overlaps it.
struct SolvatedSystem {
  ParticleSystem system;
  Topology topology;
  std::size_t beads = 0;
  std::size_t waters = 0;
};

SolvatedSystem build(std::size_t beads, std::size_t molecules, double temperature) {
  WaterBoxSpec spec;
  spec.molecules = molecules;
  spec.temperature = temperature;
  WaterBox wb = build_water_box(spec);
  const Box box = wb.system.box;
  // The chain must fit comfortably inside the periodic box, or beads clash
  // with their own images.
  if (0.25 * std::sin(M_PI / 3.0) * static_cast<double>(beads - 1) >
      0.6 * box.lengths.x) {
    throw std::invalid_argument(
        "solvated_polymer: chain too long for the box; raise --molecules");
  }

  // Chain geometry: a 120-degree zigzag in the xz plane through the box
  // centre (a collinear chain would sit on the torsion singularity).
  const double bond_length = 0.25;
  const double step_x = bond_length * std::sin(M_PI / 3.0);
  const double step_z = bond_length * std::cos(M_PI / 3.0);
  const double start_x =
      0.5 * box.lengths.x - 0.5 * step_x * static_cast<double>(beads - 1);
  std::vector<Vec3> bead_pos(beads);
  for (std::size_t b = 0; b < beads; ++b) {
    bead_pos[b] = {start_x + step_x * static_cast<double>(b),
                   0.5 * box.lengths.y,
                   0.5 * box.lengths.z + (b % 2 == 0 ? 0.0 : step_z)};
  }

  // Keep only waters that clear the chain by 0.30 nm.
  std::vector<bool> keep(molecules, true);
  for (std::size_t m = 0; m < molecules; ++m) {
    for (std::size_t a = 3 * m; a < 3 * m + 3; ++a) {
      for (const Vec3& bp : bead_pos) {
        if (norm(box.min_image_disp(wb.system.positions[a], bp)) < 0.34) {
          keep[m] = false;
        }
      }
    }
  }

  SolvatedSystem out;
  out.beads = beads;
  out.system.box = box;
  // Chain first: alternating +/- 0.5 e beads, carbon-ish LJ and mass.
  for (std::size_t b = 0; b < beads; ++b) {
    out.system.positions.push_back(bead_pos[b]);
    out.system.velocities.push_back({});
    out.system.forces.push_back({});
    out.system.masses.push_back(12.011);
    out.system.charges.push_back(b % 2 == 0 ? 0.5 : -0.5);
    out.topology.lj().push_back({0.35, 0.40});
  }
  for (std::size_t b = 0; b + 1 < beads; ++b) {
    out.topology.add_bond({b, b + 1, bond_length, 20000.0});
  }
  for (std::size_t b = 0; b + 2 < beads; ++b) {
    out.topology.add_angle({b, b + 1, b + 2, 2.0 * M_PI / 3.0, 200.0});
  }
  for (std::size_t b = 0; b + 3 < beads; ++b) {
    // A soft threefold torsion along the backbone.
    out.topology.add_dihedral({b, b + 1, b + 2, b + 3, 3, 0.0, 2.0});
  }
  out.topology.build_exclusions_from_bonded();

  // Then the surviving waters.
  for (std::size_t m = 0; m < molecules; ++m) {
    if (!keep[m]) continue;
    const std::size_t base = out.system.positions.size();
    for (std::size_t a = 3 * m; a < 3 * m + 3; ++a) {
      out.system.positions.push_back(wb.system.positions[a]);
      out.system.velocities.push_back(wb.system.velocities[a]);
      out.system.forces.push_back({});
      out.system.masses.push_back(wb.system.masses[a]);
      out.system.charges.push_back(wb.system.charges[a]);
      out.topology.lj().push_back(wb.topology.lj()[a]);
    }
    out.topology.add_rigid_water({base, base + 1, base + 2});
    ++out.waters;
  }
  // Neutralise the residual chain charge (odd bead counts) over the waters.
  double total = 0.0;
  for (const double q : out.system.charges) total += q;
  for (auto& q : out.system.charges) {
    q -= total / static_cast<double>(out.system.charges.size());
  }
  out.topology.finalize(out.system.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::size_t beads = static_cast<std::size_t>(args.get_int("beads", 6));
  const std::size_t molecules =
      static_cast<std::size_t>(args.get_int("molecules", 500));
  const double sim_ps = args.get_double("ps", 1.0);
  const std::string traj_path = args.get("traj", "");

  SolvatedSystem sys = build(beads, molecules, 300.0);
  const Box box = sys.system.box;
  std::printf("solvated polymer: %zu beads + %zu waters (%zu atoms), box %.3f nm\n",
              sys.beads, sys.waters, sys.system.size(), box.lengths.x);

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

  const VelocityVerlet integrator(sys.topology, sys.system, IntegratorParams{});
  const std::size_t dof = sys.topology.degrees_of_freedom(sys.system.size());

  std::unique_ptr<XyzWriter> traj;
  std::vector<std::string> elements;
  if (!traj_path.empty()) {
    traj = std::make_unique<XyzWriter>(traj_path);
    for (std::size_t b = 0; b < sys.beads; ++b) elements.push_back("C");
    for (std::size_t w = 0; w < sys.waters; ++w) {
      elements.push_back("O");
      elements.push_back("H");
      elements.push_back("H");
    }
  }

  const auto steps = static_cast<std::uint64_t>(sim_ps * 1000.0);
  std::printf("%10s %10s %10s %10s %12s %12s %8s\n", "t (ps)", "bonds",
              "angles", "torsions", "potential", "total", "T (K)");
  BerendsenParams thermostat;
  thermostat.dof = dof;
  thermostat.time_constant = 0.02;  // strong coupling while equilibrating
  const std::uint64_t every = std::max<std::uint64_t>(steps / 8, 1);
  const auto observe = [&](std::uint64_t s, const StepReport& report,
                           const ParticleSystem& system) {
    if (s < steps / 2) apply_berendsen(sys.system, thermostat, 0.001);
    if (s % every != 0) return;
    std::printf("%10.3f %10.3f %10.3f %10.3f %12.2f %12.2f %8.1f\n", s * 0.001,
                report.energies.bonds, report.energies.angles,
                report.energies.dihedrals, report.energies.potential(),
                report.total(), system.temperature(dof));
    if (traj) traj->write_frame(elements, system.positions, box);
  };
  // The thermostat does not conserve energy: only the drift check is off.
  SimulationParams params;
  params.guardrail.energy_drift_tol = std::numeric_limits<double>::infinity();
  Timer timer;
  Simulation sim(sys.system, sys.topology, ff, integrator, params);
  observe(0, sim.result().last_report, sys.system);
  sim.run(steps, observe);
  std::printf("\n%.1f s wall clock; constraints violated by %.2e nm\n",
              timer.seconds(),
              integrator.constraints().max_violation(box, sys.system.positions));
  if (traj) std::printf("trajectory: %zu frames\n", traj->frames_written());
  return 0;
}
