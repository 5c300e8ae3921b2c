// TIP3P water box construction — the workload of the paper's accuracy
// evaluation (Table 1: 32,773 molecules in a 9.9727 nm box) and NVE runs
// (Fig. 4).  Molecules are placed on a simple cubic lattice with random
// orientations and Maxwell–Boltzmann velocities; a short steepest-descent
// relaxation is available to remove the worst contacts before dynamics.
#pragma once

#include <cstddef>

#include "md/system.hpp"
#include "md/topology.hpp"

namespace tme {

struct WaterBoxSpec {
  std::size_t molecules = 768;
  double box_length = 0.0;      // nm; 0 derives from TIP3P liquid density
  double temperature = 300.0;   // K, for initial velocities
  std::uint64_t seed = 2021;
};

struct WaterBox {
  ParticleSystem system;
  Topology topology;
  std::size_t molecules = 0;

  // Unconstrained degrees of freedom: 3N - 3*molecules (SETTLE) - 3 (COM).
  std::size_t degrees_of_freedom() const {
    return topology.degrees_of_freedom(system.size());
  }
};

WaterBox build_water_box(const WaterBoxSpec& spec);

// Replaces `pairs` water molecules with Na+ / Cl- ion pairs (charges +-1 e,
// Joung–Cheatham-style LJ), keeping the system neutral — the "ions and
// solvent water" composition of the paper's Fig. 9 production system.
void add_ion_pairs(WaterBox& box, std::size_t pairs, std::uint64_t seed = 17);

// The exact configuration of the paper's Table 1 experiment: 32,773 TIP3P
// molecules (N = 98,319) in a 9.97270 nm cube.
WaterBoxSpec paper_table1_spec();

}  // namespace tme
