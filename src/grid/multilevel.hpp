// The one multilevel grid solve of the TME family (paper Sec. III, Fig. 2):
//
//   Q^1 -> restriction^L -> top-level solve -> (prolongation + level
//   convolution)^L -> Phi^1
//
// Tme, the fixed-point and single-precision TME (core/tme_fixed), Msm,
// par::ParallelTme and hw::GuardedTmePipeline all run their grid pipeline
// through solve_multilevel and supply only the stage bodies, with their
// number format, datapath model or per-node distribution folded into those
// bodies.  The stage order, the phase timers ("restriction", "top_fft",
// "prolongation", "convolution") and the optional per-level trace live here
// alone.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "grid/grid3d.hpp"
#include "obs/metrics.hpp"

namespace tme {

// Extents of grid level `level` (1 = finest; each level halves them).
inline GridDims multilevel_dims(GridDims finest, int level) {
  for (int l = 1; l < level; ++l) finest = finest.halved();
  return finest;
}

// Intermediate grids of one solve, exposed so tests and the hardware model
// can inspect each pipeline stage.
template <class Grid>
struct MultilevelTrace {
  std::vector<Grid> level_charges;     // Q^1 .. Q^{L+1}
  std::vector<Grid> level_potentials;  // accumulated Phi^1 .. Phi^{L+1}
};

// Stage bodies, with l = 1 .. L the finer level of each step:
//   restriction(Q^l, l)          returns Q^{l+1}
//   top(Q^{L+1})                 returns Phi^{L+1}
//   prolongation(Phi^{l+1}, l)   returns the level-l potential grid
//   convolution(Q^l, l, phi)     adds level l's kernel convolution into phi
// Per-level potentials are kept only when `trace` is non-null.
template <class Grid, class Restriction, class Top, class Prolongation,
          class Convolution>
Grid solve_multilevel(Grid finest_charges, int levels,
                      const Restriction& restriction, const Top& top,
                      const Prolongation& prolongation,
                      const Convolution& convolution,
                      MultilevelTrace<Grid>* trace = nullptr) {
  const auto top_level = static_cast<std::size_t>(levels);
  std::vector<Grid> q(top_level + 1);
  q[0] = std::move(finest_charges);
  for (std::size_t l = 1; l <= top_level; ++l) {
    TME_PHASE("restriction");
    q[l] = restriction(q[l - 1], static_cast<int>(l));
  }

  Grid phi;
  {
    TME_PHASE("top_fft");
    phi = top(q[top_level]);
  }
  std::vector<Grid> phi_trace;
  if (trace != nullptr) {
    phi_trace.resize(top_level + 1);
    phi_trace[top_level] = phi;
  }

  for (std::size_t l = top_level; l >= 1; --l) {
    Grid level_phi;
    {
      TME_PHASE("prolongation");
      level_phi = prolongation(phi, static_cast<int>(l));
    }
    {
      TME_PHASE("convolution");
      convolution(q[l - 1], static_cast<int>(l), level_phi);
    }
    phi = std::move(level_phi);
    if (trace != nullptr) phi_trace[l - 1] = phi;
  }

  if (trace != nullptr) {
    trace->level_charges = std::move(q);
    trace->level_potentials = std::move(phi_trace);
  }
  return phi;
}

}  // namespace tme
