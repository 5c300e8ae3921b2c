// TME-backed LongRangeSolver adapters and the name-driven backend registry.
//
// The ewald layer owns the interface and the classical-Ewald / SPME
// backends (ewald/long_range_solver.hpp); this header adds the paper's TME
// (floating point) and the hardware-faithful fixed-point TME, plus a
// registry keyed by backend name so the cross-validation matrix, benches,
// and job specs can construct any backend from one tuning record.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tme.hpp"
#include "core/tme_fixed.hpp"
#include "ewald/long_range_solver.hpp"

namespace tme {

std::unique_ptr<LongRangeSolver> make_tme_solver(const Box& box,
                                                 const TmeParams& params);
std::unique_ptr<LongRangeSolver> make_tme_fixed_solver(
    const Box& box, const TmeParams& params, const TmeFixedConfig& config = {});

// Adds every TmeParams accuracy knob (plus the SIMD mode) to a describe()
// object — shared by the TME-family backends, serial and distributed.
void describe_tme_params(const TmeParams& p, obs::JsonValue& d);

// One tuning record covering every backend's accuracy knobs; each backend
// reads the fields it honours (and records them in its describe()).
struct SolverTuning {
  double alpha = 3.0;             // all backends
  GridDims grid{16, 16, 16};      // mesh backends: finest grid
  int order = 6;                  // mesh backends: B-spline order
  int n_cut = 0;                  // ewald: reciprocal cutoff (0 = 1e-15 auto)
  int levels = 1;                 // tme backends
  int grid_cutoff = 8;            // tme backends: g_c
  std::size_t num_gaussians = 4;  // tme backends: M
  bool compute_virial = false;    // spme: also fill CoulombResult::virial
};

// Registered backend names: {"ewald", "spme", "tme", "tme_fixed"}.
const std::vector<std::string>& long_range_backends();

// Builds the named backend for `box`; throws std::invalid_argument on an
// unknown name.
std::unique_ptr<LongRangeSolver> make_long_range_solver(
    const std::string& backend, const Box& box, const SolverTuning& tuning);

}  // namespace tme
