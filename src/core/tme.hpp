// Tensor-structured multilevel Ewald summation (TME) — the paper's primary
// contribution (Sec. III), evaluating the long-range (erf) part of the
// Coulomb interaction:
//
//   1. charge assignment (anterpolation) onto the finest grid    [LRU]
//   2. restriction down the level hierarchy, L times             [GCU]
//   3. per-level separable tensor-kernel convolution             [GCU]
//   4. top-level SPME solve on the N/2^L grid (3D FFT)           [TMENW/FPGA]
//   5. prolongation back up, accumulating level potentials       [GCU]
//   6. back interpolation of forces/energies                     [LRU]
//
// With identical (alpha, r_c, p, N) the accuracy converges to SPME as the
// grid cutoff g_c and Gaussian count M grow (paper Table 1).
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/gaussian_fit.hpp"
#include "ewald/charge_assignment.hpp"
#include "ewald/reference_ewald.hpp"
#include "ewald/spme.hpp"
#include "grid/multilevel.hpp"
#include "grid/separable_conv.hpp"
#include "util/constants.hpp"
#include "util/vec3.hpp"

namespace tme {

// How the coarsest (level L+1) grid potentials are solved.
//   kSpme  — 3D-FFT convolution (the FPGA engine of Sec. IV.C).
//   kDense — direct periodic convolution with the exact top kernel: O(n^2)
//            in top-grid points, FFT-free at runtime.  At 8^3..16^3 tops
//            this is cheap and removes the machine's only FFT — the
//            direction Sec. VI.B gestures at for future accelerators.
enum class TopLevelMode { kSpme, kDense };

struct TmeParams {
  int order = 6;           // B-spline order p (even; the hardware fixes 6)
  GridDims grid;           // finest grid N
  double alpha = 3.0;      // Ewald splitting parameter, nm^-1
  int levels = 1;          // L, number of middle-range levels
  int grid_cutoff = 8;     // g_c, taps per side of the 1D kernels
  std::size_t num_gaussians = 4;  // M (the hardware uses 4; 3 converges)
  TopLevelMode top_level_mode = TopLevelMode::kSpme;
  bool subtract_self = true;
};

using TmeTrace = MultilevelTrace<Grid3d>;

// Prefactor of level l's separable convolution (paper Eq. 9): kC / 2^{l-1}.
inline double tme_level_scale(int level) {
  return constants::kCoulomb / std::ldexp(1.0, level - 1);
}

class Tme {
 public:
  Tme(const Box& box, const TmeParams& params);

  const TmeParams& params() const { return params_; }
  const Box& box() const { return box_; }
  const std::vector<GaussianTerm>& gaussian_terms() const { return gaussians_; }
  const std::vector<SeparableTerm>& level_kernels(int level) const;
  const Spme& top_level() const { return *top_; }

  // Long-range energy and forces (kJ/mol, kJ mol^-1 nm^-1).
  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges,
                        TmeTrace* trace = nullptr) const;

  // The one evaluation path of every serial TME variant: charge assignment,
  // `solve` (finest grid charges -> finest grid potentials), back
  // interpolation, then the self and net-charge terms.  compute() passes
  // solve_potential; core/tme_fixed passes its fixed-point and
  // single-precision grid solves.
  CoulombResult compute_with(
      std::span<const Vec3> positions, std::span<const double> charges,
      const std::function<Grid3d(const Grid3d&)>& solve) const;

  // The grid-to-grid middle of the pipeline (steps 2–5): finest grid charges
  // in, finest grid potentials out, through solve_multilevel
  // (grid/multilevel.hpp).  Exposed for stage-level testing.
  Grid3d solve_potential(const Grid3d& finest_charges, TmeTrace* trace = nullptr) const;

  // The top-level stage every variant shares (step 4): coarsest grid
  // charges to potentials, by FFT or dense convolution per top_level_mode.
  Grid3d solve_top(const Grid3d& top_charges) const;

  GridDims level_dims(int level) const;  // level = 1 .. L+1

  // The exact periodic top-level kernel (dense mode only; empty otherwise).
  const Grid3d& top_dense_kernel() const { return top_dense_kernel_; }

 private:
  Box box_;
  TmeParams params_;
  ChargeAssigner assigner_;
  std::vector<GaussianTerm> gaussians_;
  std::vector<std::vector<SeparableTerm>> kernels_;  // per level 1..L
  std::unique_ptr<Spme> top_;
  Grid3d top_dense_kernel_;  // dense mode: IFFT of the influence function
};

}  // namespace tme
