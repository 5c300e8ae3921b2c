// Grid transfer operators of the TME hierarchy (paper Fig. 2(e)(f)).
//
// Restriction maps level-l grid charges to the coarser level l+1:
//   Q^{l+1}_m = sum_k J_k Q^l_{2m+k}        (axis-wise, periodic)
// Prolongation maps level-(l+1) grid potentials back to level l:
//   P^l_n    += sum_m J_{n-2m} P^{l+1}_m
// where J are the two-scale coefficients of the order-p central B-spline.
// The two maps are adjoint, a property the tests rely on.
//
// Like the GCU, each axis pass streams whole grid rows: the wrapped source
// index and weight of every tap are tabulated once per pass (prolongation
// lists only the taps of each output's parity — the polyphase split) and
// run through the row engine (grid/axis_taps.hpp): a scalar fma chain per
// output in the x pass, and every tap over contiguous x-rows W elements at
// a time in the y/z passes, parallel over input planes or y-rows.  Every
// output sees the same fma chain over its taps in ascending-k order in both
// SIMD modes and at every pool size, so the result is bitwise invariant
// under both.  The fleet's node kernels (par/node_kernels.hpp) build the
// same tables over halo-relative indices.
#pragma once

#include <cstddef>
#include <span>

#include "grid/axis_taps.hpp"
#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

// The two-scale taps along one axis for the outputs [o, o + n_out) (global
// indices of the output level), in the order every transfer sums them.  `j`
// is two_scale_coefficients(p); source(g) maps a global index of the input
// level to the index the pass reads — wrapped into the period inline,
// halo-relative in a node's block.
template <typename Source>
AxisTaps restriction_taps(std::span<const double> j, long o, std::size_t n_out,
                          Source&& source) {
  const int half_p = static_cast<int>(j.size() / 2);
  AxisTaps t;
  t.reserve(n_out, j.size());
  for (long m = o; m < o + static_cast<long>(n_out); ++m) {
    t.start_output();
    for (int k = -half_p; k <= half_p; ++k) {
      t.add(j[static_cast<std::size_t>(k + half_p)], source(2 * m + k));
    }
  }
  t.finish();
  return t;
}

// Prolongation output n reads m = (n - k)/2 over the k of n's parity only
// (|n - 2m| <= p/2) — the polyphase split of upsample-then-convolve.
template <typename Source>
AxisTaps prolongation_taps(std::span<const double> j, long o, std::size_t n_out,
                           Source&& source) {
  const int half_p = static_cast<int>(j.size() / 2);
  AxisTaps t;
  t.reserve(n_out, j.size() / 2 + 1);
  for (long n = o; n < o + static_cast<long>(n_out); ++n) {
    t.start_output();
    for (int k = -half_p; k <= half_p; ++k) {
      if (((n - k) & 1L) != 0) continue;
      t.add(j[static_cast<std::size_t>(k + half_p)], source((n - k) / 2));
    }
  }
  t.finish();
  return t;
}

// Each extent of `fine` must be even; returns the half-size coarse grid.
// The two-argument forms follow TME_SIMD and run on the process-wide pool;
// pass an explicit mode and pool for A/B parity tests and benches.
Grid3d restrict_grid(const Grid3d& fine, int p);
Grid3d restrict_grid(const Grid3d& fine, int p, simd::Mode mode, ThreadPool& pool);

// Returns the fine grid of doubled extents.
Grid3d prolong_grid(const Grid3d& coarse, int p);
Grid3d prolong_grid(const Grid3d& coarse, int p, simd::Mode mode, ThreadPool& pool);

}  // namespace tme
