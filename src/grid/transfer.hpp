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
// lists only the taps of each output's parity — the polyphase split), the
// x pass runs a scalar fma chain per output, and the y/z passes run every
// tap over contiguous x-rows W elements at a time, parallel over all
// (y, z) output rows.  Every output sees the same fma chain over its taps
// in ascending-k order in both SIMD modes and at every pool size, so the
// result is bitwise invariant under both.
#pragma once

#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

// Each extent of `fine` must be even; returns the half-size coarse grid.
// The two-argument forms follow TME_SIMD and run on the process-wide pool;
// pass an explicit mode and pool for A/B parity tests and benches.
Grid3d restrict_grid(const Grid3d& fine, int p);
Grid3d restrict_grid(const Grid3d& fine, int p, simd::Mode mode, ThreadPool& pool);

// Returns the fine grid of doubled extents.
Grid3d prolong_grid(const Grid3d& coarse, int p);
Grid3d prolong_grid(const Grid3d& coarse, int p, simd::Mode mode, ThreadPool& pool);

}  // namespace tme
