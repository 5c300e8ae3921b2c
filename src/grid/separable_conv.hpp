// Axis-wise (separable) periodic convolutions with a range-limited kernel —
// the software model of the MDGRAPE-4A grid convolution unit (GCU).
//
// A Kernel1d holds taps k[-cutoff .. +cutoff] (centre-indexed).  The 3D
// tensor-structured convolution of the TME (paper Eq. 10) is
//   out = sum_nu  K^{nu,x} *_x K^{nu,y} *_y K^{nu,z} *_z  in,
// evaluated one axis at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

// Symmetric-range 1D kernel, taps indexed from -cutoff to +cutoff.
struct Kernel1d {
  int cutoff = 0;
  std::vector<double> taps;  // size 2*cutoff + 1

  double tap(int m) const { return taps[static_cast<std::size_t>(m + cutoff)]; }
};

enum class ConvAxis { kX = 0, kY = 1, kZ = 2 };

// out[n] = sum_{|m| <= cutoff} k[m] * in[n - m]  along the chosen axis
// (periodic).  in and out must have identical dims; in-place is not allowed.
//
// The passes run on the shared row engine (grid/axis_taps.hpp), W grid
// elements at a time (a periodically padded copy of each x-line for the x
// axis, contiguous x-rows for y/z); every element sees the same fma chain
// over the taps in the same order in both instantiations, so TME_SIMD=scalar
// and native are bitwise identical.  The 4-argument form follows the TME_SIMD
// environment knob; pass an explicit mode for A/B parity tests and benches.
void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out);
void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out, simd::Mode mode);

// Full separable pass: z(y(x(in))) with per-axis kernels.
Grid3d convolve_separable(const Grid3d& in, const Kernel1d& kx,
                          const Kernel1d& ky, const Kernel1d& kz);

// Accumulating tensor-structured convolution:
//   out += scale * sum over terms of separable convolutions.
// One fused pass over all M terms, as the GCU streams every Gaussian term
// of a level through the same convolution pipes: first, per z-plane, the x
// then y pass of every term (both stay inside the plane; the plane's x-lines
// are padded once for all terms) into M work grids; then, per y-row, the z
// pass of every term in term order, each adding scale * its result into
// `out` cell by cell.  Every cell sees the same fma chains and the same
// term-ordered sum as convolving term by term, so the bits equal the
// three-pass-per-term form.  Two pool dispatches per call; terms may have
// different cutoffs per term and per axis.  The 4-argument form follows
// TME_SIMD on the process-wide pool; pass an explicit mode and pool for A/B
// parity tests and benches.
struct SeparableTerm {
  Kernel1d kx, ky, kz;
};
void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out);
void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out, simd::Mode mode, ThreadPool& pool);

// Brute-force range-limited dense 3D convolution (reference for tests and the
// B-spline-MSM baseline cost):  out[n] = sum_{|m_j| <= cutoff} K3[m] in[n-m].
// K3 is given as a lambda-free dense cube of (2c+1)^3 taps, x-fastest.
void convolve_dense3d(const Grid3d& in, const std::vector<double>& taps3d,
                      int cutoff, Grid3d& out);

}  // namespace tme
