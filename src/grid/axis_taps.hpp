// The row engine shared by every separable grid stencil: restriction and
// prolongation (grid/transfer.cpp), the axis convolutions
// (grid/separable_conv.cpp) and the fleet's per-node block kernels
// (par/node_kernels.cpp).
//
// A stencil along one axis is a tap table, built once per pass: output n
// reads
//   out[n] = sum_{t in [begin[n], begin[n+1])} weight[t] * in[src[t]]
// with the taps in the order they were added.  The caller resolves any
// periodic wrap or halo offset into `src`, so the passes below never take a
// modulo.  Every output is one fma chain over its taps starting from zero —
// scalar per element in an x-row, or W elements of contiguous x-rows at a
// time in a y/z pass (and in an x-row whose table is a window) — so
// every pass is bitwise invariant under TME_SIMD and the pool size, and two
// callers that build the same taps over the same values get the same bits.
//
// Throughput: a contiguous run of outputs (a window x-row, or an output row
// of a y/z pass) is covered by groups of four independent W-wide
// accumulators with the tap loop outermost, so four fma chains are in
// flight instead of one; each element's chain is unchanged.  A z pass first
// copies the nz x-rows of each y-row into a contiguous staging buffer (in a
// 32^3 grid they sit 8 KB apart, all on one L1 set) and runs the taps over
// the staged rows.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

// Uninitialised scratch for the passes: doubles on a 64-byte boundary (a
// cache line and the widest vector), so W-wide loads of rows that start at
// a multiple of W elements never straddle two lines.
struct AlignedFree {
  void operator()(double* p) const { ::operator delete[](p, std::align_val_t{64}); }
};
using ScratchRows = std::unique_ptr<double[], AlignedFree>;
inline ScratchRows scratch_rows(std::size_t n) {
  return ScratchRows(
      static_cast<double*>(::operator new[](n * sizeof(double), std::align_val_t{64})));
}

struct AxisTaps {
  std::vector<double> weight;
  std::vector<std::size_t> src;
  std::vector<std::size_t> begin;  // one entry per output, then the end
  // Set by finish() when the table is a convolution window: output n has
  // output 0's weights, tap k reading src[0] + n - k, so an x-row runs W
  // outputs per contiguous load.
  bool window = false;

  // Sizes the table for `outputs` outputs of up to `taps` taps each.
  void reserve(std::size_t outputs, std::size_t taps) {
    weight.reserve(outputs * taps);
    src.reserve(outputs * taps);
    begin.reserve(outputs + 1);
  }
  // Opens the next output; add() then appends its taps in chain order.
  void start_output() { begin.push_back(weight.size()); }
  void add(double w, std::size_t s) {
    weight.push_back(w);
    src.push_back(s);
  }
  // Closes the table after the last output.
  void finish();
  std::size_t outputs() const { return begin.empty() ? 0 : begin.size() - 1; }
};

// One x-row: out_row[n] for every output n of `t`, reading in_row[src].
void taps_row_x(const double* in_row, const AxisTaps& t, double* out_row,
                simd::Mode mode);

// x pass over `rows` consecutive x-rows of length in_len; the output rows
// (t.outputs() long) are stored consecutively.  Parallel over rows.
void taps_pass_x(const double* in, std::size_t in_len, std::size_t rows,
                 const AxisTaps& t, double* out, simd::Mode mode, ThreadPool& pool);

// The y pass of one plane of nx-long rows: output row n (stored at
// out_plane + n * nx) reads the plane's rows src[t].
void taps_plane_y(const double* in_plane, std::size_t nx, const AxisTaps& t,
                  double* out_plane, simd::Mode mode);

// The z pass of y-row iy of an x-fastest box of extents `in_dims`: output
// row n lands at (z = n, y = iy) of a box with t.outputs() planes.  `stage`
// is scratch for in_dims.nz * in_dims.nx values (the staged column).  A
// non-null `scale` accumulates out += *scale * result instead of storing.
void taps_column_z(const double* in, GridDims in_dims, std::size_t iy, const AxisTaps& t,
                   double* out, double* stage, simd::Mode mode,
                   const double* scale = nullptr);

// y (axis 1) or z (axis 2) pass over an x-fastest box of extents `in_dims`:
// the output has the same extents except t.outputs() along `axis`, and its
// row (y, z) reads the input rows src[t] along that axis.  Parallel over the
// input's planes (axis 1) or y-rows (axis 2).
void taps_pass_yz(const double* in, GridDims in_dims, int axis, const AxisTaps& t,
                  double* out, simd::Mode mode, ThreadPool& pool);

}  // namespace tme
