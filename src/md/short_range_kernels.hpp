// Batched pair-interaction kernels for the short-range engine — the
// vectorized heart of the software nonbond pipelines.
//
// The engine's pair-list sweep filters list entries against the cutoff into
// a PairBatch of SoA lanes, evaluate_pair_batch() computes every pair's
// energies and force magnitude with the portable SIMD layer (util/simd.hpp),
// and the engine scatters the results back in enumeration order.  The
// expensive per-pair math — the segmented-polynomial erfc table in r² and
// the precombined Lorentz–Berthelot LJ term — runs W pairs at a time; the
// scalar twin (W = 1) executes the identical op sequence, so the two modes
// are bitwise interchangeable (TME_SIMD=scalar|native).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt) so the parity contract survives compiler fusion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ewald/force_table.hpp"
#include "util/simd.hpp"

namespace tme {

// SoA batch of filtered pairs (inside the cutoff, not excluded), kept in
// pair-list order so the scalar accumulation that follows is bitwise
// independent of the evaluation width.
struct PairBatch {
  // Inputs, one entry per pair (the arrays may be longer than size()).
  std::vector<double> dx, dy, dz;      // minimum-image displacement a - b
  std::vector<double> r2;              // |d|²
  std::vector<double> qq;              // kCoulomb * q_a * q_b
  std::vector<double> c6, c12, e_shift;  // mixed LJ parameters
  std::vector<std::uint32_t> ia, ib;   // particle indices

  // Outputs of evaluate_pair_batch, parallel to the inputs.
  std::vector<double> e_coul, e_lj, f_over_r;

  // Real (unpadded) pair count — the bound for the accumulation loop.
  std::size_t size() const { return count_; }

  // clear() keeps the storage, so a batch refilled every flush allocates
  // only while it grows.
  void clear();
  void reserve(std::size_t n);

  void push(double dx_, double dy_, double dz_, double r2_, double qq_,
            double c6_, double c12_, double e_shift_, std::uint32_t ia_,
            std::uint32_t ib_) {
    if (count_ == dx.size()) reserve(2 * count_ + 64);
    const std::size_t k = count_++;
    dx[k] = dx_;
    dy[k] = dy_;
    dz[k] = dz_;
    r2[k] = r2_;
    qq[k] = qq_;
    c6[k] = c6_;
    c12[k] = c12_;
    e_shift[k] = e_shift_;
    ia[k] = ia_;
    ib[k] = ib_;
  }

  // Pads the input arrays with benign entries (r2 = 1, everything else 0) up
  // to a multiple of `width`, so the vector loop never reads a partial lane;
  // size() keeps reporting the real pair count.  Also sizes the output
  // arrays.  Call once after the last push and before evaluation.
  void finalize(int width);

 private:
  std::size_t count_ = 0;
  std::size_t padded_ = 0;
};

// Coulomb kernel configuration for a batch evaluation: `table` selects the
// segmented-polynomial r² path (non-null) or the analytic erfc path.
struct PairKernelConfig {
  double alpha = 0.0;
  const ForceTable* table = nullptr;
};

// Fills batch.e_coul / e_lj / f_over_r for every pair.  `mode` picks the
// native-width or the W = 1 instantiation of the same kernel template; both
// produce bitwise-identical outputs.  The analytic Coulomb path (erfc/sqrt)
// stays scalar per lane in both modes — only the LJ term vectorizes there;
// the tabulated path vectorizes end to end.
void evaluate_pair_batch(PairBatch& batch, const PairKernelConfig& config,
                         simd::Mode mode);

}  // namespace tme
