// Parallel short-range engine — the software counterpart of MDGRAPE-4A's 64
// nonbond force pipelines (paper Sec. II).
//
// Where the serial reference loop (md/short_range.hpp) walks a fresh cell
// list on one thread and evaluates erfc/sqrt per pair, this engine works
// from a buffered Verlet half list, the pair source of the paper's GROMACS
// baseline:
//  - the list holds every non-excluded pair within r_l = cutoff +
//    kListBuffer.  It is kept across compute() calls and rebuilt only when
//    the two largest displacements since the build sum to more than the
//    buffer (so no pair can have crossed from beyond r_l to inside the
//    cutoff), or when the atom count, the box or the topology's exclusions
//    or Lennard-Jones parameters change.  A non-finite displacement counts
//    as stale;
//  - the list is stored as CSR rows in original atom order with ascending
//    columns.  Each pair {i, j} lives in exactly one row, chosen by (i + j)
//    parity alone (odd: row min(i, j), even: row max(i, j)), which splits
//    the pairs evenly across rows;
//  - the build bins atoms into cells of edge >= r_l / 2 and tests each
//    cell's atoms, W candidates at a time, against the contiguous x-runs of
//    neighbour cells within r_l, each run shifted to the image next to the
//    home cell.  Each atom keeps the pairs whose row is the
//    other atom, and a stable counting scatter in atom order fills the rows
//    with ascending columns, with no sort;
//  - per-type Lennard-Jones parameters are precombined into a flat mixing
//    table (4εσ⁶, 4εσ¹², cutoff shift), refreshed only when the topology
//    changes;
//  - each compute() sweeps the rows with one vector row kernel
//    (md/short_range_kernels.hpp): W columns at a time it takes minimum
//    images, left-packs the pairs inside the cutoff, evaluates them, scatters
//    their forces onto the column atoms and adds them to the row atom in
//    column order; the W = 1 scalar twin (TME_SIMD=scalar) is bitwise
//    identical.  The erfc Coulomb kernel runs analytically or through a
//    segmented-polynomial table in r² (ewald/force_table.hpp), the
//    pipelines' table-lookup function evaluator (CoulombKernel in the
//    params).  The cutoff must stay below half of every box length
//    (compute() throws std::invalid_argument otherwise);
//  - rows are evaluated in fixed contiguous row ranges, one per pool
//    thread, with thread-private force/energy accumulators reduced in range
//    order.
//
// Contract: the result bits are a function of (frame, topology, pool size)
// and never of the list's age.  Rows, their column order and the row ranges
// depend on atom indices only, so the in-cutoff subsequence of any valid
// list is the same; a warm engine and a fresh one give identical bits.
// Different pool sizes agree to floating-point reassociation (~1e-15
// relative).
//
// compute() stays const: the list lives behind a pointer in a mutex-guarded
// cache, so concurrent callers serialise and the engine (and ForceField)
// stays movable.
#pragma once

#include <cstddef>
#include <memory>

#include "ewald/force_table.hpp"
#include "md/short_range.hpp"
#include "md/system.hpp"
#include "md/topology.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

class ShortRangeEngine {
 public:
  // Verlet buffer r_l - cutoff in nm.  On the heating water-tme-fine
  // trajectory 0.10 nm rebuilds the list every ~4.7 steps; 0.15 nm (every
  // ~6.7) ran ~5% faster there but holds a 1.5x larger list, which put the
  // peak RSS near its benchmark bound.
  static constexpr double kListBuffer = 0.10;

  // Builds the Coulomb kernel table once (when params.kernel is
  // kTabulated); the pair list is built by the first compute() call.
  explicit ShortRangeEngine(const ShortRangeParams& params);
  ~ShortRangeEngine();
  ShortRangeEngine(ShortRangeEngine&&) noexcept;
  ShortRangeEngine& operator=(ShortRangeEngine&&) noexcept;

  const ShortRangeParams& params() const { return params_; }

  // Non-null iff the engine runs the tabulated kernel.
  const ForceTable* force_table() const { return table_.get(); }

  // Which pair-kernel instantiation this engine runs (resolved once at
  // construction from params.simd / the TME_SIMD environment knob).  Scalar
  // and native produce bitwise-identical results for a given build.
  simd::Mode simd_mode() const { return mode_; }

  // Accumulates forces into system.forces (does not clear them), exactly
  // like compute_short_range.  `pool` selects the worker pool (nullptr = the
  // process-wide pool); results for a given pool size are deterministic.
  ShortRangeResult compute(ParticleSystem& system, const Topology& topology,
                           ThreadPool* pool = nullptr) const;

  // How many times compute() has built the pair list so far.
  std::size_t list_builds() const;

 private:
  struct PairListCache;

  ShortRangeParams params_;
  std::unique_ptr<ForceTable> table_;
  simd::Mode mode_ = simd::Mode::kNative;
  std::unique_ptr<PairListCache> cache_;
};

}  // namespace tme
