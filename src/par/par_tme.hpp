// Distributed-memory execution of the TME over a virtual 3D-torus node
// array — the parallel algorithm the MDGRAPE-4A hardware runs, expressed as
// explicit per-node blocks and logged inter-node messages.
//
// Every stage moves exactly the data the machine moves:
//   CA            per-node anterpolation into a sleeved buffer, sleeve
//                 accumulation to neighbours          (paper Sec. IV.A)
//   restriction   fine-grid halo exchange of p/2 cells, J-stencil
//   level conv    per-axis slab exchange over +-ceil(g_c/local) neighbours,
//                 1D kernels, M separable terms       (paper Sec. IV.B)
//   top level     gather of the coarsest grid to a root node, FFT
//                 convolution, broadcast back         (paper Sec. IV.C)
//   prolongation  coarse-grid halo exchange, two-scale stencil
//   BI            potential halo import, per-node interpolation
//
// The level loop is the one multilevel driver (grid/multilevel.hpp) over
// DistributedGrid; this file supplies its stage bodies, which build the
// per-node tasks above.  The coordinator owns every distributed grid and the
// traffic log, and stages each task's halo (par/halo.hpp); the per-node
// compute is batched through a NodeExecutor
// (par/executor.hpp), so the same pipeline runs inline (SerialExecutor, the
// default) or across real worker processes (par/fleet.hpp) with bitwise
// identical results.
//
// The result is bitwise-independent of the decomposition up to floating
// summation order (tests assert agreement with the serial Tme to 1e-10),
// and the TrafficLog gives *measured* per-phase word counts to check the
// paper's Sec. III.C communication model against.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/tme.hpp"
#include "ewald/long_range_solver.hpp"
#include "hw/link_stats.hpp"
#include "par/decomposition.hpp"
#include "par/executor.hpp"
#include "par/recovery.hpp"
#include "par/traffic.hpp"

namespace tme::par {

// Per-node block storage for one grid level.
class DistributedGrid {
 public:
  DistributedGrid() = default;
  explicit DistributedGrid(const GridDecomposition& decomp);

  const GridDecomposition& decomposition() const { return *decomp_; }
  Grid3d& block(std::size_t node) { return blocks_[node]; }
  const Grid3d& block(std::size_t node) const { return blocks_[node]; }
  std::size_t node_count() const { return blocks_.size(); }

  // Test/bridge helpers (no traffic logged).
  Grid3d assemble() const;
  static DistributedGrid distribute(const Grid3d& global,
                                    const GridDecomposition& decomp);

 private:
  const GridDecomposition* decomp_ = nullptr;
  std::vector<Grid3d> blocks_;
};

// A LongRangeSolver ("par_tme"), so a ForceField can run the distributed
// pipeline on any executor.
class ParallelTme : public LongRangeSolver {
 public:
  // `nodes` must divide every level's grid extents (e.g. 2^k node arrays
  // with power-of-two grids).
  ParallelTme(const Box& box, const TmeParams& params, const TorusTopology& nodes);

  // The built-in SerialExecutor holds a pointer into this object.
  ParallelTme(const ParallelTme&) = delete;
  ParallelTme& operator=(const ParallelTme&) = delete;

  const Tme& serial() const { return tme_; }
  const TorusTopology& topology() const { return topo_; }

  // The shared kernel/geometry context every executor needs — ship this to
  // worker processes (par/worker.hpp Init message) so they can run tasks
  // without ever constructing a Tme.
  const PipelineContext& context() const { return ctx_; }

  // Route the per-node compute through `exec` (which must outlive this
  // object); nullptr restores the built-in inline SerialExecutor.  Any
  // executor that returns results in task order leaves forces bitwise
  // unchanged — that is the whole contract.
  void set_executor(NodeExecutor* exec) { exec_ = exec; }

  // Degraded-machine mode: build a RecoveryPlan for the injector's structural
  // faults (throws if the fault set partitions the machine) and account all
  // subsequent traffic against surviving hosts — including retransmissions
  // drawn from the injector's corruption stream.  Pass nullptr (or an
  // injector with no structural/stochastic faults) to return to the healthy
  // machine.  The injector must outlive this object.  Physics is unaffected:
  // forces stay bitwise-identical to the fault-free run.
  void set_fault_injector(const FaultInjector* faults);
  const RecoveryPlan* recovery_plan() const { return plan_.get(); }

  // Optional per-link accounting: every logged transfer is additionally
  // charged hop-by-hop along its dimension-ordered route into `links`
  // (which must be built over the same topology and outlive this object).
  // On a degraded machine the route runs between the surviving *hosts*.
  // Pass nullptr to stop accounting.
  void set_link_telemetry(hw::LinkTelemetry* links);

  // Long-range energy/forces, identical contract to Tme::compute, with
  // per-phase message accounting.
  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges, TrafficLog* log) const;

  // LongRangeSolver: the same evaluation with the traffic log kept internal
  // (a degraded machine still draws its link retransmissions per transfer).
  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges) const override;
  std::string name() const override { return "par_tme"; }
  double alpha() const override { return tme_.params().alpha; }
  const Box& box() const override { return box_; }
  // TME knobs plus the node torus and the executor's name().
  obs::JsonValue describe() const override;

  // The distributed grid pipeline alone (finest charges in, finest
  // potentials out), for stage-level testing.
  DistributedGrid solve_potential(const DistributedGrid& finest_charges,
                                  TrafficLog* log) const;

 private:
  NodeExecutor& executor() const {
    return exec_ != nullptr ? *exec_ : *serial_exec_;
  }

  Box box_;
  Tme tme_;  // owns parameters, kernels, and the top-level SPME
  TorusTopology topo_;
  std::vector<GridDecomposition> level_decomp_;  // levels 1 .. L+1
  PipelineContext ctx_;
  std::unique_ptr<SerialExecutor> serial_exec_;
  NodeExecutor* exec_ = nullptr;  // non-owning override
  const FaultInjector* faults_ = nullptr;
  std::unique_ptr<RecoveryPlan> plan_;  // non-null only with structural faults
  hw::LinkTelemetry* links_ = nullptr;
};

// One dense (B-spline MSM) level convolution executed with per-node halo
// imports — the communication counterpart of the TME's separable passes.
// The halo volume per node is exactly the paper's MSM cost formula:
// (local + 2 g_c)^3 - local^3 = (8 + 12 gamma + 6 gamma^2) g_c^3 with
// gamma = local / g_c.
Grid3d parallel_msm_convolution(const Grid3d& in, const std::vector<double>& taps3d,
                                int cutoff, const TorusTopology& topo,
                                TrafficLog* log);

}  // namespace tme::par
