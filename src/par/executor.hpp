// Batched execution of per-node TME work behind one interface.
//
// ParallelTme builds every node's halo buffer for a phase (importing halos
// is where traffic is logged, so it stays on the coordinator), then hands
// the batch of pure tasks to a NodeExecutor and integrates the returned
// blocks in fixed node order.  SerialExecutor runs each task inline — the
// single-process behaviour the simulated machine always had.  WorkerFleet
// (par/fleet.hpp) ships the same tasks to real worker processes over a
// ProcTransport.  Because every task is a pure function (par/node_kernels.hpp)
// and results are integrated in task order, the forces are bitwise
// independent of which executor — and which process — ran them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "grid/grid3d.hpp"
#include "grid/separable_conv.hpp"
#include "par/node_kernels.hpp"
#include "util/vec3.hpp"

namespace tme::par {

// Everything a worker needs to execute any task: geometry, spline order,
// the two-scale coefficients, and the per-level separable kernels.  Built
// once by ParallelTme from its Tme; shipped verbatim to workers in the Init
// message so they never construct a Tme (whose FFT planning would drag the
// thread pool into a forked child).
struct PipelineContext {
  Box box;
  Vec3 h{1.0, 1.0, 1.0};  // finest grid spacing
  int p = 6;
  GridDims fine_global;
  std::vector<double> j_coeff;
  // kernels[l - 1] holds level l's separable terms (levels 1 .. L).
  std::vector<std::vector<SeparableTerm>> kernels;
};

// One per-node unit of grid work.  The (level, term, axis) triple keys the
// convolution kernel into PipelineContext::kernels on whichever side runs it.
struct GridBlockTask {
  enum class Kind : std::uint16_t { kRestrict = 0, kProlong = 1, kConvolve = 2 };
  Kind kind = Kind::kRestrict;
  std::size_t node = 0;
  ExtendedBlock halo;
  long ox = 0, oy = 0, oz = 0;
  GridDims out_dims;
  // Convolution-only fields:
  int axis = 0;
  long reach = 0;
  std::size_t n_axis = 0;
  int level = 1;
  std::size_t term = 0;
};

struct CaBlockTask {
  std::size_t node = 0;
  std::vector<Vec3> positions;
  std::vector<double> charges;
  long x0 = 0, y0 = 0, z0 = 0;
  std::size_t ex = 0, ey = 0, ez = 0;
};

struct BiBlockTask {
  std::size_t node = 0;
  ExtendedBlock halo;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

class NodeExecutor {
 public:
  virtual ~NodeExecutor() = default;
  // Each run_* returns one result per task, in task order.
  virtual std::vector<Grid3d> run_grid(std::vector<GridBlockTask> tasks) = 0;
  virtual std::vector<ExtendedBlock> run_ca(std::vector<CaBlockTask> tasks) = 0;
  virtual std::vector<BiBlockResult> run_bi(std::vector<BiBlockTask> tasks) = 0;
  // Short label recorded in solver manifests (ParallelTme::describe()).
  virtual std::string name() const { return "custom"; }
};

// Runs every task inline in the calling process.
class SerialExecutor : public NodeExecutor {
 public:
  explicit SerialExecutor(const PipelineContext& ctx) : ctx_(&ctx) {}

  std::vector<Grid3d> run_grid(std::vector<GridBlockTask> tasks) override;
  std::vector<ExtendedBlock> run_ca(std::vector<CaBlockTask> tasks) override;
  std::vector<BiBlockResult> run_bi(std::vector<BiBlockTask> tasks) override;
  std::string name() const override { return "serial"; }

 private:
  const PipelineContext* ctx_;
};

// Shared by SerialExecutor and the worker loop: execute one task against a
// context.  Defined here so in-process and worker-process execution are the
// same code path by construction.
Grid3d execute_grid_task(const PipelineContext& ctx, const GridBlockTask& task);
ExtendedBlock execute_ca_task(const PipelineContext& ctx, const CaBlockTask& task);
BiBlockResult execute_bi_task(const PipelineContext& ctx, const BiBlockTask& task);

}  // namespace tme::par
