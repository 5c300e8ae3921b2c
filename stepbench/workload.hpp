// The step benchmark's workloads: rigid TIP3P water (SETTLE, 1 fs NVE) in the
// Table-1 scaled box, with one long-range configuration per workload.
//
// Every workload shares the dimensionless Table-1 parameters (r_c = 4.011 h,
// erfc(alpha r_c) = 1e-4, p = 6, g_c = 8, M = 4); they differ in grid size,
// level count, backend, and whether the TME grid work runs inline or through
// a fleet of worker processes.  RATIONALE.md says why each one exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solvers.hpp"
#include "md/forcefield.hpp"
#include "md/integrator.hpp"
#include "md/water_box.hpp"
#include "par/fleet.hpp"
#include "par/par_tme.hpp"

namespace stepbench {

struct WorkloadSpec {
  std::string name;
  std::string backend;  // "tme" or "spme"
  std::size_t grid_n = 16;
  int levels = 1;
  bool fleet = false;   // long range through par::ParallelTme + WorkerFleet
};

// One of the four workloads RATIONALE.md lists; throws
// std::invalid_argument for an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

// Wall-clock seconds of the NodeExecutor batches ParallelTme::compute
// issues, by batch kind.
struct ExecutorTimes {
  double ca_s = 0.0;
  double grid_s = 0.0;  // restriction, prolongation and convolution batches
  double bi_s = 0.0;
  std::size_t tasks = 0;
};

// NodeExecutor decorator: forwards every batch to `inner` and times it.  With
// recording on it also keeps a copy of each batch so the same tasks can be
// replayed later through another executor (the wire-overhead baseline).
class TimedExecutor final : public tme::par::NodeExecutor {
 public:
  explicit TimedExecutor(tme::par::NodeExecutor& inner) : inner_(&inner) {}

  std::vector<tme::Grid3d> run_grid(std::vector<tme::par::GridBlockTask> tasks) override;
  std::vector<tme::par::ExtendedBlock> run_ca(std::vector<tme::par::CaBlockTask> tasks) override;
  std::vector<tme::par::BiBlockResult> run_bi(std::vector<tme::par::BiBlockTask> tasks) override;

  const ExecutorTimes& times() const { return times_; }
  void reset_times() { times_ = {}; }

  void set_recording(bool on) { recording_ = on; }
  // Replays every recorded batch, in order, through `exec`; returns the
  // seconds it took and clears the recording.
  double replay(tme::par::NodeExecutor& exec);

 private:
  tme::par::NodeExecutor* inner_;
  ExecutorTimes times_;
  bool recording_ = false;
  std::vector<std::vector<tme::par::GridBlockTask>> grid_log_;
  std::vector<std::vector<tme::par::CaBlockTask>> ca_log_;
  std::vector<std::vector<tme::par::BiBlockTask>> bi_log_;
  std::vector<char> order_;  // 'g' / 'c' / 'b', one per recorded batch
};

// LongRangeSolver over par::ParallelTme, so ForceField + VelocityVerlet can
// run SETTLE water with the TME grid work on a fleet of worker processes.
// The core/solvers registry has no executor-backed backend yet; this adapter
// lives in the benchmark until it does.
class ParallelTmeSolver final : public tme::LongRangeSolver {
 public:
  // workers == 0 runs the per-node tasks inline through SerialExecutor;
  // otherwise a proc-backend WorkerFleet of that many single-threaded
  // tme_worker processes (fork+exec) is spawned and Init'ed here.
  ParallelTmeSolver(const tme::Box& box, const tme::TmeParams& params,
                    const tme::hw::TorusTopology& torus, std::size_t workers);
  ~ParallelTmeSolver() override;

  ParallelTmeSolver(const ParallelTmeSolver&) = delete;
  ParallelTmeSolver& operator=(const ParallelTmeSolver&) = delete;

  tme::CoulombResult compute(std::span<const tme::Vec3> positions,
                             std::span<const double> charges) const override;
  std::string name() const override { return "par_tme"; }
  double alpha() const override { return ptme_.serial().params().alpha; }
  const tme::Box& box() const override { return ptme_.serial().box(); }
  tme::obs::JsonValue describe() const override;

  const tme::par::ParallelTme& parallel() const { return ptme_; }
  TimedExecutor& timed_executor() const { return *timed_; }
  // Null when running inline.
  const tme::par::WorkerFleet* fleet() const { return fleet_.get(); }

  // TrafficLog words over every compute() so far.
  std::size_t traffic_words() const { return traffic_words_; }

  // Graceful fleet stop (kShutdown/kBye, no SIGKILL); no-op inline.
  bool quiesce();

 private:
  tme::par::ParallelTme ptme_;
  std::unique_ptr<tme::par::SerialExecutor> serial_;
  std::unique_ptr<tme::par::WorkerFleet> fleet_;
  std::unique_ptr<TimedExecutor> timed_;
  mutable std::size_t traffic_words_ = 0;
};

// Table-1 geometry of one workload on the water box.
struct Geometry {
  double r_cut = 0.0;  // nm, 4.011 finest grid spacings
  double alpha = 0.0;  // nm^-1, erfc(alpha r_cut) = 1e-4
};
tme::TmeParams tme_params_for(const WorkloadSpec& spec, const Geometry& g);

// One complete set-up: box, solver, ForceField, integrator, fleet, primed.
// Constructing it is exactly what setup_s times.
class Setup {
 public:
  Setup(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return *spec_; }
  const Geometry& geometry() const { return geom_; }
  tme::WaterBox& water() { return wb_; }
  const tme::ForceField& forcefield() const { return *ff_; }
  const tme::VelocityVerlet& integrator() const { return *vv_; }
  // Non-null on the fleet workload.
  ParallelTmeSolver* parallel_solver() const { return par_; }

  tme::StepReport step() { return vv_->step(wb_.system, wb_.topology, *ff_); }

 private:
  const WorkloadSpec* spec_;
  tme::WaterBox wb_;
  Geometry geom_;
  ParallelTmeSolver* par_ = nullptr;  // owned by ff_
  std::unique_ptr<tme::ForceField> ff_;
  std::unique_ptr<tme::VelocityVerlet> vv_;
};

// Table-1 relative force error of the total Coulomb force on `system`'s
// current frame: `lr` (the workload's long range) plus the analytic erfc
// short range over all pairs within r_cut, against the converged classical
// Ewald reference.
double table1_force_error(const tme::ParticleSystem& system,
                          const tme::CoulombResult& lr, double alpha, double r_cut);

// True when both results carry identical energy and force bits.
bool bitwise_equal(const tme::CoulombResult& a, const tme::CoulombResult& b);

}  // namespace stepbench
