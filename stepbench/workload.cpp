#include "workload.hpp"

#include <chrono>
#include <stdexcept>

#include "ewald/splitting.hpp"
#include "md/short_range.hpp"

namespace stepbench {

using namespace tme;

const WorkloadSpec& find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> all{
      {"water-tme", "tme", 16, 1, false},
      {"water-tme-fine", "tme", 32, 2, false},
      {"water-spme-fine", "spme", 32, 1, false},
      {"water-tme-fleet", "tme", 32, 2, true},
  };
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- TimedExecutor ---------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::vector<Grid3d> TimedExecutor::run_grid(std::vector<par::GridBlockTask> tasks) {
  if (recording_) {
    grid_log_.push_back(tasks);
    order_.push_back('g');
  }
  times_.tasks += tasks.size();
  const Clock::time_point t0 = Clock::now();
  std::vector<Grid3d> out = inner_->run_grid(std::move(tasks));
  times_.grid_s += since(t0);
  return out;
}

std::vector<par::ExtendedBlock> TimedExecutor::run_ca(std::vector<par::CaBlockTask> tasks) {
  if (recording_) {
    ca_log_.push_back(tasks);
    order_.push_back('c');
  }
  times_.tasks += tasks.size();
  const Clock::time_point t0 = Clock::now();
  std::vector<par::ExtendedBlock> out = inner_->run_ca(std::move(tasks));
  times_.ca_s += since(t0);
  return out;
}

std::vector<par::BiBlockResult> TimedExecutor::run_bi(std::vector<par::BiBlockTask> tasks) {
  if (recording_) {
    bi_log_.push_back(tasks);
    order_.push_back('b');
  }
  times_.tasks += tasks.size();
  const Clock::time_point t0 = Clock::now();
  std::vector<par::BiBlockResult> out = inner_->run_bi(std::move(tasks));
  times_.bi_s += since(t0);
  return out;
}

double TimedExecutor::replay(par::NodeExecutor& exec) {
  std::size_t g = 0, c = 0, b = 0;
  const Clock::time_point t0 = Clock::now();
  for (const char kind : order_) {
    if (kind == 'g') exec.run_grid(std::move(grid_log_[g++]));
    if (kind == 'c') exec.run_ca(std::move(ca_log_[c++]));
    if (kind == 'b') exec.run_bi(std::move(bi_log_[b++]));
  }
  const double s = since(t0);
  grid_log_.clear();
  ca_log_.clear();
  bi_log_.clear();
  order_.clear();
  return s;
}

// --- ParallelTmeSolver -----------------------------------------------------

ParallelTmeSolver::ParallelTmeSolver(const Box& box, const TmeParams& params,
                                     const hw::TorusTopology& torus,
                                     std::size_t workers)
    : ptme_(box, params, torus),
      serial_(std::make_unique<par::SerialExecutor>(ptme_.context())) {
  if (workers > 0) {
    par::FleetConfig cfg;
    cfg.backend = par::FleetConfig::Backend::kProc;
    cfg.workers = workers;
    cfg.worker_bin = STEPBENCH_WORKER_BIN;
    cfg.telemetry = false;
    fleet_ = std::make_unique<par::WorkerFleet>(ptme_.context(), ptme_.topology(), cfg);
  }
  timed_ = std::make_unique<TimedExecutor>(
      fleet_ ? static_cast<par::NodeExecutor&>(*fleet_) : *serial_);
  ptme_.set_executor(timed_.get());
}

ParallelTmeSolver::~ParallelTmeSolver() { quiesce(); }

bool ParallelTmeSolver::quiesce() { return fleet_ ? fleet_->quiesce() : true; }

CoulombResult ParallelTmeSolver::compute(std::span<const Vec3> positions,
                                         std::span<const double> charges) const {
  par::TrafficLog log;
  CoulombResult out = ptme_.compute(positions, charges, &log);
  traffic_words_ += log.total_words();
  return out;
}

obs::JsonValue ParallelTmeSolver::describe() const {
  const TmeParams& p = ptme_.serial().params();
  obs::JsonValue d = obs::JsonValue::make_object();
  auto& obj = d.as_object();
  const auto num = [](double v) { return obs::JsonValue::make_number(v); };
  obj["backend"] = obs::JsonValue::make_string(name());
  obj["alpha"] = num(p.alpha);
  obj["order"] = num(p.order);
  obj["grid_x"] = num(static_cast<double>(p.grid.nx));
  obj["grid_y"] = num(static_cast<double>(p.grid.ny));
  obj["grid_z"] = num(static_cast<double>(p.grid.nz));
  obj["levels"] = num(p.levels);
  obj["grid_cutoff"] = num(p.grid_cutoff);
  obj["num_gaussians"] = num(static_cast<double>(p.num_gaussians));
  const hw::TorusTopology& t = ptme_.topology();
  obj["torus"] = obs::JsonValue::make_string(std::to_string(t.nx()) + "x" +
                                             std::to_string(t.ny()) + "x" +
                                             std::to_string(t.nz()));
  obj["executor"] = obs::JsonValue::make_string(fleet_ ? "fleet-proc" : "serial");
  obj["workers"] = num(fleet_ ? static_cast<double>(fleet_->config().workers) : 0.0);
  obj["simd"] = simd::describe_json();
  return d;
}

// --- geometry and set-up ---------------------------------------------------

namespace {

constexpr std::size_t kMolecules = 2048;
constexpr double kRcOverH = 4.011;
constexpr double kErfcAtCutoff = 1e-4;

Geometry geometry_for(const WorkloadSpec& spec, const Box& box) {
  Geometry g;
  g.r_cut = kRcOverH * box.lengths.x / static_cast<double>(spec.grid_n);
  g.alpha = alpha_from_tolerance(g.r_cut, kErfcAtCutoff);
  return g;
}

WaterBox build_box(std::uint64_t seed) {
  WaterBoxSpec spec;
  spec.molecules = kMolecules;
  spec.box_length = 0.0;  // TIP3P liquid density
  spec.temperature = 300.0;
  spec.seed = seed;
  return build_water_box(spec);
}

ShortRangeParams short_range_params_for(const Geometry& g) {
  ShortRangeParams sr;
  sr.cutoff = g.r_cut;
  sr.alpha = g.alpha;
  sr.shift_lj = true;
  sr.kernel = CoulombKernel::kTabulated;
  return sr;
}

}  // namespace

TmeParams tme_params_for(const WorkloadSpec& spec, const Geometry& g) {
  TmeParams p;
  p.alpha = g.alpha;
  p.order = 6;
  p.grid = {spec.grid_n, spec.grid_n, spec.grid_n};
  p.levels = spec.levels;
  p.grid_cutoff = 8;
  p.num_gaussians = 4;
  return p;
}

Setup::Setup(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(&spec), wb_(build_box(seed)), geom_(geometry_for(spec, wb_.system.box)) {
  const Box& box = wb_.system.box;
  const TmeParams tp = tme_params_for(spec, geom_);
  std::unique_ptr<LongRangeSolver> solver;
  if (spec.fleet) {
    auto ptme = std::make_unique<ParallelTmeSolver>(box, tp, hw::TorusTopology(2, 2, 1), 2);
    par_ = ptme.get();
    solver = std::move(ptme);
  } else {
    SolverTuning t;
    t.alpha = tp.alpha;
    t.grid = tp.grid;
    t.order = tp.order;
    t.levels = tp.levels;
    t.grid_cutoff = tp.grid_cutoff;
    t.num_gaussians = tp.num_gaussians;
    solver = make_long_range_solver(spec.backend, box, t);
  }
  ff_ = std::make_unique<ForceField>(short_range_params_for(geom_), std::move(solver));
  vv_ = std::make_unique<VelocityVerlet>(wb_.topology, wb_.system, IntegratorParams{});
  vv_->prime(wb_.system, wb_.topology, *ff_);
}

// --- accuracy --------------------------------------------------------------

double table1_force_error(const ParticleSystem& system, const CoulombResult& lr,
                          double alpha, double r_cut) {
  const std::size_t n = system.size();
  EwaldParams ref_params;
  ref_params.alpha = alpha_from_tolerance(0.5 * system.box.lengths.x, 1e-15);
  const CoulombResult reference =
      ewald_reference(system.box, system.positions, system.charges, ref_params);

  // Total Coulomb = long range + erfc short range over every pair (the
  // reference has no exclusions, so neither does this sum).
  ParticleSystem sys;
  sys.box = system.box;
  sys.resize(n);
  sys.positions = system.positions;
  sys.charges = system.charges;
  sys.forces.assign(n, Vec3{});
  Topology topo;
  topo.lj().assign(n, LjParams{});
  topo.finalize(n);
  ShortRangeParams params;
  params.cutoff = r_cut;
  params.alpha = alpha;
  compute_short_range(sys, topo, params);
  CoulombResult total = lr;
  for (std::size_t i = 0; i < n; ++i) total.forces[i] += sys.forces[i];
  return total.relative_force_error_against(reference);
}

bool bitwise_equal(const CoulombResult& a, const CoulombResult& b) {
  if (!(a.energy == b.energy) || a.forces.size() != b.forces.size()) return false;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    if (!(a.forces[i].x == b.forces[i].x && a.forces[i].y == b.forces[i].y &&
          a.forces[i].z == b.forces[i].z)) {
      return false;
    }
  }
  return true;
}

}  // namespace stepbench
