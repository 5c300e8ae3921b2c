// Step benchmark: host wall-clock per MD step of SETTLE TIP3P water NVE.
//
//   step_bench --workload water-tme-fine --seed 1 --seconds 30 --trace 0
//
// --trace 0 times VelocityVerlet::step from outside over a window of
// --seconds (after untimed warm-up steps) and reports the end-to-end
// metrics: step_ms_p50/p90, ns_per_day, setup_s (median of kSetups full
// set-ups, spread over the window), peak_rss_mb, force_rel_err (Table-1
// error against classical Ewald on the start frame) and step_ok_frac
// (1 - failed steps / attempted).
//
// --trace 1 alternates untraced steps with TracedStepper replays of the
// same step and reports the per-layer means per traced step, plus the
// tracing overhead.  --trace-out <path> writes the traced spans as a
// Chrome/Perfetto timeline.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (whether or not it was correct).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "workload.hpp"

namespace {

using namespace tme;
using namespace stepbench;
using Clock = std::chrono::steady_clock;

// Largest SETTLE constraint violation a good step may leave (nm).
constexpr double kMaxViolationNm = 1e-8;
// NVE drift gate, as in the solver-matrix tier: the least-squares change of
// the total energy over the run may not exceed 1% of the kinetic energy plus
// 1 kJ/mol.  A fresh lattice box heats strongly in its first tens of steps
// (potential energy turns into kinetic), which this gate tolerates; a wrong
// force does not stay within it.
constexpr double kDriftKineticFraction = 0.01;
constexpr double kDriftFloor = 1.0;  // kJ/mol
constexpr int kWarmupSteps = 3;
constexpr int kSetups = 11;
// Table-1 force error gate: the solver-matrix tier's TME gate, for both
// backends.  At r_c = 4.011 h on the 32^3 grid (r_c = 0.50 nm) the erfc
// truncation alone leaves ~2.6e-3, so SPME cannot meet its own 5e-4
// solver-matrix gate there (RATIONALE.md).
constexpr double kForceErrorGate = 5e-3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Least-squares slope of y against x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  return den > 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

// Peak resident set of this (coordinator) process.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

// Largest peak resident set among reaped child processes (fleet workers).
double children_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Fleet counters that mark a step as failed when they grow.
struct FleetMarks {
  std::uint64_t deaths = 0, retransmissions = 0;
};
FleetMarks fleet_marks(const Setup& s) {
  FleetMarks m;
  if (const ParallelTmeSolver* p = s.parallel_solver(); p != nullptr && p->fleet() != nullptr) {
    m.deaths = p->fleet()->stats().worker_deaths;
    m.retransmissions = p->fleet()->stats().retransmissions;
  }
  return m;
}

bool finite(const StepReport& r, const ParticleSystem& system) {
  if (!std::isfinite(r.total())) return false;
  for (const Vec3& f : system.forces) {
    if (!std::isfinite(f.x) || !std::isfinite(f.y) || !std::isfinite(f.z)) return false;
  }
  return true;
}

// Per-step record of a run: energies for the drift gate, failure counts.
struct StepLog {
  std::vector<double> time_ps;
  std::vector<double> energy;
  std::vector<double> kinetic;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double max_violation = 0.0;
};

// Runs one step through `fn`, applies the per-step failure checks, logs it,
// and returns its wall time.
template <typename StepFn>
double run_step(Setup& setup, StepLog& log, std::size_t index, StepFn&& fn) {
  const FleetMarks before = fleet_marks(setup);
  const Clock::time_point t0 = Clock::now();
  bool third_law_ok = true;
  const StepReport r = fn(third_law_ok);
  const double wall = seconds_since(t0);
  const FleetMarks after = fleet_marks(setup);
  const ParticleSystem& system = setup.water().system;
  const double violation =
      setup.integrator().constraints().max_violation(system.box, system.positions);
  log.max_violation = std::max(log.max_violation, violation);
  const bool ok = finite(r, system) && violation <= kMaxViolationNm && third_law_ok &&
                  after.deaths == before.deaths &&
                  after.retransmissions == before.retransmissions;
  ++log.attempted;
  if (!ok) ++log.failed;
  log.time_ps.push_back(static_cast<double>(index) * setup.integrator().params().dt);
  log.energy.push_back(r.total());
  log.kinetic.push_back(r.kinetic);
  return wall;
}

// Newton's-third-law check of the short-range engine on the current frame
// (the untraced step keeps its ShortRangeResult to itself).
bool third_law_now(Setup& setup) {
  ParticleSystem copy = setup.water().system;
  copy.forces.assign(copy.size(), Vec3{});
  return setup.forcefield().short_range_engine().compute(copy, setup.water().topology).third_law_ok;
}

obs::JsonValue metric(double value, const char* unit) {
  obs::JsonValue m = obs::JsonValue::make_object();
  m.as_object()["value"] = obs::JsonValue::make_number(value);
  m.as_object()["unit"] = obs::JsonValue::make_string(unit);
  return m;
}

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  obs::JsonValue metrics = obs::JsonValue::make_object();

  void add(const std::string& name, double value, const char* unit) {
    metrics.as_object()[name] = metric(value, unit);
    std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit);
  }
  void require(bool ok, const char* what) {
    std::printf("  check %-44s %s\n", what, ok ? "ok" : "FAILED");
    correct = correct && ok;
  }
};

// Fitted total-energy change over the run, as a share of the drift gate
// (<= 1 passes).
double drift_vs_gate(const StepLog& log) {
  const double span_ps = log.time_ps.back() - log.time_ps.front();
  const double change = std::abs(slope(log.time_ps, log.energy)) * span_ps;
  double kinetic = 0.0;
  for (const double k : log.kinetic) kinetic += k;
  kinetic /= static_cast<double>(log.kinetic.size());
  std::printf("  NVE drift: total energy changed %.3g kJ/mol over %.3f ps (mean kinetic %.4g)\n",
              change, span_ps, kinetic);
  return change / (kDriftKineticFraction * kinetic + kDriftFloor);
}

// The timed window is cut into kSetups slices, and a fresh set-up is built
// (and timed) before each one, so the set-up samples spread over the run
// like the step samples do instead of sharing one moment's machine load.
// The trajectory carries over from one set-up to the next (same box, same
// parameters, so the same forces), keeping one continuous NVE run.
Outcome run_untraced(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  bool quiesced = true;
  const auto retire = [&] {
    if (ParallelTmeSolver* p = setup->parallel_solver(); p != nullptr) {
      quiesced = p->quiesce() && quiesced;
    }
    setup.reset();
  };
  StepLog log;
  std::size_t index = 0;
  const auto step = [&](bool&) { return setup->step(); };
  std::vector<double> timed;
  double window_s = 0.0;
  double force_err = 0.0;
  for (int k = 0; k < kSetups; ++k) {
    ParticleSystem state;
    if (setup) {
      state = setup->water().system;
      retire();
    }
    const Clock::time_point t0 = Clock::now();
    setup = std::make_unique<Setup>(spec, seed);
    setup_s.push_back(seconds_since(t0));
    if (k > 0) {
      setup->water().system = std::move(state);
    } else {
      obs::manifest_set("solver", setup->forcefield().long_range().describe());
      // Start-frame accuracy, outside both set-up and the timed window.
      const ParticleSystem& system = setup->water().system;
      const Clock::time_point t_err = Clock::now();
      force_err = table1_force_error(
          system, setup->forcefield().long_range().compute(system.positions, system.charges),
          setup->geometry().alpha, setup->geometry().r_cut);
      std::printf("  force_rel_err computed in %.2f s\n", seconds_since(t_err));
      out.require(force_err <= kForceErrorGate, "force_rel_err within gate");
      if (spec.fleet) {
        out.require(fleet_matches_inline(*setup), "fleet forces == inline ParallelTme");
      }
      out.require(third_law_now(*setup), "third law on start frame");
      for (int w = 0; w < kWarmupSteps; ++w) run_step(*setup, log, ++index, step);
    }
    const double slice_end = seconds * static_cast<double>(k + 1) / kSetups;
    const Clock::time_point slice = Clock::now();
    while (window_s + seconds_since(slice) < slice_end) {
      timed.push_back(run_step(*setup, log, ++index, step));
    }
    window_s += seconds_since(slice);
  }
  out.require(third_law_now(*setup), "third law on final frame");
  std::printf("  %zu timed steps in %.2f s; max SETTLE violation %.3g nm\n", timed.size(),
              window_s, log.max_violation);
  out.require(drift_vs_gate(log) <= 1.0, "NVE energy drift within gate");
  retire();
  if (spec.fleet) out.require(quiesced, "every fleet quiesced cleanly");

  out.attempted = log.attempted;
  out.failed = log.failed;
  const double steps = static_cast<double>(timed.size());
  out.add("step_ms_p50", quantile(timed, 0.5) * 1e3, "ms");
  out.add("step_ms_p90", quantile(timed, 0.9) * 1e3, "ms");
  out.add("ns_per_day", steps * 1e-6 / window_s * 86400.0, "ns/day");
  out.add("setup_s", quantile(setup_s, 0.5), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("force_rel_err", force_err, "1");
  // 1 - failed/attempted: the failure fraction, reported so that a clean
  // run reads 1 rather than 0 (a zero median has no relative spread).
  out.add("step_ok_frac",
          1.0 - static_cast<double>(log.failed) / static_cast<double>(log.attempted), "1");
  return out;
}

// Per-step deltas of the par layer's counters, summed over traced steps.
struct ParTally {
  double ca_s = 0.0, grid_s = 0.0, bi_s = 0.0, replay_s = 0.0;
  double tasks = 0.0, words = 0.0, messages = 0.0, bytes_sent = 0.0, bytes_received = 0.0;
  double retransmissions = 0.0, deaths = 0.0;

  void begin(ParallelTmeSolver& p) {
    p.timed_executor().reset_times();
    p.timed_executor().set_recording(true);
    words0_ = p.traffic_words();
    if (p.fleet() != nullptr) {
      ts0_ = p.fleet()->transport_stats();
      fs0_ = p.fleet()->stats();
    }
  }

  // Also replays the step's tasks through `serial` (the wire-overhead
  // baseline), outside the step's wall time.
  void end(ParallelTmeSolver& p, par::NodeExecutor& serial) {
    TimedExecutor& te = p.timed_executor();
    te.set_recording(false);
    ca_s += te.times().ca_s;
    grid_s += te.times().grid_s;
    bi_s += te.times().bi_s;
    tasks += static_cast<double>(te.times().tasks);
    replay_s += te.replay(serial);
    words += static_cast<double>(p.traffic_words() - words0_);
    if (p.fleet() == nullptr) return;
    const par::TransportStats& ts = p.fleet()->transport_stats();
    const par::FleetStats& fs = p.fleet()->stats();
    messages += static_cast<double>(ts.messages_sent - ts0_.messages_sent +
                                    ts.messages_received - ts0_.messages_received);
    bytes_sent += static_cast<double>(ts.bytes_sent - ts0_.bytes_sent);
    bytes_received += static_cast<double>(ts.bytes_received - ts0_.bytes_received);
    retransmissions += static_cast<double>(fs.retransmissions - fs0_.retransmissions);
    deaths += static_cast<double>(fs.worker_deaths - fs0_.worker_deaths);
  }

 private:
  std::size_t words0_ = 0;
  par::TransportStats ts0_;
  par::FleetStats fs0_;
};

Outcome run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                   const std::string& trace_out) {
  Outcome out;
  auto setup = std::make_unique<Setup>(spec, seed);
  obs::manifest_set("solver", setup->forcefield().long_range().describe());
  const TracedStepper traced(*setup);

  const Fidelity fid = check_fidelity(*setup, traced);
  if (!spec.fleet) out.require(fid.chain_bitwise, "stage chain == solver (bitwise)");
  out.require(fid.step_bitwise, "traced step == VelocityVerlet::step (bitwise)");
  if (spec.fleet) out.require(fleet_matches_inline(*setup), "fleet forces == inline ParallelTme");

  ParallelTmeSolver* par = setup->parallel_solver();
  std::unique_ptr<par::SerialExecutor> serial;
  if (par != nullptr) serial = std::make_unique<par::SerialExecutor>(par->parallel().context());

  Spans spans;
  StepLog log;
  ParTally tally;
  std::size_t index = 1;  // check_fidelity took one step
  std::vector<double> plain_s, traced_s;
  double pairs = 0.0;
  const auto plain = [&](bool&) { return setup->step(); };
  const auto traced_step = [&](bool& third_law_ok) {
    ShortRangeResult sr;
    const StepReport r = traced.step(spans, &sr);
    third_law_ok = sr.third_law_ok;
    pairs += static_cast<double>(sr.pair_count);
    return r;
  };
  for (int w = 0; w < kWarmupSteps; ++w) run_step(*setup, log, ++index, plain);

  // Untraced and traced steps alternate, so both see the same machine load.
  obs::Tracer& tracer = obs::Tracer::global();
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 0; seconds_since(window) < seconds || traced_s.empty(); ++i) {
    if (i % 2 == 0) {
      plain_s.push_back(run_step(*setup, log, ++index, plain));
      continue;
    }
    if (par != nullptr) tally.begin(*par);
    tracer.set_enabled(obs::kTraceEnabled);
    traced_s.push_back(run_step(*setup, log, ++index, traced_step));
    tracer.set_enabled(false);
    if (par != nullptr) tally.end(*par, *serial);
  }
  std::printf("  %zu traced + %zu untraced steps; max SETTLE violation %.3g nm\n",
              traced_s.size(), plain_s.size(), log.max_violation);
  out.require(drift_vs_gate(log) <= 1.0, "NVE energy drift within gate");
  const bool fleet = par != nullptr && par->fleet() != nullptr;
  if (par != nullptr) out.require(par->quiesce(), "fleet quiesced cleanly");
  serial.reset();
  setup.reset();  // reaps the workers, so their peak RSS is visible below
  if (!trace_out.empty() && obs::kTraceEnabled) {
    out.require(tracer.write(trace_out), "trace written");
    std::printf("  trace: %s (%zu events, %zu dropped)\n", trace_out.c_str(),
                tracer.event_count(), tracer.dropped_count());
  }

  out.attempted = log.attempted;
  out.failed = log.failed;
  const double n = static_cast<double>(traced_s.size());
  const auto ms = [&](const char* span) { return spans.seconds(span) / n * 1e3; };
  const auto per_step = [&](double total) { return total / n; };
  const double step_ms = ms("md.step");
  const double sr_ms = ms("md.short_range");
  const double lr_ms = ms("ewald.long_range");
  const double children = ms("md.integrate") + ms("md.settle") + sr_ms + ms("md.bonded") +
                          lr_ms + ms("md.exclusion");
  out.add("md.step_ms", step_ms, "ms");
  out.add("md.force_eval_ms", ms("md.force_eval"), "ms");
  out.add("md.short_range_ms", sr_ms, "ms");
  out.add("md.short_range_share", sr_ms / step_ms, "1");
  out.add("md.short_range_pairs", per_step(pairs), "count");
  out.add("md.short_range_pairs_per_s", per_step(pairs) / (sr_ms * 1e-3), "1/s");
  out.add("md.bonded_ms", ms("md.bonded"), "ms");
  out.add("md.exclusion_ms", ms("md.exclusion"), "ms");
  out.add("md.settle_ms", ms("md.settle"), "ms");
  out.add("md.integrate_ms", ms("md.integrate"), "ms");
  out.add("md.unattributed_ms", step_ms - children, "ms");
  out.add("ewald.long_range_ms", lr_ms, "ms");
  out.add("ewald.long_range_share", lr_ms / step_ms, "1");
  out.add("ewald.charge_assign_ms", ms("ewald.charge_assign"), "ms");
  out.add("ewald.back_interp_ms", ms("ewald.back_interp"), "ms");
  out.add("ewald.grid_solve_ms", ms("ewald.grid_solve"), "ms");
  const double pipeline = ms("core.pipeline");
  const double stages = ms("grid.restrict") + ms("ewald.grid_solve") + ms("grid.prolong") +
                        ms("grid.convolve_l1") + ms("grid.convolve_l2");
  out.add("core.pipeline_ms", pipeline, "ms");
  out.add("core.pipeline_share", pipeline / step_ms, "1");
  out.add("core.top_solve_ms", pipeline > 0.0 ? ms("ewald.grid_solve") : 0.0, "ms");
  out.add("core.stage_coverage", pipeline > 0.0 ? stages / pipeline : 0.0, "1");
  out.add("grid.restrict_ms", ms("grid.restrict"), "ms");
  out.add("grid.prolong_ms", ms("grid.prolong"), "ms");
  out.add("grid.convolve_l1_ms", ms("grid.convolve_l1"), "ms");
  out.add("grid.convolve_l2_ms", ms("grid.convolve_l2"), "ms");
  out.add("fft.transform_ms", ms("fft.transform"), "ms");
  const double par_ms = ms("par.compute");
  const double exec_ms = per_step(tally.ca_s + tally.grid_s + tally.bi_s) * 1e3;
  out.add("par.compute_ms", par_ms, "ms");
  out.add("par.exec_ca_ms", per_step(tally.ca_s) * 1e3, "ms");
  out.add("par.exec_grid_ms", per_step(tally.grid_s) * 1e3, "ms");
  out.add("par.exec_bi_ms", per_step(tally.bi_s) * 1e3, "ms");
  out.add("par.coordinator_ms", par_ms - exec_ms, "ms");
  out.add("par.wire_overhead_ms", fleet ? exec_ms - per_step(tally.replay_s) * 1e3 : 0.0, "ms");
  out.add("par.tasks", per_step(tally.tasks), "count");
  out.add("par.messages", per_step(tally.messages), "count");
  out.add("par.bytes_sent", per_step(tally.bytes_sent), "bytes");
  out.add("par.bytes_received", per_step(tally.bytes_received), "bytes");
  out.add("par.retransmissions", per_step(tally.retransmissions), "count");
  out.add("par.worker_deaths", per_step(tally.deaths), "count");
  out.add("par.traffic_words", per_step(tally.words), "count");
  out.add("par.worker_peak_rss_mb", fleet ? children_peak_rss_mb() : 0.0, "MB");
  const double plain_p50 = quantile(plain_s, 0.5);
  out.add("trace.overhead_pct", (quantile(traced_s, 0.5) - plain_p50) / plain_p50 * 100.0, "%");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string name = args.get("workload", "water-tme-fine");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 30.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string trace_out = args.get("trace-out", "");

  const WorkloadSpec* spec = nullptr;
  try {
    spec = &find_workload(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step_bench: %s\n", e.what());
    return 2;
  }

  obs::manifest_set("cpu_model", cpu_model());
  obs::manifest_set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  obs::manifest_set("pool_threads", static_cast<double>(global_pool().concurrency()));
  obs::manifest_set("simd", simd::describe_json());
  obs::manifest_set("workload", name);
  obs::manifest_set("seed", static_cast<double>(seed));
  obs::manifest_set("seconds", seconds);
  obs::manifest_set("trace", trace ? 1.0 : 0.0);

  std::printf("step_bench: workload %s, seed %llu, %.1f s window, %s\n", name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? "traced" : "untraced");
  Outcome out;
  try {
    out = trace ? run_traced(*spec, seed, seconds, trace_out)
                : run_untraced(*spec, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step_bench: %s\n", e.what());
    return 1;
  }
  std::printf("manifest: %s\n", obs::manifest_json().dump().c_str());

  obs::JsonValue result = obs::JsonValue::make_object();
  auto& obj = result.as_object();
  obj["correct"] = obs::JsonValue::make_bool(out.correct);
  obj["attempted"] = obs::JsonValue::make_number(static_cast<double>(out.attempted));
  obj["failed"] = obs::JsonValue::make_number(static_cast<double>(out.failed));
  obj["metrics"] = std::move(out.metrics);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
