// Degraded-machine bench and fault-injection soak.
//
// Three sweeps over the fault model, with recovery invariants asserted along
// the way (non-zero exit on any violation — CI runs this as the fault soak):
//
//   A. Partition soak: seeded dead-node draws on the full 8x8x8 torus must
//      never cut an alive node off from the surviving partition.
//   B. Machine makespan sweep: single-step makespan and retry counts vs
//      link-error rate x dead-node count (the degraded-machine recipe in
//      EXPERIMENTS.md).
//   C. Distributed TME degradation: forces must stay bitwise identical to the
//      fault-free run while retry/redistribution traffic grows with the
//      error rate.
//   D. SDC detection coverage: seeded compute bit flips through the guarded
//      pipeline; significant corruptions must be detected at or above the
//      coverage floor with zero false positives at rate 0 (exit-code
//      invariant — timing never gates).
//
// Writes BENCH_faults.json with the makespan, traffic-overhead and
// detection-coverage gauges.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ewald/splitting.hpp"
#include "hw/fault.hpp"
#include "hw/machine.hpp"
#include "hw/sdc_guard.hpp"
#include "hw/network_model.hpp"
#include "hw/torus.hpp"
#include "par/fleet.hpp"
#include "par/par_tme.hpp"
#include "par/traffic.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

#include "common.hpp"

namespace {

int g_violations = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_violations;
    std::printf("  [VIOLATION] %s\n", what.c_str());
  }
}

std::string gauge_name(const std::string& stem, double rate, std::size_t dead) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/r%.0e_d%zu", stem.c_str(), rate, dead);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tme;
  using namespace tme::hw;
  const Args args(argc, argv);
  const int soak_seeds = args.get_int("soak-seeds", 8);
  const std::string trace_path = bench::begin_trace(args, "faults");

  obs::Registry::global().reset();
  auto& reg = obs::Registry::global();

  // --- A: partition soak on the full machine --------------------------------
  bench::print_header(
      "A: dead-node partition soak (8x8x8, seeded draws; invariant: zero "
      "unreachable partitions)");
  const TorusTopology torus(8, 8, 8);
  std::size_t soak_runs = 0;
  for (int seed = 1; seed <= soak_seeds; ++seed) {
    for (const std::size_t dead : {1u, 4u, 16u, 32u, 64u}) {
      FaultConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(seed);
      FaultInjector faults(cfg);
      faults.kill_random_nodes(dead, torus.node_count());
      const PartitionReport report = torus.partition_report(faults);
      check(report.unreachable.empty(),
            "seed " + std::to_string(seed) + ", " + std::to_string(dead) +
                " dead nodes: " + std::to_string(report.unreachable.size()) +
                " alive nodes unreachable");
      check(report.alive + report.dead.size() == torus.node_count(),
            "partition report does not account for every node");
      ++soak_runs;
    }
  }
  std::printf("  %zu seeded draws up to 64/512 dead nodes: %s\n", soak_runs,
              g_violations == 0 ? "all partitions intact" : "violations above");
  reg.gauge_set("faults/soak/runs", static_cast<double>(soak_runs));

  // --- A2: link-error recovery invariant ------------------------------------
  bench::print_header(
      "A2: CRC/retry recovery (invariant: every transfer delivered within "
      "the retry budget)");
  const NetworkParams nw;
  std::printf("  %-12s %14s %14s %16s\n", "error rate", "transfers",
              "retransmits", "time overhead");
  for (const double rate : {1e-5, 1e-4, 1e-3, 1e-2}) {
    FaultConfig cfg;
    cfg.link_error_rate = rate;
    FaultInjector faults(cfg);
    const int transfers = 2000;
    double faulty_time = 0.0;
    std::uint64_t attempts = 0;
    for (int i = 0; i < transfers; ++i) {
      const TransferOutcome out = transfer_with_faults(nw, 4096, 3, faults);
      check(out.delivered, "transfer dropped at rate " + std::to_string(rate));
      faulty_time += out.time_s;
      attempts += static_cast<std::uint64_t>(out.attempts);
    }
    const double clean_time = transfers * transfer_time(nw, 4096, 3);
    const double overhead = faulty_time / clean_time - 1.0;
    std::printf("  %-12.0e %14d %14llu %15.2f%%\n", rate, transfers,
                static_cast<unsigned long long>(attempts - transfers),
                overhead * 100.0);
    reg.gauge_set(gauge_name("faults/network/retry_time_overhead", rate, 0),
                  overhead);
  }

  // --- B: degraded-machine makespan sweep -----------------------------------
  bench::print_header(
      "B: single-step makespan vs link-error rate x dead nodes (80,540 "
      "atoms, 512 nodes)");
  const MdgrapeMachine machine;
  const auto fault_seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 11));
  StepConfig healthy;
  const StepTimings base = machine.simulate_step(healthy);
  std::printf("  %-12s %-6s %14s %12s %10s\n", "error rate", "dead",
              "makespan (us)", "slowdown", "retries");
  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    for (const std::size_t dead : {0u, 1u, 4u}) {
      StepConfig cfg;
      cfg.link_error_rate = rate;
      cfg.dead_node_count = dead;
      cfg.fault_seed = fault_seed;
      const StepTimings t = machine.simulate_step(cfg);
      check(t.step_time >= base.step_time,
            "degraded makespan below the healthy baseline");
      check(t.tasks_given_up == 0, "a machine task exhausted its retries");
      check(t.dead_nodes == dead, "dead-node count not reflected in timings");
      std::printf("  %-12.0e %-6zu %14.2f %11.3fx %10llu\n", rate, dead,
                  t.step_time * 1e6, t.step_time / base.step_time,
                  static_cast<unsigned long long>(t.task_retries));
      reg.gauge_set(gauge_name("faults/machine/makespan_us", rate, dead),
                    t.step_time * 1e6);
      reg.gauge_set(gauge_name("faults/machine/task_retries", rate, dead),
                    static_cast<double>(t.task_retries));
    }
  }

  // --- C: distributed TME under faults --------------------------------------
  bench::print_header(
      "C: parallel TME with one dead node (invariant: forces bitwise equal "
      "to the fault-free run)");
  const std::size_t atoms = 400;
  const double box_length = 6.4;
  Rng rng(7);
  Box box;
  box.lengths = {box_length, box_length, box_length};
  std::vector<Vec3> positions(atoms);
  std::vector<double> charges(atoms);
  double total_q = 0.0;
  for (std::size_t i = 0; i < atoms; ++i) {
    positions[i] = {rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                    rng.uniform(0.0, box_length)};
    charges[i] = rng.uniform(-1.0, 1.0);
    total_q += charges[i];
  }
  for (double& q : charges) q -= total_q / static_cast<double>(atoms);

  TmeParams tp;
  tp.alpha = alpha_from_tolerance(0.8, 1e-4);
  tp.grid = {32, 32, 32};
  tp.levels = 1;
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  const TorusTopology small(2, 2, 2);

  par::ParallelTme clean_tme(box, tp, small);
  par::TrafficLog clean_log;
  const CoulombResult clean = clean_tme.compute(positions, charges, &clean_log);

  std::printf("  %-12s %16s %18s %14s\n", "error rate", "retrans. words",
              "traffic overhead", "forces");
  for (const double rate : {1e-4, 1e-3, 1e-2}) {
    FaultConfig cfg;
    cfg.seed = 2021;
    cfg.link_error_rate = rate;
    FaultInjector faults(cfg);
    faults.kill_random_nodes(1, small.node_count());

    par::ParallelTme degraded(box, tp, small);
    degraded.set_fault_injector(&faults);
    par::TrafficLog log;
    const CoulombResult result = degraded.compute(positions, charges, &log);

    bool identical = result.energy == clean.energy;
    for (std::size_t i = 0; identical && i < atoms; ++i) {
      identical = result.forces[i].x == clean.forces[i].x &&
                  result.forces[i].y == clean.forces[i].y &&
                  result.forces[i].z == clean.forces[i].z;
    }
    check(identical, "degraded forces differ from the fault-free run");

    const std::size_t retrans = log.words_in("fault retransmission");
    const double overhead = static_cast<double>(log.total_words()) /
                                static_cast<double>(clean_log.total_words()) -
                            1.0;
    std::printf("  %-12.0e %16zu %17.2f%% %14s\n", rate, retrans,
                overhead * 100.0, identical ? "bitwise equal" : "DIVERGED");
    reg.gauge_set(gauge_name("faults/par_tme/retrans_words", rate, 1),
                  static_cast<double>(retrans));
    reg.gauge_set(gauge_name("faults/par_tme/traffic_overhead", rate, 1),
                  overhead);
  }

  // --- D: SDC detection coverage + recompute overhead ------------------------
  bench::print_header(
      "D: ABFT detection coverage vs SDC rate (invariant: significant "
      "corruptions detected at >= 70%, zero false positives at rate 0)");
  std::printf("  %-12s %8s %12s %12s %10s %12s\n", "sdc rate", "flips",
              "significant", "detected", "coverage", "recomputes");
  for (const double sdc_rate : {0.0, 1e-7, 1e-6, 1e-5, 1e-4}) {
    std::size_t flips = 0;
    std::size_t significant = 0;
    std::size_t detected = 0;
    std::size_t recomputes = 0;
    std::size_t unrecovered = 0;
    std::size_t clean_violations = 0;
    const int sweeps = 12;
    for (int seed = 1; seed <= sweeps; ++seed) {
      FaultConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(seed);
      cfg.sdc_rate = sdc_rate;
      FaultInjector faults(cfg);
      GuardedTmePipeline pipeline(box, tp, GuardedTmeConfig{}, &faults);
      GuardedTmeReport rep;
      (void)pipeline.compute(positions, charges, &rep);
      flips += faults.injected_sdc();
      recomputes += rep.stage_recomputes;
      if (!rep.recovered) ++unrecovered;
      if (sdc_rate == 0.0) {
        clean_violations += rep.violations;
        continue;
      }
      // A flip counts against the coverage floor only when (a) it hit a
      // stage with an exact conservation checksum — charge assignment (0)
      // or the tensor convolution (4); the FPGA Parseval and BI envelope
      // checks are documented partial detectors — and (b) it moved the
      // operand by more than the quantisation-noise floor every stage
      // tolerance must admit.
      bool any_significant = false;
      for (const SdcEvent& e : faults.sdc_events()) {
        if (e.stage != 0 && e.stage != 4) continue;
        const double delta = std::abs(e.after - e.before);
        if (!std::isfinite(e.after) || delta > 0.1) {
          any_significant = true;
          break;
        }
      }
      if (any_significant) {
        ++significant;
        if (rep.violations > 0) ++detected;
      }
    }
    const double coverage =
        significant == 0
            ? 1.0
            : static_cast<double>(detected) / static_cast<double>(significant);
    if (sdc_rate == 0.0) {
      check(clean_violations == 0, "ABFT false positives in a fault-free run");
    } else if (significant > 0) {
      check(coverage >= 0.7, "detection coverage below floor at rate " +
                                 std::to_string(sdc_rate));
    }
    check(unrecovered == 0, "localized recompute failed to repair a run");
    std::printf("  %-12.0e %8zu %12zu %12zu %9.0f%% %12zu\n", sdc_rate, flips,
                significant, detected, coverage * 100.0, recomputes);
    reg.gauge_set(gauge_name("faults/sdc/coverage", sdc_rate, 0), coverage);
    reg.gauge_set(gauge_name("faults/sdc/recomputes", sdc_rate, 0),
                  static_cast<double>(recomputes));
    reg.gauge_set(gauge_name("faults/sdc/flips", sdc_rate, 0),
                  static_cast<double>(flips));
  }

  // --- E: real worker transport ----------------------------------------------
  bench::print_header(
      "E: worker processes (invariant: worker-farm forces bitwise "
      "equal to serial, including after a mid-run worker kill)");
  {
    auto fleet_forces_match = [&](const CoulombResult& r) {
      bool identical = r.energy == clean.energy;
      for (std::size_t i = 0; identical && i < atoms; ++i) {
        identical = r.forces[i].x == clean.forces[i].x &&
                    r.forces[i].y == clean.forces[i].y &&
                    r.forces[i].z == clean.forces[i].z;
      }
      return identical;
    };
    auto timed_fleet_run = [&](const char* label, par::FleetConfig fcfg,
                               par::FleetStats* stats_out) {
      par::ParallelTme tme(box, tp, small);
      par::WorkerFleet fleet(tme.context(), tme.topology(), std::move(fcfg));
      tme.set_executor(&fleet);
      par::TrafficLog log;
      const auto t0 = std::chrono::steady_clock::now();
      const CoulombResult r = tme.compute(positions, charges, &log);
      const auto t1 = std::chrono::steady_clock::now();
      const double seconds = std::chrono::duration<double>(t1 - t0).count();
      check(fleet_forces_match(r),
            std::string(label) + " forces differ from the serial run");
      if (stats_out != nullptr) *stats_out = fleet.stats();
      return seconds;
    };

    std::printf("  %-10s %10s %12s %14s %8s %9s\n", "fleet", "workers",
                "time (ms)", "tasks/s", "deaths", "respawns");
    const std::size_t farm = 4;
    par::FleetConfig fcfg;
    fcfg.workers = farm;
    par::FleetStats stats;
    const double seconds = timed_fleet_run("proc", fcfg, &stats);
    const double tasks_per_s = static_cast<double>(stats.tasks_sent) / seconds;
    std::printf("  %-10s %10zu %12.1f %14.0f %8llu %9llu\n", "proc", farm,
                seconds * 1e3, tasks_per_s,
                static_cast<unsigned long long>(stats.worker_deaths),
                static_cast<unsigned long long>(stats.respawns));
    check(stats.worker_deaths == 0, "healthy fleet run lost a worker");
    reg.gauge_set("faults/transport/proc/time_ms", seconds * 1e3);
    reg.gauge_set("faults/transport/proc/tasks_per_s", tasks_per_s);

    // Recovery drill: one real process worker SIGKILLs itself mid-run and is
    // restarted from the CRC-sealed context checkpoint.
    par::FleetConfig kill_cfg;
    kill_cfg.workers = farm;
    kill_cfg.context_path = "bench_faults_worker.ctx";
    kill_cfg.worker_faults.resize(farm);
    kill_cfg.worker_faults[1].crash_after_tasks = 8;
    par::FleetStats kill_stats;
    const double kill_seconds = timed_fleet_run("kill-drill", kill_cfg,
                                                &kill_stats);
    std::remove(kill_cfg.context_path.c_str());
    check(kill_stats.worker_deaths >= 1, "kill drill never killed a worker");
    check(kill_stats.respawns >= 1, "killed worker was never respawned");
    std::printf("  kill drill: %.1f ms, %llu deaths, %llu respawns, %llu "
                "tasks re-homed\n",
                kill_seconds * 1e3,
                static_cast<unsigned long long>(kill_stats.worker_deaths),
                static_cast<unsigned long long>(kill_stats.respawns),
                static_cast<unsigned long long>(kill_stats.rehomed_tasks));
    reg.gauge_set("faults/transport/kill_drill/time_ms", kill_seconds * 1e3);
    reg.gauge_set("faults/transport/kill_drill/deaths",
                  static_cast<double>(kill_stats.worker_deaths));
    reg.gauge_set("faults/transport/kill_drill/respawns",
                  static_cast<double>(kill_stats.respawns));
  }

  bench::print_header("verdict");
  std::printf("  recovery invariants: %s (%d violations)\n",
              g_violations == 0 ? "PASS" : "FAIL", g_violations);

  bench::emit_metrics("faults");
  bench::finish_trace(trace_path);
  return g_violations == 0 ? 0 : 1;
}
