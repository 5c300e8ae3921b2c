// Cost of chaos: wall-clock overhead of the fault schedule against a clean
// run of the same guarded pipeline.
//
// Three configurations of the same N-step ChaosRunner workload:
//   clean       no events armed — the harness floor (twin + fleet + oracles
//               + rotating durable checkpoints)
//   composed    the CI smoke schedule: worker kill, node kill, packet
//               window, IO fsync window, one SDC burst
//   io-heavy    every checkpoint write under an armed shim (ENOSPC budget,
//               EINTR storms) — bounds the typed-error recovery cost
//
// Reported per configuration: total wall, ms/step, and the realized fault
// counters, so a regression in recovery cost (retransmission storms,
// respawn churn, fallback reads) shows up as ms/step drift between rows.
#include <chrono>
#include <cstdio>
#include <string>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

#include "common.hpp"

#ifndef TME_WORKER_BIN
#define TME_WORKER_BIN ""
#endif

int main(int argc, char** argv) {
  using namespace tme;
  using clock = std::chrono::steady_clock;
  const Args args(argc, argv);

  chaos::RunnerOptions opts;
  opts.workdir = args.get("workdir", ".");
  opts.worker_bin = args.get("worker-bin", TME_WORKER_BIN);

  const std::uint64_t steps =
      static_cast<std::uint64_t>(args.get_int("steps", 6));

  chaos::ChaosSpec clean;
  clean.seed = 2021;
  clean.steps = steps;
  clean.timeout_ms = 400;

  chaos::ChaosSpec composed = clean;
  composed.events.push_back({0, chaos::Surface::kWorker, 0, 0, 0, -1, 0, "kill"});
  composed.events.push_back({1, chaos::Surface::kNode, 0, 0, 1, -1, 0, ""});
  composed.events.push_back(
      {2, chaos::Surface::kPacket, 0.08, 0.05, -1, -1, 4, ""});
  composed.events.push_back({2, chaos::Surface::kIo, 0, 0, -1, -1, 4, "fsync"});
  composed.events.push_back({4, chaos::Surface::kSdc, 1e-5, 0, -1, -1, 0, ""});

  chaos::ChaosSpec io_heavy = clean;
  for (std::uint64_t s = 0; s + 1 < steps; s += 2) {
    io_heavy.events.push_back(
        {s, chaos::Surface::kIo, 0, 0, 256, -1, s + 2, s % 4 == 0 ? "enospc" : "eintr"});
  }

  bench::print_header("chaos harness: fault-schedule overhead");
  std::printf("%-10s %10s %10s %8s %8s %8s %8s %8s\n", "config", "wall ms",
              "ms/step", "deaths", "retrans", "ckptRef", "ioInj", "oracles");

  const auto row = [&](const char* name,
                       const chaos::ChaosSpec& spec) -> double {
    chaos::ChaosRunner runner(spec, opts);
    const auto t0 = clock::now();
    const chaos::ChaosRunResult r = runner.run();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    std::printf("%-10s %10.1f %10.1f %8llu %8llu %8llu %8llu %8s\n", name, ms,
                ms / static_cast<double>(spec.steps),
                static_cast<unsigned long long>(r.worker_deaths),
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.checkpoint_write_failures),
                static_cast<unsigned long long>(r.io_faults_injected),
                r.ok ? "green" : chaos::failure_signature(r).c_str());
    return ms;
  };

  row("clean", clean);
  row("composed", composed);
  row("io-heavy", io_heavy);

  // Telemetry overhead: the same composed schedule with fleet-wide tracing +
  // worker telemetry disarmed vs armed.
  // The runner's force-parity oracle runs in both rows, so a "green" verdict
  // is the forces-bitwise-identical-on/off check; the acceptance bar for
  // the armed row is <= 5% ms/step over the disarmed one.
  if (obs::kTraceEnabled) {
    chaos::ChaosSpec fleet_spec = composed;
    fleet_spec.timeout_ms = 2000;
    obs::Tracer::global().set_enabled(false);
    const double off_ms = row("telem-off", fleet_spec);
    obs::Tracer::global().set_enabled(true);
    const double on_ms = row("telem-on", fleet_spec);
    obs::Tracer::global().set_enabled(false);
    std::printf(
        "telemetry overhead: %+.2f%% ms/step (on %.1f, off %.1f; bar <=5%%)\n",
        (on_ms - off_ms) / off_ms * 100.0,
        on_ms / static_cast<double>(steps),
        off_ms / static_cast<double>(steps));
  }
  return 0;
}
