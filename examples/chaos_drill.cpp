// Seeded chaos drill for CI and for the EXPERIMENTS.md recipe.
//
// Three modes over the src/chaos harness:
//
//   survive (default)   run a schedule and demand every oracle stays green;
//                       exit 0 only when the run survives.
//   --replay <file>     re-run the schedule recorded in a replay file (the
//                       output of a previous drill or of the shrinker) and
//                       report whether the same verdict reproduces.
//   --shrink            expect the schedule to be LETHAL: shrink it to a
//                       minimal reproducer, write the replay file, and exit 0
//                       only when the minimal schedule still fails with the
//                       original signature.
//
// The schedule comes from --spec <file> (JSON, see chaos/schedule.hpp), from
// the TME_CHAOS_* environment (TME_CHAOS_SURFACES=node,packet,io,... builds
// a seeded random timeline), or defaults to a four-surface survivable mix.
// --out <file> records the realized run as a replay file either way.  An
// unreadable spec file exits 2, a malformed spec exits 2 with the offending
// field named, and a replay file that cannot be written exits 1.  The spec
// is the only way to arm a fault: worker drills ("crash"/"hang"/"delay"),
// packet loss, node/link kills, SDC bursts and checkpoint IO faults all live
// there.
//
// Typical CI invocations:
//   TME_CHAOS_SURFACES=node,packet,worker,io TME_CHAOS_SEED=7 ./chaos_drill
//   ./chaos_drill --spec crash.json  # {"workers":3,"events":[{"step":0,
//                                    #  "a":1,"b":2,"surface":"worker",
//                                    #  "detail":"crash"}]}
//   ./chaos_drill --spec lethal.json --shrink --out repro.json
//   ./chaos_drill --replay repro.json
#include <cstdio>
#include <stdexcept>
#include <string>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/io_shim.hpp"

#ifndef TME_WORKER_BIN
#define TME_WORKER_BIN ""
#endif

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);

  // An unreadable or malformed spec (file, JSON or TME_CHAOS_*) is a usage
  // error: print it and exit 2, before anything runs.
  chaos::ChaosSpec spec;
  const std::string replay_path = args.get("replay", "");
  const std::string spec_path = args.get("spec", "");
  try {
    if (!replay_path.empty()) {
      spec = chaos::read_replay_spec(replay_path);
    } else if (!spec_path.empty()) {
      spec = chaos::spec_from_env(chaos::read_spec_file(spec_path));
    } else {
      // Default: a survivable four-surface composition.
      chaos::ChaosSpec base = chaos::random_spec(
          2021, 8,
          {chaos::Surface::kNode, chaos::Surface::kPacket,
           chaos::Surface::kWorker, chaos::Surface::kIo});
      spec = chaos::spec_from_env(base);
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "chaos_drill: %s\n", e.what());
    return 2;
  }

  chaos::RunnerOptions opts;
  opts.workdir = args.get("workdir", ".");
  opts.worker_bin = args.get("worker-bin", TME_WORKER_BIN);
  opts.verbose = !args.get_flag("quiet");
  const std::string out_path = args.get("out", "");
  // A replay file that cannot be written fails the drill, so a CI job never
  // keeps a missing or torn reproducer as the record of its run.
  const auto write_replay = [&](const chaos::ChaosSpec& s,
                                const chaos::ChaosRunResult& r) {
    try {
      chaos::write_replay_file(out_path, s, r);
      return true;
    } catch (const io::IoError& e) {
      std::fprintf(stderr, "chaos_drill: %s\n", e.what());
      return false;
    }
  };

  // --trace-out <file>: merged fleet timeline (chaos instants + one process
  // track per worker incarnation, surviving mid-run fleet restarts).
  opts.trace_out = args.get("trace-out", "");
  if (!opts.trace_out.empty()) {
    if constexpr (obs::kTraceEnabled) {
      obs::Tracer::global().set_enabled(true);
    } else {
      std::fprintf(stderr, "[--trace-out ignored: tracing compiled out]\n");
    }
  }
  // --status-out <file> [--status-every N]: SIGUSR1 / periodic live-status
  // snapshots with fleet and chaos sections (also TME_STATUS_OUT/_EVERY).
  obs::StatusReporter& status = obs::StatusReporter::global();
  status.configure_from_env();
  const std::string status_path = args.get("status-out", "");
  if (!status_path.empty()) {
    status.set_path(status_path);
    status.arm_signal();
  }
  const int status_every = args.get_int("status-every", 0);
  if (status_every > 0) {
    status.set_every(static_cast<std::uint64_t>(status_every));
  }

  std::printf("chaos drill: seed %llu, %llu steps, %zu atoms, %zu workers, "
              "%zu event(s)\n",
              static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(spec.steps), spec.atoms,
              spec.workers, spec.events.size());

  if (args.get_flag("shrink")) {
    chaos::ShrinkOptions sopts;
    sopts.verbose = opts.verbose;
    sopts.max_runs = args.get_int("max-runs", 64);
    const chaos::ShrinkResult shrunk =
        chaos::shrink_schedule(spec, opts, sopts);
    if (shrunk.signature.empty()) {
      std::printf("verdict: FAIL (schedule survived; nothing to shrink)\n");
      return 1;
    }
    std::printf("shrunk %zu -> %zu event(s), signature %s, %d run(s)\n",
                shrunk.events_before, shrunk.events_after,
                shrunk.signature.c_str(), shrunk.runs);
    if (!out_path.empty()) {
      if (!write_replay(shrunk.spec, shrunk.last_run)) return 1;
      std::printf("minimal reproducer written: %s\n", out_path.c_str());
    }
    return 0;
  }

  chaos::ChaosRunner runner(spec, opts);
  const chaos::ChaosRunResult result = runner.run();
  if (!out_path.empty()) {
    if (!write_replay(spec, result)) return 1;
    std::printf("replay file written: %s\n", out_path.c_str());
  }
  std::printf("  %llu/%llu steps, %llu ckpt writes (%llu refused, %llu "
              "fallbacks), %llu deaths, %llu respawns, %llu retransmissions, "
              "%llu dropped, %llu corrupted, %llu sdc, %llu io faults, max NVE "
              "drift %.2e\n",
              static_cast<unsigned long long>(result.steps_completed),
              static_cast<unsigned long long>(spec.steps),
              static_cast<unsigned long long>(result.checkpoint_writes),
              static_cast<unsigned long long>(result.checkpoint_write_failures),
              static_cast<unsigned long long>(result.checkpoint_fallbacks),
              static_cast<unsigned long long>(result.worker_deaths),
              static_cast<unsigned long long>(result.respawns),
              static_cast<unsigned long long>(result.retransmissions),
              static_cast<unsigned long long>(result.frames_dropped),
              static_cast<unsigned long long>(result.frames_corrupted),
              static_cast<unsigned long long>(result.sdc_injected),
              static_cast<unsigned long long>(result.io_faults_injected),
              result.max_energy_drift);

  if (!replay_path.empty()) {
    // A replay reproduces whatever verdict the file records — for a shrunk
    // reproducer that is the deterministic failure.
    std::printf("replay verdict: %s\n",
                chaos::failure_signature(result).c_str());
    return 0;
  }
  std::printf("verdict: %s\n",
              result.ok
                  ? "PASS (all oracles green)"
                  : ("FAIL (" + chaos::failure_signature(result) + ": " +
                     result.failure_detail + ")")
                        .c_str());
  return result.ok ? 0 : 1;
}
