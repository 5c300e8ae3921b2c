// ChaosRunner: drives one guarded N-step MD run under a ChaosSpec and holds
// it to the repo's correctness oracles.
//
// The run is real SETTLE-constrained TIP3P water from build_water_box
// (spec.atoms / 3 molecules at liquid density), integrated by
// VelocityVerlet through the Simulation step driver (md/simulation).  Its
// long-range forces come from ParallelTme over a 2x2x1 node torus,
// dispatched through a WorkerFleet of worker processes.  The driver
// checkpoints the evolving system on rotation through the durable
// md/checkpoint path, and the scheduled fault events are applied between
// steps.
//
// A *clean twin* — the same water through its own Simulation, with
// ParallelTme on the inline SerialExecutor and no faults armed — runs in
// lockstep.  The oracles, checked every step:
//
//   force-parity        the whole post-step state (positions, velocities,
//                       forces) and the step energies bitwise-equal the
//                       twin's, under composed faults
//   abft-recovery       on SDC-burst steps the guarded pipeline reports
//                       recovered and matches its own clean baseline bitwise
//   guardrail           the driver's guardrail (GuardrailConfig defaults,
//                       abort policy): no NaN, force blow-up or NVE energy
//                       drift beyond tolerance escapes into the trajectory
//   recovery-deadline   every step (including its deaths, respawns and
//                       retransmissions) completes inside step_deadline_ms
//   sigterm-resume      a drained fleet restarts and the driver resumes
//                       from its drain checkpoint bitwise-identically
//   checkpoint-resume   at end of run the newest readable generation matches
//                       the in-memory snapshot of the same step bitwise
//   machine-partition   scheduled node kills must never partition the torus
//
// IO-shim and bit-rot events on the checkpoint path are *expected* to be
// survived via typed CheckpointErrors and generation fallback — they fail a
// run only if the fallback chain is exhausted.  Worker drills ("crash",
// "hang", "delay") set the rank's WorkerFaultPolicy and restart the fleet,
// so the misbehaviour holds for every later incarnation.  The realized
// fault-event log (what actually fired, against which file/rank/step) is
// recorded for the replay file; on oracle failure the run stops at the
// failing step so the shrinker sees a deterministic signature.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"

namespace tme::chaos {

struct RunnerOptions {
  std::string workdir = ".";  // checkpoint + context files land here
  std::string worker_bin;     // fork+exec this binary (empty = plain fork)
  bool verbose = false;       // narrate events and oracle results to stdout
  // Non-empty: after a successful run, write the merged fleet timeline
  // (coordinator tracks + one process per worker incarnation, chaos events
  // as instants) as Chrome/Perfetto JSON.  The runner owns the telemetry
  // aggregator, so chunks survive the mid-run fleet restarts the kSigterm
  // surface performs.
  std::string trace_out;
};

// One entry of the realized fault-event log: what the schedule actually did.
struct RealizedEvent {
  std::uint64_t step = 0;
  std::string surface;
  std::string what;
};

struct ChaosRunResult {
  bool ok = true;
  std::string failed_oracle;  // empty when ok
  std::uint64_t failed_step = 0;
  std::string failure_detail;
  std::vector<RealizedEvent> log;

  std::uint64_t steps_completed = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_write_failures = 0;  // typed, survived
  std::uint64_t checkpoint_fallbacks = 0;       // generations skipped on read
  std::uint64_t worker_deaths = 0;
  std::uint64_t respawns = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t sdc_injected = 0;
  std::uint64_t abft_violations = 0;
  std::uint64_t io_faults_injected = 0;
  std::uint64_t quiesces = 0;
  // Largest |E(t) - E(ref)| / max(|E(ref)|, energy_floor) of the chaos
  // side's total energy, referenced to the first step — the guardrail's
  // NVE-drift measure.
  double max_energy_drift = 0.0;
};

// "oracle@step" — the identity delta-debugging preserves while shrinking.
std::string failure_signature(const ChaosRunResult& result);

class ChaosRunner {
 public:
  ChaosRunner(ChaosSpec spec, RunnerOptions options);

  const ChaosSpec& spec() const { return spec_; }

  // One full run under the schedule.  Never throws for scheduled faults
  // (those become oracle failures or survived events); propagates only
  // genuine harness bugs.
  ChaosRunResult run();

 private:
  ChaosSpec spec_;
  RunnerOptions options_;
};

// Replay file: {"spec": <spec json>, "result": {ok, failed_oracle,
// failed_step, signature, realized event log, stats}} — self-contained, so
// `chaos_drill --replay file.json` re-runs the exact schedule.  Written
// through io::write_file_durable: a failed write (a full disk) throws
// io::IoError instead of leaving a truncated replay behind.
void write_replay_file(const std::string& path, const ChaosSpec& spec,
                       const ChaosRunResult& result);
ChaosSpec read_replay_spec(const std::string& path);

}  // namespace tme::chaos
