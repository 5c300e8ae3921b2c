// Simulation: the one guarded MD step driver.
//
// Every MD run loop in the examples and benches runs through this class —
// the NVE and thermostatted examples, both Fig. 4 loops, the recovery-ladder
// tests, and both sides of the chaos harness.  It primes the system once,
// then each advance() is one Velocity-Verlet step (paper Sec. V.A: three
// integration phases around the force evaluation, SETTLE on the constraint
// engine) under the guardrail, reacting per the escalation ladder of
// md/guardrail:
//
//   warn       log the violation and keep going;
//   recompute  restore the in-memory pre-step state and re-run just that
//              step (bounded by max_step_recomputes), escalating when the
//              violation persists;
//   recover    roll back to the newest readable checkpoint generation
//              (bounded by max_recoveries), escalating to abort;
//   abort      stop the run.
//
// With a checkpoint path the driver writes the step-0 generation, then one
// every checkpoint_interval steps (0 = no cadence writes), rotating
// checkpoint_keep generations.  A typed CheckpointError on a write is
// counted and survived: the older generations stay intact and a later
// rollback falls back to them.  An optional wall-clock watchdog logs a
// diagnostic dump when a step stalls, and every completed step polls the
// global StatusReporter (SIGUSR1 / periodic live-status snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "md/guardrail.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"

namespace tme {

class Watchdog;

struct SimulationParams {
  GuardrailConfig guardrail;
  // Empty = no checkpointing (the recover rung then degrades to abort).
  std::string checkpoint_path;
  std::uint64_t checkpoint_interval = 100;  // steps between writes; 0 = none
  int checkpoint_keep = 2;                  // rotating generations retained
  int max_recoveries = 3;
  // Step-local retries under the recompute policy before escalating to the
  // checkpoint rollback (budget for the whole run, not per step).
  int max_step_recomputes = 3;
  // Wall-clock watchdog: if a step makes no progress for this long, a
  // diagnostic dump is logged from the monitor thread and the result is
  // flagged (watchdog_fired).  0 disables the watchdog.
  double watchdog_timeout_s = 0.0;
  // Test hook: invoked before each step's force half-kick with the step
  // number about to be computed; lets tests corrupt state mid-run.  The hook
  // models a *transient* upset: it is not replayed on a recompute retry of
  // the same step.
  std::function<void(std::uint64_t, ParticleSystem&)> fault_hook;
};

struct SimulationResult {
  std::uint64_t steps_completed = 0;  // steps that passed the guardrail
  int recoveries = 0;
  int step_recomputes = 0;  // localized retries that avoided a rollback
  bool aborted = false;
  bool watchdog_fired = false;
  std::size_t violation_count = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_write_failures = 0;  // typed, survived
  StepReport last_report;
};

class Simulation {
 public:
  // Holds references to all four arguments, which must outlive the driver.
  // Primes the system (forces for the initial configuration) and, with a
  // checkpoint path, writes the step-0 generation.
  Simulation(ParticleSystem& system, const Topology& topology,
             const ForceField& ff, const VelocityVerlet& integrator,
             SimulationParams params);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // One guarded step: computes step steps_completed + 1 and reacts to any
  // violation per the policy (a rollback moves steps_completed back).
  // Returns false once the run has aborted.
  bool advance();

  // Called once per completed step with its number, report and state.  A
  // rollback is not a completed step: it moves steps_completed back without
  // a call, and the re-run steps are observed again as they complete.
  using StepObserver = std::function<void(
      std::uint64_t step, const StepReport& report, const ParticleSystem&)>;

  // Advances until `steps` steps have completed or the run aborts, calling
  // `observe` (when set) after each completed step.  The system is the
  // caller's, so an observer may also act on it between steps (a
  // thermostat, a velocity rescale).
  const SimulationResult& run(std::uint64_t steps,
                              const StepObserver& observe = {});

  // Writes a rotating checkpoint of the current state.  A CheckpointError is
  // counted, logged and swallowed; returns whether the write landed.
  bool checkpoint();

  // Loads the newest readable checkpoint generation into the system and
  // re-arms the energy-drift reference; returns the restored step.  Throws
  // CheckpointError when no generation is readable.
  std::uint64_t restore();

  const SimulationResult& result() const { return result_; }
  const Guardrail& guardrail() const { return guard_; }

 private:
  // The rollback/abort reaction to a step that still violates after any
  // recompute; returns false when the run aborted.
  bool escalate(std::uint64_t step);
  bool abort_run(std::uint64_t step);

  ParticleSystem& system_;
  const Topology& topology_;
  const ForceField& ff_;
  const VelocityVerlet& integrator_;
  SimulationParams params_;
  Guardrail guard_;
  SimulationResult result_;
  std::atomic<std::uint64_t> watched_step_{0};  // read by the watchdog thread
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace tme
