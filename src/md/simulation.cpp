#include "md/simulation.hpp"

#include <string>
#include <utility>
#include <vector>

#include "md/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace tme {

Simulation::Simulation(ParticleSystem& system, const Topology& topology,
                       const ForceField& ff, const VelocityVerlet& integrator,
                       SimulationParams params)
    : system_(system),
      topology_(topology),
      ff_(ff),
      integrator_(integrator),
      params_(std::move(params)),
      guard_(params_.guardrail) {
  // Wall-clock watchdog: petted once per completed step; the monitor thread
  // dumps where the run was if a step stalls.
  if (params_.watchdog_timeout_s > 0.0) {
    watchdog_ = std::make_unique<Watchdog>(params_.watchdog_timeout_s, [this] {
      const std::string step = std::to_string(watched_step_.load() + 1);
      log_structured(LogLevel::kError, "guardrail_watchdog_fired",
                     {{"timeout_s", std::to_string(params_.watchdog_timeout_s)},
                      {"step", step}});
      TME_TRACE_INSTANT_D("watchdog fired",
                          "no progress while computing step " + step);
    });
  }
  result_.last_report = integrator_.prime(system_, topology_, ff_);
  if (!params_.checkpoint_path.empty()) checkpoint();
}

Simulation::~Simulation() = default;

bool Simulation::checkpoint() {
  try {
    write_checkpoint_rotating(params_.checkpoint_path, system_,
                              result_.steps_completed, params_.checkpoint_keep);
    ++result_.checkpoint_writes;
    return true;
  } catch (const CheckpointError& e) {
    ++result_.checkpoint_write_failures;
    TME_COUNTER_ADD("md/simulation/checkpoint_write_failures", 1);
    log_structured(LogLevel::kWarn, "checkpoint_write_refused",
                   {{"step", std::to_string(result_.steps_completed)},
                    {"fault", to_string(e.fault())},
                    {"what", e.what()}});
    return false;
  }
}

std::uint64_t Simulation::restore() {
  const Checkpoint ckpt =
      read_latest_checkpoint(params_.checkpoint_path, params_.checkpoint_keep);
  system_ = ckpt.system;
  result_.steps_completed = ckpt.step;
  guard_.reset_energy_reference();
  return ckpt.step;
}

const SimulationResult& Simulation::run(std::uint64_t steps,
                                        const StepObserver& observe) {
  while (result_.steps_completed < steps) {
    const std::uint64_t before = result_.steps_completed;
    if (!advance()) break;
    if (observe && result_.steps_completed == before + 1) {
      observe(result_.steps_completed, result_.last_report, system_);
    }
  }
  return result_;
}

bool Simulation::advance() {
  if (result_.aborted) return false;
  const std::uint64_t step = result_.steps_completed + 1;
  const bool recompute_rung =
      params_.guardrail.policy == GuardrailPolicy::kRecompute;
  // The pre-step image the recompute rung restores from: in memory, step
  // local — no checkpoint I/O and no completed steps lost.
  ParticleSystem prestep;
  if (recompute_rung) prestep = system_;
  if (params_.fault_hook) params_.fault_hook(step, system_);
  StepReport report = integrator_.step(system_, topology_, ff_);
  std::vector<GuardrailViolation> bad = guard_.check(system_, report, step);
  result_.violation_count += bad.size();

  // Localized retry: restore the in-memory pre-step state and re-run just
  // this step.  The fault hook models a transient upset and is not
  // replayed, so a retry of an SDC-corrupted step is clean by construction
  // and bitwise-identical to the fault-free trajectory.
  while (recompute_rung && !bad.empty() &&
         result_.step_recomputes < params_.max_step_recomputes) {
    ++result_.step_recomputes;
    TME_COUNTER_ADD("md/guardrail/step_recomputes", 1);
    log_structured(LogLevel::kWarn, "guardrail_step_recompute",
                   {{"step", std::to_string(step)},
                    {"retry", std::to_string(result_.step_recomputes)},
                    {"max", std::to_string(params_.max_step_recomputes)}});
    TME_TRACE_INSTANT_D("guardrail recompute",
                        "step " + std::to_string(step) + " retry " +
                            std::to_string(result_.step_recomputes));
    system_ = prestep;
    report = integrator_.step(system_, topology_, ff_);
    bad = guard_.check(system_, report, step);
    result_.violation_count += bad.size();
  }
  if (watchdog_) result_.watchdog_fired = watchdog_->fired();
  // Under warn a violation (logged in check()) keeps going with the possibly
  // damaged state, which is never checkpointed.
  if (!bad.empty() && params_.guardrail.policy != GuardrailPolicy::kWarn) {
    return escalate(step);
  }

  result_.steps_completed = step;
  result_.last_report = report;
  if (bad.empty()) {
    if (watchdog_) {
      watched_step_.store(step);
      watchdog_->pet();
    }
    if (!params_.checkpoint_path.empty() && params_.checkpoint_interval > 0 &&
        step % params_.checkpoint_interval == 0) {
      checkpoint();
    }
  }
  obs::StatusReporter::global().poll(step);
  return true;
}

bool Simulation::escalate(std::uint64_t step) {
  switch (params_.guardrail.policy) {
    case GuardrailPolicy::kRecompute:
      log_warn("guardrail: step ", step,
               " still violating after localized recompute; escalating to "
               "checkpoint rollback");
      [[fallthrough]];
    case GuardrailPolicy::kRecover: {
      const char* why = params_.checkpoint_path.empty()
                            ? "no checkpoint path"
                            : "recovery limit reached";
      if (!params_.checkpoint_path.empty() &&
          result_.recoveries < params_.max_recoveries) {
        try {
          const std::uint64_t restored = restore();
          ++result_.recoveries;
          log_structured(LogLevel::kWarn, "guardrail_rollback",
                         {{"failed_step", std::to_string(step)},
                          {"checkpoint_step", std::to_string(restored)}});
          TME_TRACE_INSTANT_D(
              "guardrail rollback",
              "to checkpoint at step " + std::to_string(restored));
          TME_COUNTER_ADD("md/guardrail/recoveries", 1);
          return true;
        } catch (const CheckpointError&) {
          why = "no readable checkpoint generation";
        }
      }
      log_error("guardrail: cannot recover (", why, "); aborting at step ",
                step);
      return abort_run(step);
    }
    case GuardrailPolicy::kWarn:  // unreachable: warn never escalates
    case GuardrailPolicy::kAbort:
      log_structured(LogLevel::kError, "guardrail_abort",
                     {{"step", std::to_string(step)}});
      return abort_run(step);
  }
  return abort_run(step);
}

bool Simulation::abort_run(std::uint64_t step) {
  TME_COUNTER_ADD("md/guardrail/aborts", 1);
  TME_TRACE_INSTANT_D("guardrail abort", "at step " + std::to_string(step));
  result_.aborted = true;
  return false;
}

}  // namespace tme
