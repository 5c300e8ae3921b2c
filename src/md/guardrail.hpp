// Numerical guardrails for MD runs.
//
// A production run on the simulated machine must notice when the physics
// goes bad — NaN/Inf escaping into coordinates, forces blowing past the
// short-range table range, values that would saturate the chip's fixed-point
// grid format, or NVE energy drifting beyond tolerance — and react by
// policy: log and continue (warn), roll back to the last good checkpoint
// (recover), or stop the run (abort).
//
// `recompute` is the localized rung: the step driver (md/simulation) keeps
// the pre-step state in memory and re-runs just the violating step — a
// transient upset (the SDC fault model in hw/fault) replays clean, so no
// checkpoint I/O and no completed steps are lost.  Only when the violation
// persists does it escalate to the checkpoint rollback, and from there to
// abort.  This header owns the checks; md/simulation owns the reactions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fixed/fixed_point.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"

namespace tme {

// Ordered escalation ladder: each rung reacts more drastically than the one
// before it, and the two recovery rungs fall through to the next rung when
// they cannot repair the run.
enum class GuardrailPolicy { kWarn, kRecompute, kRecover, kAbort };

const char* to_string(GuardrailPolicy policy);

struct GuardrailConfig {
  GuardrailPolicy policy = GuardrailPolicy::kWarn;
  // Any |force component| above this is a blow-up (kJ mol^-1 nm^-1); generous
  // default — healthy TIP3P forces stay orders of magnitude below.
  double max_force = 1e7;
  // Relative NVE drift tolerance: |E(t) - E(ref)| <= tol * max(|E(ref)|,
  // energy_floor), referenced to the first checked step.
  double energy_drift_tol = 0.05;
  double energy_floor = 1.0;  // kJ/mol, guards the relative test near E = 0
  // When set, count force components that would saturate the chip's grid
  // fixed-point format (src/fixed) and flag any overflow.
  bool check_fixed_overflow = false;
  FixedFormat fixed_format{};
};

struct GuardrailViolation {
  std::uint64_t step = 0;
  std::string what;
};

class Guardrail {
 public:
  explicit Guardrail(GuardrailConfig config) : config_(std::move(config)) {}

  const GuardrailConfig& config() const { return config_; }

  // Inspects post-step state; returns the violations found this step (empty
  // = healthy) and remembers them (see violations()).  The first checked
  // step's total energy becomes the drift reference.  Never throws — the
  // policy reaction is the caller's job (see md/simulation).
  std::vector<GuardrailViolation> check(const ParticleSystem& system,
                                        const StepReport& report,
                                        std::uint64_t step);

  const std::vector<GuardrailViolation>& violations() const { return violations_; }

  // Re-arm the drift reference (after a checkpoint restore the next checked
  // step re-establishes it).
  void reset_energy_reference() { reference_energy_.reset(); }

 private:
  GuardrailConfig config_;
  std::optional<double> reference_energy_;
  std::vector<GuardrailViolation> violations_;
};

}  // namespace tme
