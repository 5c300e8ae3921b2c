#include "md/guardrail.hpp"

#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace tme {

const char* to_string(GuardrailPolicy policy) {
  switch (policy) {
    case GuardrailPolicy::kWarn: return "warn";
    case GuardrailPolicy::kRecompute: return "recompute";
    case GuardrailPolicy::kRecover: return "recover";
    case GuardrailPolicy::kAbort: return "abort";
  }
  return "?";
}

namespace {

// Count of non-finite components in an array of vectors.
std::size_t non_finite(const std::vector<Vec3>& vs) {
  std::size_t bad = 0;
  for (const Vec3& v : vs) {
    if (!std::isfinite(v.x) || !std::isfinite(v.y) || !std::isfinite(v.z)) ++bad;
  }
  return bad;
}

}  // namespace

std::vector<GuardrailViolation> Guardrail::check(const ParticleSystem& system,
                                                 const StepReport& report,
                                                 std::uint64_t step) {
  std::vector<GuardrailViolation> found;
  auto flag = [&](std::string what) {
    log_structured(LogLevel::kWarn, "guardrail_violation",
                   {{"step", std::to_string(step)}, {"what", what}});
    TME_TRACE_INSTANT_D("guardrail violation",
                        "step " + std::to_string(step) + ": " + what);
    found.push_back({step, std::move(what)});
  };

  if (const std::size_t bad = non_finite(system.positions); bad > 0) {
    flag(std::to_string(bad) + " particles with non-finite positions");
  }
  if (const std::size_t bad = non_finite(system.velocities); bad > 0) {
    flag(std::to_string(bad) + " particles with non-finite velocities");
  }
  if (const std::size_t bad = non_finite(system.forces); bad > 0) {
    flag(std::to_string(bad) + " particles with non-finite forces");
  }

  double max_f = 0.0;
  for (const Vec3& f : system.forces) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double a = std::abs(f[k]);
      if (a > max_f) max_f = a;
    }
  }
  if (std::isfinite(max_f) && max_f > config_.max_force) {
    flag("force blow-up: max |component| " + std::to_string(max_f) + " > " +
         std::to_string(config_.max_force));
  }

  if (config_.check_fixed_overflow) {
    std::size_t overflowed = 0;
    for (const Vec3& f : system.forces) {
      for (std::size_t k = 0; k < 3; ++k) {
        if (!fits(f[k], config_.fixed_format)) ++overflowed;
      }
    }
    if (overflowed > 0) {
      flag(std::to_string(overflowed) + " force components saturate Q" +
           std::to_string(config_.fixed_format.total_bits - config_.fixed_format.frac_bits) +
           "." + std::to_string(config_.fixed_format.frac_bits));
    }
  }

  const double total = report.total();
  if (!std::isfinite(total)) {
    flag("non-finite total energy");
  } else if (!reference_energy_.has_value()) {
    reference_energy_ = total;
  } else {
    const double ref = *reference_energy_;
    const double scale = std::max(std::abs(ref), config_.energy_floor);
    if (std::abs(total - ref) > config_.energy_drift_tol * scale) {
      flag("energy drift " + std::to_string(total - ref) + " kJ/mol exceeds " +
           std::to_string(config_.energy_drift_tol) + " x " + std::to_string(scale));
    }
  }

  TME_COUNTER_ADD("md/guardrail/violations", found.size());
  violations_.insert(violations_.end(), found.begin(), found.end());
  return found;
}

}  // namespace tme
