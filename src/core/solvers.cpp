#include "core/solvers.hpp"

#include <stdexcept>

#include "util/simd.hpp"

namespace tme {

void describe_tme_params(const TmeParams& p, obs::JsonValue& d) {
  auto& obj = d.as_object();
  obj["alpha"] = obs::JsonValue::make_number(p.alpha);
  obj["order"] = obs::JsonValue::make_number(p.order);
  obj["grid_x"] = obs::JsonValue::make_number(static_cast<double>(p.grid.nx));
  obj["grid_y"] = obs::JsonValue::make_number(static_cast<double>(p.grid.ny));
  obj["grid_z"] = obs::JsonValue::make_number(static_cast<double>(p.grid.nz));
  obj["levels"] = obs::JsonValue::make_number(p.levels);
  obj["grid_cutoff"] = obs::JsonValue::make_number(p.grid_cutoff);
  obj["num_gaussians"] =
      obs::JsonValue::make_number(static_cast<double>(p.num_gaussians));
  obj["virial"] = obs::JsonValue::make_bool(false);
  obj["simd"] = simd::describe_json();
}

namespace {

class TmeSolver final : public LongRangeSolver {
 public:
  TmeSolver(const Box& box, const TmeParams& params) : tme_(box, params) {}

  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges) const override {
    return tme_.compute(positions, charges);
  }

  std::string name() const override { return "tme"; }
  double alpha() const override { return tme_.params().alpha; }
  const Box& box() const override { return tme_.box(); }

  obs::JsonValue describe() const override {
    obs::JsonValue d = obs::JsonValue::make_object();
    d.as_object()["backend"] = obs::JsonValue::make_string(name());
    describe_tme_params(tme_.params(), d);
    return d;
  }

 private:
  Tme tme_;
};

class TmeFixedSolver final : public LongRangeSolver {
 public:
  TmeFixedSolver(const Box& box, const TmeParams& params,
                 const TmeFixedConfig& config)
      : tme_(box, params), config_(config) {}

  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges) const override {
    return tme_compute_fixed(tme_, positions, charges, config_);
  }

  std::string name() const override { return "tme_fixed"; }
  double alpha() const override { return tme_.params().alpha; }
  const Box& box() const override { return tme_.box(); }

  obs::JsonValue describe() const override {
    obs::JsonValue d = obs::JsonValue::make_object();
    auto& obj = d.as_object();
    obj["backend"] = obs::JsonValue::make_string(name());
    describe_tme_params(tme_.params(), d);
    obj["grid_frac_bits"] =
        obs::JsonValue::make_number(config_.grid_format.frac_bits);
    obj["coeff_frac_bits"] =
        obs::JsonValue::make_number(config_.coeff_format.frac_bits);
    return d;
  }

 private:
  Tme tme_;
  TmeFixedConfig config_;
};

TmeParams tme_params_from(const SolverTuning& t) {
  TmeParams p;
  p.alpha = t.alpha;
  p.grid = t.grid;
  p.order = t.order;
  p.levels = t.levels;
  p.grid_cutoff = t.grid_cutoff;
  p.num_gaussians = t.num_gaussians;
  return p;
}

}  // namespace

std::unique_ptr<LongRangeSolver> make_tme_solver(const Box& box,
                                                 const TmeParams& params) {
  return std::make_unique<TmeSolver>(box, params);
}

std::unique_ptr<LongRangeSolver> make_tme_fixed_solver(
    const Box& box, const TmeParams& params, const TmeFixedConfig& config) {
  return std::make_unique<TmeFixedSolver>(box, params, config);
}

const std::vector<std::string>& long_range_backends() {
  static const std::vector<std::string> names{"ewald", "spme", "tme",
                                              "tme_fixed"};
  return names;
}

std::unique_ptr<LongRangeSolver> make_long_range_solver(
    const std::string& backend, const Box& box, const SolverTuning& tuning) {
  if (backend == "ewald") {
    EwaldSolverParams p;
    p.alpha = tuning.alpha;
    p.n_cut = tuning.n_cut;
    return make_ewald_solver(box, p);
  }
  if (backend == "spme") {
    SpmeParams p;
    p.alpha = tuning.alpha;
    p.grid = tuning.grid;
    p.order = tuning.order;
    p.compute_virial = tuning.compute_virial;
    return make_spme_solver(box, p);
  }
  if (backend == "tme") {
    return make_tme_solver(box, tme_params_from(tuning));
  }
  if (backend == "tme_fixed") {
    return make_tme_fixed_solver(box, tme_params_from(tuning));
  }
  throw std::invalid_argument("make_long_range_solver: unknown backend '" +
                              backend + "'");
}

}  // namespace tme
