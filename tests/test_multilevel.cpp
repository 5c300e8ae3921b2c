// The multilevel family (Tme, the fixed-point and single-precision variants,
// Msm, ParallelTme, GuardedTmePipeline) shares one stage chain:
//   CA -> restriction^L -> top -> (prolongation + level convolution)^L -> BI.
//
// TmeVariants pins the fixed, single and MSM chains bitwise against
// test-local rebuilds from the public grid primitives; StageTimers checks
// that every variant records the same per-stage phase timers.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tme.hpp"
#include "core/tme_fixed.hpp"
#include "ewald/splitting.hpp"
#include "ewald/spme.hpp"
#include "fixed/fixed_point.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "hw/sdc_guard.hpp"
#include "msm/msm.hpp"
#include "obs/metrics.hpp"
#include "par/par_tme.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace tme {
namespace {

struct TestSystem {
  Box box{{3.2, 3.2, 3.2}};
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

// Charges are deliberately not neutralised, so the pins also cover the
// net-charge background term.
TestSystem charged_system(std::size_t n, std::uint64_t seed) {
  TestSystem sys;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions.push_back(
        {rng.uniform(0.0, 3.2), rng.uniform(0.0, 3.2), rng.uniform(0.0, 3.2)});
    sys.charges.push_back(rng.uniform(-1.0, 1.0));
  }
  return sys;
}

TmeParams two_level_params() {
  TmeParams tp;
  tp.grid = {32, 32, 32};
  tp.levels = 2;
  tp.alpha = 2.5;
  tp.grid_cutoff = 4;
  tp.num_gaussians = 3;
  return tp;
}

void expect_bitwise_equal(const Grid3d& a, const Grid3d& b) {
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
  EXPECT_EQ(differing, 0u);
}

void expect_bitwise_equal(const CoulombResult& a, const CoulombResult& b) {
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.energy_reciprocal, b.energy_reciprocal);
  EXPECT_EQ(a.energy_self, b.energy_self);
  EXPECT_EQ(a.energy_background, b.energy_background);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) differing += a.forces[i][k] != b.forces[i][k];
  }
  EXPECT_EQ(differing, 0u);
}

// CA -> `chain` -> BI plus the self and background terms, written out here
// so the reference shares no code with the library's epilogue.
template <class Chain>
CoulombResult reference_compute(const TestSystem& sys, GridDims grid, int order,
                                double alpha, double top_alpha, const Chain& chain) {
  const ChargeAssigner assigner(sys.box, grid, order);
  const Grid3d phi = chain(assigner.assign(sys.positions, sys.charges));
  CoulombResult out;
  out.forces.assign(sys.positions.size(), Vec3{});
  out.energy_reciprocal =
      0.5 * assigner.back_interpolate(phi, sys.positions, sys.charges, &out.forces);
  double q2 = 0.0;
  for (const double q : sys.charges) q2 += q * q;
  out.energy_self = -constants::kCoulomb * alpha / std::sqrt(M_PI) * q2;
  double q_total = 0.0;
  for (const double q : sys.charges) q_total += q;
  out.energy_background =
      net_charge_background_energy(q_total, top_alpha, sys.box.volume());
  out.energy = out.energy_reciprocal + out.energy_self + out.energy_background;
  return out;
}

double level_scale(int l) { return constants::kCoulomb / std::ldexp(1.0, l - 1); }

// --- bitwise pins ------------------------------------------------------------

Grid3d fixed_chain(const Tme& tme, Grid3d q0, const TmeFixedConfig& config) {
  const int levels = tme.params().levels;
  const int p = tme.params().order;
  std::vector<Grid3d> q(static_cast<std::size_t>(levels) + 1);
  q[0] = std::move(q0);
  quantize_grid(q[0], config.grid_format);
  for (int l = 1; l <= levels; ++l) {
    q[l] = restrict_grid(q[l - 1], p);
    quantize_grid(q[l], config.grid_format);
  }
  Grid3d phi = tme.top_level().solve_potential(q[levels]);
  for (int l = levels; l >= 1; --l) {
    Grid3d level_phi = prolong_grid(phi, p);
    convolve_tensor_fixed(q[l - 1], tme.level_kernels(l), level_scale(l),
                          config.grid_format, config.coeff_format, level_phi);
    phi = std::move(level_phi);
  }
  return phi;
}

Grid3d single_chain(const Tme& tme, Grid3d q0) {
  const int levels = tme.params().levels;
  const int p = tme.params().order;
  std::vector<Grid3d> q(static_cast<std::size_t>(levels) + 1);
  q[0] = std::move(q0);
  round_grid_to_float(q[0]);
  for (int l = 1; l <= levels; ++l) {
    q[l] = restrict_grid(q[l - 1], p);
    round_grid_to_float(q[l]);
  }
  Grid3d phi = tme.top_level().solve_potential(q[levels]);
  round_grid_to_float(phi);
  for (int l = levels; l >= 1; --l) {
    Grid3d level_phi = prolong_grid(phi, p);
    convolve_tensor(q[l - 1], tme.level_kernels(l), level_scale(l), level_phi);
    round_grid_to_float(level_phi);
    phi = std::move(level_phi);
  }
  return phi;
}

Grid3d msm_chain(const Msm& msm, const Spme& top, Grid3d q0) {
  const int levels = msm.params().levels;
  const int p = msm.params().order;
  std::vector<Grid3d> q(static_cast<std::size_t>(levels) + 1);
  q[0] = std::move(q0);
  for (int l = 1; l <= levels; ++l) q[l] = restrict_grid(q[l - 1], p);
  Grid3d phi = top.solve_potential(q[levels]);
  for (int l = levels; l >= 1; --l) {
    Grid3d level_phi = prolong_grid(phi, p);
    Grid3d conv(level_phi.dims());
    convolve_dense3d(q[l - 1], msm.level_kernel(l), msm.params().grid_cutoff, conv);
    conv *= constants::kCoulomb;
    level_phi += conv;
    phi = std::move(level_phi);
  }
  return phi;
}

TEST(TmeVariants, FixedPointMatchesItsStageChainBitwise) {
  const TestSystem sys = charged_system(300, 41);
  const TmeParams tp = two_level_params();
  const Tme tme(sys.box, tp);
  const TmeFixedConfig config;
  const double top_alpha = tme.top_level().params().alpha;
  const auto chain = [&](const Grid3d& q) { return fixed_chain(tme, q, config); };

  const ChargeAssigner assigner(sys.box, tp.grid, tp.order);
  const Grid3d q_grid = assigner.assign(sys.positions, sys.charges);
  expect_bitwise_equal(tme_solve_potential_fixed(tme, q_grid, config), chain(q_grid));
  expect_bitwise_equal(
      tme_compute_fixed(tme, sys.positions, sys.charges, config),
      reference_compute(sys, tp.grid, tp.order, tp.alpha, top_alpha, chain));
}

TEST(TmeVariants, SinglePrecisionMatchesItsStageChainBitwise) {
  const TestSystem sys = charged_system(300, 42);
  const TmeParams tp = two_level_params();
  const Tme tme(sys.box, tp);
  const double top_alpha = tme.top_level().params().alpha;
  expect_bitwise_equal(
      tme_compute_single(tme, sys.positions, sys.charges),
      reference_compute(sys, tp.grid, tp.order, tp.alpha, top_alpha,
                        [&](const Grid3d& q) { return single_chain(tme, q); }));
}

TEST(TmeVariants, MsmMatchesItsStageChainBitwise) {
  const TestSystem sys = charged_system(300, 43);
  MsmParams mp;
  mp.grid = {32, 32, 32};
  mp.levels = 2;
  mp.alpha = 2.5;
  mp.grid_cutoff = 3;
  const Msm msm(sys.box, mp);
  SpmeParams top_params;
  top_params.order = mp.order;
  top_params.grid = {8, 8, 8};
  top_params.alpha = mp.alpha / 4.0;
  top_params.subtract_self = false;
  const Spme top(sys.box, top_params);
  const auto chain = [&](const Grid3d& q) { return msm_chain(msm, top, q); };

  const ChargeAssigner assigner(sys.box, mp.grid, mp.order);
  const Grid3d q_grid = assigner.assign(sys.positions, sys.charges);
  expect_bitwise_equal(msm.solve_potential(q_grid), chain(q_grid));
  expect_bitwise_equal(
      msm.compute(sys.positions, sys.charges),
      reference_compute(sys, mp.grid, mp.order, mp.alpha, top_params.alpha, chain));
}

// --- uniform stage timers ----------------------------------------------------

class StageTimers : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(TME_METRICS_ENABLED)
    GTEST_SKIP() << "built with TME_METRICS=OFF: no phase timers";
#endif
    obs::Registry::global().reset();
    sys_ = charged_system(120, 44);
  }

  // Two levels: two restrictions, one top solve, two prolongations and two
  // level convolutions, all directly under the variant's outer phase.
  static void expect_stage_timers(const std::string& outer) {
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const auto count = [&](const std::string& stage) -> std::uint64_t {
      for (const auto& [path, stat] : snap.timers) {
        if (path == outer + "/" + stage) return stat.count;
      }
      return 0;
    };
    EXPECT_EQ(count("restriction"), 2u) << outer;
    EXPECT_EQ(count("top_fft"), 1u) << outer;
    EXPECT_EQ(count("prolongation"), 2u) << outer;
    EXPECT_EQ(count("convolution"), 2u) << outer;
  }

  TestSystem sys_;
};

TEST_F(StageTimers, Tme) {
  const Tme tme(sys_.box, two_level_params());
  (void)tme.compute(sys_.positions, sys_.charges);
  expect_stage_timers("tme");
}

TEST_F(StageTimers, TmeFixed) {
  const Tme tme(sys_.box, two_level_params());
  (void)tme_compute_fixed(tme, sys_.positions, sys_.charges);
  expect_stage_timers("tme_fixed");
}

TEST_F(StageTimers, TmeSingle) {
  const Tme tme(sys_.box, two_level_params());
  (void)tme_compute_single(tme, sys_.positions, sys_.charges);
  expect_stage_timers("tme_single");
}

TEST_F(StageTimers, Msm) {
  MsmParams mp;
  mp.grid = {32, 32, 32};
  mp.levels = 2;
  mp.alpha = 2.5;
  mp.grid_cutoff = 3;
  const Msm msm(sys_.box, mp);
  (void)msm.compute(sys_.positions, sys_.charges);
  expect_stage_timers("msm");
}

TEST_F(StageTimers, ParallelTme) {
  const par::ParallelTme par(sys_.box, two_level_params(),
                                 hw::TorusTopology(2, 2, 2));
  (void)par.compute(sys_.positions, sys_.charges, nullptr);
  expect_stage_timers("par_tme/par_tme_solve");
}

TEST_F(StageTimers, GuardedTmePipeline) {
  const hw::GuardedTmePipeline guarded(sys_.box, two_level_params(),
                                       hw::GuardedTmeConfig{});
  (void)guarded.compute(sys_.positions, sys_.charges);
  expect_stage_timers("guarded_tme");
}

}  // namespace
}  // namespace tme
