// ABFT invariants, SDC injection, the guarded hardware pipeline's localized
// recovery, and the par-layer health monitor.
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/abft.hpp"
#include "core/tme.hpp"
#include "ewald/greens_function.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "hw/event_sim.hpp"
#include "hw/fault.hpp"
#include "hw/fpga_fft.hpp"
#include "hw/sdc_guard.hpp"
#include "hw/torus.hpp"
#include "par/decomposition.hpp"
#include "par/health.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tme::hw {
namespace {

// --- test fixtures -----------------------------------------------------------

struct TestSystem {
  Box box{{3.2, 3.2, 3.2}};
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

TestSystem make_system(std::size_t n, std::uint64_t seed) {
  TestSystem sys;
  Rng rng(seed);
  sys.positions.resize(n);
  sys.charges.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, 3.2), rng.uniform(0.0, 3.2),
                        rng.uniform(0.0, 3.2)};
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    total += sys.charges[i];
  }
  for (auto& q : sys.charges) q -= total / static_cast<double>(n);
  return sys;
}

Grid3d random_grid(GridDims dims, std::uint64_t seed) {
  Grid3d g(dims);
  Rng rng(seed);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
  return g;
}

TmeParams small_params() {
  TmeParams p;
  p.grid = {32, 32, 32};  // levels = 1 -> 16^3 top: the FPGA engine's geometry
  p.levels = 1;
  p.alpha = 3.0;
  p.grid_cutoff = 4;
  p.num_gaussians = 3;
  return p;
}

bool bitwise_equal(const CoulombResult& a, const CoulombResult& b) {
  if (a.energy != b.energy || a.energy_reciprocal != b.energy_reciprocal ||
      a.energy_self != b.energy_self || a.forces.size() != b.forces.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      if (a.forces[i][k] != b.forces[i][k]) return false;
    }
  }
  return true;
}

// --- abft primitives ---------------------------------------------------------

TEST(AbftCheckSet, HonoursToleranceAndRejectsNonFinite) {
  abft::CheckSet checks(1.0);
  EXPECT_TRUE(checks.check("a", 1.0, 1.0 + 1e-9, 1e-8));
  EXPECT_FALSE(checks.check("a", 1.0, 1.01, 1e-8));
  EXPECT_FALSE(checks.check("a", 1.0, std::numeric_limits<double>::quiet_NaN(),
                            1e6));
  EXPECT_FALSE(
      checks.check("a", 1.0, std::numeric_limits<double>::infinity(), 1e6));
  EXPECT_EQ(checks.violations().size(), 3u);
  EXPECT_EQ(checks.checks_run(), 4u);

  // The scale knob loosens every tolerance together.
  abft::CheckSet loose(1e7);
  EXPECT_TRUE(loose.check("a", 1.0, 1.01, 1e-8));
}

TEST(AbftPrimitives, TapSumAndTensorGain) {
  Kernel1d k;
  k.cutoff = 1;
  k.taps = {0.25, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(abft::tap_sum(k), 1.0);
  SeparableTerm term{k, k, k};
  EXPECT_DOUBLE_EQ(abft::tensor_gain({term, term}), 2.0);
}

TEST(AbftTransfer, RestrictionPreservesAndProlongationScalesTotals) {
  for (const std::size_t n : {8u, 16u, 32u}) {
    const Grid3d fine = random_grid({n, n, n}, 100 + n);
    const Grid3d coarse = restrict_grid(fine, 6);
    const double tol = abft::rounding_tolerance(fine.size(), fine.size(), 0x1p-52);
    EXPECT_NEAR(abft::grid_total(coarse), abft::grid_total(fine), tol)
        << "restriction total at n=" << n;

    const Grid3d coarse2 = random_grid({n / 2, n / 2, n / 2}, 200 + n);
    const Grid3d up = prolong_grid(coarse2, 6);
    EXPECT_NEAR(abft::grid_total(up), 8.0 * abft::grid_total(coarse2), tol)
        << "prolongation total at n=" << n;
  }
}

TEST(AbftConvChecksum, PassesCleanAndLocalisesACorruptedLine) {
  const GridDims dims{16, 16, 16};
  const Grid3d in = random_grid(dims, 7);
  Kernel1d k;
  k.cutoff = 3;
  k.taps = {0.1, -0.2, 0.4, 0.9, 0.4, -0.2, 0.1};

  for (int axis = 0; axis < 3; ++axis) {
    Grid3d out(dims);
    convolve_axis(in, k, static_cast<ConvAxis>(axis), out);
    abft::CheckSet clean(1.0);
    const double tol = abft::rounding_tolerance(16 * 7, 2.3, 0x1p-52);
    EXPECT_EQ(abft::check_conv_axis_lines(in, out, k, axis, tol, clean), 0u);

    // One corrupted cell must flag exactly its own line.
    out.at(5, 6, 7) += 1e-3;
    abft::CheckSet dirty(1.0);
    EXPECT_EQ(abft::check_conv_axis_lines(in, out, k, axis, tol, dirty), 1u);
    ASSERT_EQ(dirty.violations().size(), 1u);
    const int line = dirty.violations()[0].index;
    const int expected_line = axis == 0   ? 7 * 16 + 6
                              : axis == 1 ? 7 * 16 + 5
                                          : 6 * 16 + 5;
    EXPECT_EQ(line, expected_line);
  }
}

// --- SDC injection -----------------------------------------------------------

TEST(SdcInjection, RateZeroIsPassthroughAndSeededRateIsDeterministic) {
  FaultConfig off;
  FaultInjector clean(off);
  EXPECT_FALSE(clean.sdc_enabled());
  EXPECT_EQ(clean.sdc_fixed(12345, 32, SdcSite::kLruAccumulator, 1.0), 12345);
  EXPECT_EQ(clean.sdc_double(2.5, SdcSite::kGcuAccumulator), 2.5);
  EXPECT_EQ(clean.sdc_float(1.5f, SdcSite::kFpgaFft), 1.5f);
  EXPECT_EQ(clean.injected_sdc(), 0u);

  FaultConfig cfg;
  cfg.seed = 11;
  cfg.sdc_rate = 0.5;
  FaultInjector a(cfg), b(cfg);
  std::uint64_t flips_a = 0;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t ra = a.sdc_fixed(1000, 32, SdcSite::kLruAccumulator, 1.0);
    const std::int64_t rb = b.sdc_fixed(1000, 32, SdcSite::kLruAccumulator, 1.0);
    EXPECT_EQ(ra, rb);  // same seed, same stream
    if (ra != 1000) ++flips_a;
  }
  EXPECT_GT(flips_a, 64u);
  EXPECT_LT(flips_a, 192u);
  EXPECT_EQ(a.injected_sdc(), flips_a);
  EXPECT_EQ(a.sdc_events().size(), flips_a);

  // Suspension (the recompute path) stops every draw.
  a.set_sdc_suspended(true);
  EXPECT_EQ(a.sdc_fixed(1000, 32, SdcSite::kLruAccumulator, 1.0), 1000);
  a.set_sdc_suspended(false);

  // Events carry the caller's stage context.
  a.clear_sdc_events();
  a.set_sdc_context(4, 107);
  FaultConfig always;
  always.sdc_rate = 1.0;
  FaultInjector hot(always);
  hot.set_sdc_context(4, 107);
  (void)hot.sdc_double(3.25, SdcSite::kGcuAccumulator);
  ASSERT_EQ(hot.sdc_events().size(), 1u);
  EXPECT_EQ(hot.sdc_events()[0].stage, 4);
  EXPECT_EQ(hot.sdc_events()[0].index, 107);
  EXPECT_EQ(hot.sdc_events()[0].site, SdcSite::kGcuAccumulator);
  EXPECT_NE(hot.sdc_events()[0].after, hot.sdc_events()[0].before);
}

TEST(SdcInjection, FpgaParsevalProbeCatchesSpectrumFlips) {
  // Fault-free: both Parseval sides hold in single precision.
  std::vector<float> charges(16 * 16 * 16);
  Rng rng(3);
  for (auto& c : charges) c = static_cast<float>(rng.uniform(-1.0, 1.0));
  Box box{{3.2, 3.2, 3.2}};
  const std::vector<double> green = spme_influence(box, {16, 16, 16}, 6, 1.5);

  FpgaAbftProbe probe;
  const std::vector<float> clean =
      fpga_top_level_convolve(charges, green, nullptr, &probe);
  const double tol_f =
      abft::rounding_tolerance(4096, probe.input_energy, 0x1p-23);
  const double tol_i =
      abft::rounding_tolerance(4096, probe.green_energy, 0x1p-23);
  EXPECT_NEAR(probe.forward_energy, probe.input_energy, tol_f);
  EXPECT_NEAR(probe.output_energy, probe.green_energy, tol_i);

  // Seeded flips: at least one side of at least one seed must break, and
  // every run is reproducible draw-for-draw.
  bool any_detected = false;
  for (std::uint64_t seed = 1; seed <= 8 && !any_detected; ++seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.sdc_rate = 2e-3;
    FaultInjector faults(cfg);
    FpgaAbftProbe dirty;
    (void)fpga_top_level_convolve(charges, green, &faults, &dirty);
    if (faults.injected_sdc() == 0) continue;
    const bool fwd_bad =
        !std::isfinite(dirty.forward_energy) ||
        std::abs(dirty.forward_energy - dirty.input_energy) >
            abft::rounding_tolerance(4096, dirty.input_energy, 0x1p-23);
    const bool inv_bad =
        !std::isfinite(dirty.output_energy) ||
        std::abs(dirty.output_energy - dirty.green_energy) >
            abft::rounding_tolerance(4096, dirty.green_energy, 0x1p-23);
    any_detected = fwd_bad || inv_bad;
  }
  EXPECT_TRUE(any_detected);
}

// --- guarded pipeline --------------------------------------------------------

TEST(GuardedTme, FaultFreeRunPassesEveryCheckAcrossPoolSizes) {
  const TestSystem sys = make_system(120, 21);
  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    // Two independent evaluations per pool exercise the pipeline under the
    // same concurrency the MD driver would use.
    std::vector<GuardedTmeReport> reports(2);
    parallel_for(pool, 0, reports.size(), [&](std::size_t i) {
      GuardedTmePipeline pipeline(sys.box, small_params(), GuardedTmeConfig{});
      (void)pipeline.compute(sys.positions, sys.charges, &reports[i]);
    });
    for (const GuardedTmeReport& rep : reports) {
      EXPECT_GT(rep.checks_run, 0u);
      EXPECT_EQ(rep.violations, 0u) << "workers=" << workers;
      EXPECT_EQ(rep.stage_recomputes, 0u);
      EXPECT_TRUE(rep.recovered);
    }
  }
}

TEST(GuardedTme, ChecksAreBitwiseNeutralAtRateZero) {
  const TestSystem sys = make_system(150, 22);
  FaultConfig off;  // sdc_rate = 0: the injector is attached but silent
  FaultInjector faults_on(off), faults_off(off);

  GuardedTmeConfig with_checks;
  with_checks.checks_enabled = true;
  GuardedTmePipeline guarded(sys.box, small_params(), with_checks, &faults_on);
  GuardedTmeReport rep;
  const CoulombResult a = guarded.compute(sys.positions, sys.charges, &rep);

  GuardedTmeConfig without;
  without.checks_enabled = false;
  GuardedTmePipeline bare(sys.box, small_params(), without, &faults_off);
  const CoulombResult b = bare.compute(sys.positions, sys.charges);

  EXPECT_EQ(rep.violations, 0u);
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST(GuardedTme, NetChargeBackgroundMatchesTme) {
  // A +1 e cell: the guarded pipeline owes the same background as Tme.
  TestSystem sys = make_system(400, 24);
  sys.charges[0] += 1.0;
  TmeParams tp = small_params();
  tp.alpha = 2.5;
  GuardedTmePipeline guarded(sys.box, tp, GuardedTmeConfig{});
  GuardedTmeReport rep;
  const CoulombResult g = guarded.compute(sys.positions, sys.charges, &rep);
  const CoulombResult ref = guarded.tme().compute(sys.positions, sys.charges);

  EXPECT_EQ(rep.violations, 0u);
  ASSERT_LT(ref.energy_background, 0.0);
  EXPECT_EQ(g.energy_background, ref.energy_background);
  EXPECT_EQ(g.energy, g.energy_reciprocal + g.energy_self + g.energy_background);
}

TEST(GuardedTme, DetectsInjectedCorruptionAndRecomputesLocally) {
  const TestSystem sys = make_system(100, 23);

  // Fault-free reference from an identical pipeline.
  GuardedTmePipeline reference(sys.box, small_params(), GuardedTmeConfig{});
  const CoulombResult clean = reference.compute(sys.positions, sys.charges);

  // Scan seeds for a run where corruption was injected, detected, and fully
  // repaired by localized recompute — the restored result must be bitwise
  // identical to the fault-free evaluation (the recompute re-executes the
  // stage with injection suspended, so this holds by construction whenever
  // every significant flip was caught).
  bool found_detected = false;
  bool found_bitwise_restore = false;
  std::uint64_t total_events = 0;
  for (std::uint64_t seed = 1; seed <= 24 && !found_bitwise_restore; ++seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.sdc_rate = 5e-7;  // a handful of flips across ~1e6 draws
    FaultInjector faults(cfg);
    GuardedTmePipeline pipeline(sys.box, small_params(), GuardedTmeConfig{},
                                &faults);
    GuardedTmeReport rep;
    const CoulombResult result =
        pipeline.compute(sys.positions, sys.charges, &rep);
    total_events += faults.injected_sdc();
    if (rep.violations == 0) continue;
    found_detected = true;
    EXPECT_GT(faults.injected_sdc(), 0u);  // no false positives
    if (rep.recovered && rep.stage_recomputes > 0 &&
        bitwise_equal(result, clean)) {
      found_bitwise_restore = true;
    }
  }
  EXPECT_GT(total_events, 0u);
  EXPECT_TRUE(found_detected);
  EXPECT_TRUE(found_bitwise_restore);
}

TEST(GuardedTme, DetectionCoverageMeetsTheFloorWithZeroFalsePositives) {
  const TestSystem sys = make_system(80, 24);
  std::size_t significant_runs = 0;
  std::size_t detected_runs = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.sdc_rate = 1e-5;
    FaultInjector faults(cfg);
    GuardedTmePipeline pipeline(sys.box, small_params(), GuardedTmeConfig{},
                                &faults);
    GuardedTmeReport rep;
    (void)pipeline.compute(sys.positions, sys.charges, &rep);

    // "Significant" = the flip hit a stage with an exact conservation
    // checksum (charge assignment = 0, tensor convolution = 4; the FPGA
    // Parseval and BI envelope checks are documented partial detectors) and
    // moved the operand past the quantisation-noise floor every stage
    // tolerance must admit.
    bool significant = false;
    for (const SdcEvent& e : faults.sdc_events()) {
      if (e.stage != 0 && e.stage != 4) continue;
      const double delta = std::abs(e.after - e.before);
      if (!std::isfinite(e.after) || delta > 0.1) {
        significant = true;
        break;
      }
    }
    if (faults.injected_sdc() == 0) {
      EXPECT_EQ(rep.violations, 0u) << "false positive at seed " << seed;
      continue;
    }
    if (significant) {
      ++significant_runs;
      if (rep.violations > 0) ++detected_runs;
    }
  }
  ASSERT_GT(significant_runs, 0u);
  // Detection-coverage floor over runs with a significant injected event.
  EXPECT_GE(static_cast<double>(detected_runs),
            0.7 * static_cast<double>(significant_runs));

  // Zero false positives at rate 0 (the other half of the contract).
  FaultConfig off;
  FaultInjector quiet(off);
  GuardedTmePipeline pipeline(sys.box, small_params(), GuardedTmeConfig{},
                              &quiet);
  GuardedTmeReport rep;
  (void)pipeline.compute(sys.positions, sys.charges, &rep);
  EXPECT_EQ(rep.violations, 0u);
}

TEST(GuardedTme, ViolationCallbackNamesTheStage) {
  const TestSystem sys = make_system(80, 25);
  std::vector<std::pair<GuardedStage, int>> seen;
  bool any = false;
  for (std::uint64_t seed = 1; seed <= 24 && !any; ++seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.sdc_rate = 5e-6;
    FaultInjector faults(cfg);
    GuardedTmePipeline pipeline(sys.box, small_params(), GuardedTmeConfig{},
                                &faults);
    seen.clear();
    pipeline.set_violation_callback(
        [&seen](GuardedStage s, int index) { seen.emplace_back(s, index); });
    GuardedTmeReport rep;
    (void)pipeline.compute(sys.positions, sys.charges, &rep);
    any = !seen.empty();
    if (any) {
      EXPECT_GT(rep.violations, 0u);
    }
  }
  EXPECT_TRUE(any);
}

// --- event simulator heartbeats + stall horizon ------------------------------

TEST(EventSim, HeartbeatReportsProgressPerTask) {
  EventSimulator sim;
  const TaskId a = sim.add_task({"a", "GP", 1.0, {}, -1});
  sim.add_task({"b", "PP", 2.0, {a}, -1});
  std::vector<std::size_t> beats;
  sim.set_heartbeat([&beats](std::size_t done, std::size_t total, double t) {
    EXPECT_EQ(total, 2u);
    EXPECT_GE(t, 0.0);
    beats.push_back(done);
  });
  sim.run();
  ASSERT_EQ(beats.size(), 2u);
  EXPECT_EQ(beats[0], 1u);
  EXPECT_EQ(beats[1], 2u);
  EXPECT_FALSE(sim.stalled());
}

TEST(EventSim, StallHorizonStopsARetryStorm) {
  EventSimulator sim;
  sim.set_retry_limit(1000);
  // One task whose retries push the next task's start far past the horizon.
  TaskSpec storm{"storm", "NW", 1.0, {}, 0};
  storm.failures = 500;
  storm.retry_penalty = 1.0;
  const TaskId s = sim.add_task(storm);
  sim.add_task({"after", "NW", 1.0, {s}, 0});
  sim.set_stall_horizon(10.0);
  const auto schedule = sim.run();
  EXPECT_TRUE(sim.stalled());
  EXPECT_FALSE(schedule[1].completed);
  EXPECT_GE(sim.failed_tasks(), 1u);
  EXPECT_THROW(sim.set_stall_horizon(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tme::hw

// --- health monitor (par layer) ----------------------------------------------

namespace tme::par {
namespace {

TEST(HealthMonitor, PromotesRepeatedViolationsIntoQuarantine) {
  TorusTopology topo(2, 2, 2);
  FaultInjector faults;
  HealthMonitor monitor(topo, faults, HealthConfig{3});

  EXPECT_FALSE(monitor.report_violation(5));
  EXPECT_FALSE(monitor.report_violation(5));
  EXPECT_FALSE(monitor.quarantined(5));
  EXPECT_TRUE(monitor.report_violation(5));  // third strike
  EXPECT_TRUE(monitor.quarantined(5));
  EXPECT_TRUE(faults.node_dead(5));
  EXPECT_EQ(monitor.quarantine_count(), 1u);
  EXPECT_EQ(monitor.violations(5), 3u);

  // The rebuilt plan re-homes the node's blocks onto a survivor.
  ASSERT_NE(monitor.plan(), nullptr);
  EXPECT_NE(monitor.plan()->host(5), 5u);
  EXPECT_FALSE(faults.node_dead(monitor.plan()->host(5)));

  // Further reports keep counting but never re-quarantine.
  EXPECT_FALSE(monitor.report_violation(5));
  EXPECT_EQ(monitor.violations(5), 4u);
  EXPECT_EQ(monitor.quarantine_count(), 1u);
}

TEST(HealthMonitor, RefusesToKillTheLastSurvivor) {
  TorusTopology topo(1, 1, 1);
  FaultInjector faults;
  HealthMonitor monitor(topo, faults, HealthConfig{1});
  EXPECT_FALSE(monitor.report_violation(0));
  EXPECT_FALSE(monitor.quarantined(0));
  EXPECT_FALSE(faults.node_dead(0));
  EXPECT_EQ(monitor.refused_count(), 1u);
  EXPECT_THROW(HealthMonitor(topo, faults, HealthConfig{0}),
               std::invalid_argument);
}

TEST(HealthMonitor, AttributesConvLinesToOwningNodes) {
  TorusTopology topo(2, 2, 2);
  GridDecomposition decomp({16, 16, 16}, topo);
  // Axis 0 lines are flattened as line = gz * ny + gy; cell (0, 9, 12) lives
  // in the node block (0, 1, 1).
  const std::size_t node = attribute_conv_line(decomp, 0, 12 * 16 + 9);
  EXPECT_EQ(node, topo.index({0, 1, 1}));
  EXPECT_EQ(attribute_conv_line(decomp, 2, 0), topo.index({0, 0, 0}));
}

}  // namespace
}  // namespace tme::par
