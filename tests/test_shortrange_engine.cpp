// Parallel short-range engine, tabulated kernel, and threaded particle-grid
// path tests: parallel-vs-serial equivalence across pool sizes (1, 2, and N
// participating threads), the buffered pair list's contract (bits never
// depend on the list's age, no pair inside the cutoff is ever missed, each
// topology is honoured), force-table accuracy against analytic erfc, and
// determinism of the threaded exclusion corrections.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/charge_assignment.hpp"
#include "ewald/force_table.hpp"
#include "ewald/long_range_solver.hpp"
#include "ewald/spme.hpp"
#include "ewald/splitting.hpp"
#include "md/forcefield.hpp"
#include "md/integrator.hpp"
#include "md/short_range.hpp"
#include "md/short_range_engine.hpp"
#include "md/water_box.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

// max_i |a_i - b_i| / max_i |b_i|.
double force_deviation(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, norm(a[i] - b[i]));
    scale = std::max(scale, norm(b[i]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

WaterBox test_box() {
  WaterBoxSpec spec;
  spec.molecules = 216;
  spec.seed = 7;
  WaterBox wb = build_water_box(spec);
  add_ion_pairs(wb, 4);  // several LJ types, non-trivial mixing table
  return wb;
}

ShortRangeParams test_params(const WaterBox& wb) {
  ShortRangeParams params;
  params.cutoff = std::min(0.9, 0.45 * wb.system.box.lengths.x);
  params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
  params.shift_lj = true;
  return params;
}

// --- force table -------------------------------------------------------------

TEST(ForceTable, MatchesAnalyticErfcWithinBound) {
  const double alpha = alpha_from_tolerance(1.2, 1e-4);
  const ForceTable table(alpha, 0.1, 1.2);
  // The constructor-measured bound must hold and sit below the 1e-6 target.
  EXPECT_LT(table.max_rel_error_energy(), 1e-6);
  EXPECT_LT(table.max_rel_error_force(), 1e-6);
  // Independent dense sampling (not the constructor's probe points).
  double worst_e = 0.0, worst_f = 0.0;
  for (int k = 0; k < 20000; ++k) {
    const double r = 0.1 + (1.2 - 0.1) * (k + 0.5) / 20000.0;
    const double r2 = r * r;
    const ForceTable::Sample tab = table.lookup(r2);
    const ForceTable::Sample ref = table.analytic(r2);
    worst_e = std::max(worst_e,
                       std::abs(tab.energy - ref.energy) / std::abs(ref.energy));
    worst_f = std::max(worst_f, std::abs(tab.force_over_r - ref.force_over_r) /
                                    std::abs(ref.force_over_r));
  }
  EXPECT_LT(worst_e, 1e-6);
  EXPECT_LT(worst_f, 1e-6);
}

TEST(ForceTable, FallsBackToAnalyticOutsideRange) {
  const ForceTable table(3.0, 0.1, 1.0);
  for (const double r : {0.01, 0.05, 0.0999, 1.001, 2.0}) {
    const ForceTable::Sample got = table.lookup(r * r);
    const ForceTable::Sample ref = table.analytic(r * r);
    EXPECT_EQ(got.energy, ref.energy);
    EXPECT_EQ(got.force_over_r, ref.force_over_r);
  }
}

TEST(ForceTable, RejectsBadArguments) {
  EXPECT_THROW(ForceTable(0.0, 0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 0.1, 1.0, 1), std::invalid_argument);
}

// --- engine vs serial reference ----------------------------------------------

TEST(ShortRangeEngine, AnalyticMatchesSerialAcrossPoolSizes) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, params);
  const std::vector<Vec3> f_serial = wb.system.forces;

  const ShortRangeEngine engine(params);
  for (const unsigned workers : {0u, 1u, 3u}) {  // 1, 2, and N threads total
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const ShortRangeResult r = engine.compute(wb.system, wb.topology, &pool);
    EXPECT_EQ(r.pair_count, serial.pair_count) << "workers=" << workers;
    EXPECT_NEAR(r.energy_coulomb, serial.energy_coulomb,
                1e-10 * std::abs(serial.energy_coulomb));
    EXPECT_NEAR(r.energy_lj, serial.energy_lj, 1e-10 * std::abs(serial.energy_lj));
    EXPECT_LT(force_deviation(wb.system.forces, f_serial), 1e-10)
        << "workers=" << workers;
  }
}

TEST(ShortRangeEngine, SamePoolSizeIsDeterministic) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();
  const ShortRangeEngine engine(params);
  ThreadPool pool(3);

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult a = engine.compute(wb.system, wb.topology, &pool);
  const std::vector<Vec3> f_a = wb.system.forces;
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult b = engine.compute(wb.system, wb.topology, &pool);
  EXPECT_EQ(a.energy_coulomb, b.energy_coulomb);
  EXPECT_EQ(a.energy_lj, b.energy_lj);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(f_a[i].x, wb.system.forces[i].x);
    EXPECT_EQ(f_a[i].y, wb.system.forces[i].y);
    EXPECT_EQ(f_a[i].z, wb.system.forces[i].z);
  }
}

TEST(ShortRangeEngine, ThirdLawNetForceCancelsWithinRoundingEnvelope) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();
  const ShortRangeEngine engine(params);

  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const ShortRangeResult r = engine.compute(wb.system, wb.topology, &pool);
    EXPECT_TRUE(r.third_law_ok) << "workers=" << workers;
    EXPECT_GT(r.net_force_tolerance, 0.0);
    EXPECT_LE(std::abs(r.net_force.x), r.net_force_tolerance);
    EXPECT_LE(std::abs(r.net_force.y), r.net_force_tolerance);
    EXPECT_LE(std::abs(r.net_force.z), r.net_force_tolerance);

    // Forces started at zero, so their sum is the engine's contribution too
    // (summed in a different order — both land inside the same envelope).
    Vec3 delta{};
    for (const Vec3& f : wb.system.forces) delta += f;
    EXPECT_LE(std::abs(delta.x), r.net_force_tolerance) << "workers=" << workers;
    EXPECT_LE(std::abs(delta.y), r.net_force_tolerance);
    EXPECT_LE(std::abs(delta.z), r.net_force_tolerance);
  }

  // abft_tolerance_scale = 0 collapses the envelope: the check must then
  // reject the (nonzero) rounding residual, proving the violation path and
  // the loosening knob are both wired through.
  ShortRangeParams strict = params;
  strict.abft_tolerance_scale = 0.0;
  const ShortRangeEngine zealot(strict);
  ThreadPool pool(3);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult rs = zealot.compute(wb.system, wb.topology, &pool);
  const bool exactly_zero = rs.net_force.x == 0.0 && rs.net_force.y == 0.0 &&
                            rs.net_force.z == 0.0;
  EXPECT_EQ(rs.third_law_ok, exactly_zero);
  EXPECT_FALSE(rs.third_law_ok);  // this box leaves a nonzero residual
}

TEST(ShortRangeEngine, TabulatedKernelTracksAnalyticForces) {
  WaterBox wb = test_box();
  ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();

  const ShortRangeEngine analytic(params);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult ra = analytic.compute(wb.system, wb.topology);
  const std::vector<Vec3> f_analytic = wb.system.forces;

  params.kernel = CoulombKernel::kTabulated;
  const ShortRangeEngine tabulated(params);
  ASSERT_NE(tabulated.force_table(), nullptr);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult rt = tabulated.compute(wb.system, wb.topology);

  EXPECT_EQ(rt.pair_count, ra.pair_count);
  EXPECT_LT(force_deviation(wb.system.forces, f_analytic), 1e-6);
  EXPECT_NEAR(rt.energy_coulomb, ra.energy_coulomb,
              1e-6 * std::abs(ra.energy_coulomb));
  // LJ is evaluated identically in both modes.
  EXPECT_EQ(rt.energy_lj, ra.energy_lj);
}

// --- buffered pair list ------------------------------------------------------

// One engine evaluation on a copy of the system (forces start at zero).
struct Evaluation {
  ShortRangeResult result;
  std::vector<Vec3> forces;
};

Evaluation evaluate(const ShortRangeEngine& engine, const ParticleSystem& system,
                    const Topology& topology, ThreadPool* pool = nullptr) {
  ParticleSystem copy = system;
  copy.forces.assign(copy.size(), Vec3{});
  Evaluation e;
  e.result = engine.compute(copy, topology, pool);
  e.forces = std::move(copy.forces);
  return e;
}

void expect_same_bits(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.result.pair_count, b.result.pair_count);
  EXPECT_EQ(std::memcmp(&a.result.energy_coulomb, &b.result.energy_coulomb, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.result.energy_lj, &b.result.energy_lj, sizeof(double)), 0);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  EXPECT_EQ(std::memcmp(a.forces.data(), b.forces.data(), a.forces.size() * sizeof(Vec3)), 0)
      << "forces are not bitwise identical";
}

// Pairs inside the cutoff and not excluded, by brute force.
std::size_t brute_force_pairs(const ParticleSystem& system, const Topology& topology,
                              double cutoff) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      const double r2 = norm2(system.box.min_image_disp(system.positions[i], system.positions[j]));
      if (r2 < cutoff * cutoff && r2 != 0.0 && !topology.excluded(i, j)) ++count;
    }
  }
  return count;
}

TEST(ShortRangeEngine, FreshListMatchesSerial) {
  WaterBoxSpec spec;
  spec.molecules = 216;
  WaterBox wb = build_water_box(spec);
  ShortRangeParams params;
  params.cutoff = 0.7;
  params.alpha = alpha_from_tolerance(0.7, 1e-4);
  const std::size_t n = wb.system.size();

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, params);
  const Evaluation fresh = evaluate(ShortRangeEngine(params), wb.system, wb.topology);

  EXPECT_EQ(fresh.result.pair_count, serial.pair_count);
  EXPECT_NEAR(fresh.result.energy_coulomb, serial.energy_coulomb, 1e-10);
  EXPECT_NEAR(fresh.result.energy_lj, serial.energy_lj, 1e-10);
  EXPECT_LT(force_deviation(fresh.forces, wb.system.forces), 1e-10);
}

// Random atoms in small and skewed boxes: axes with fewer than five build
// cells are scanned whole, longer ones through trimmed x-runs.
TEST(ShortRangeEngine, FreshListMatchesSerialOnSmallAndSkewedBoxes) {
  struct Case {
    Vec3 box;
    double cutoff;
  };
  for (const Case& c : {Case{{1.0, 1.0, 1.0}, 0.45}, Case{{3.0, 2.5, 4.0}, 0.7},
                        Case{{1.3, 2.9, 1.9}, 0.6}}) {
    SCOPED_TRACE(c.box);
    ParticleSystem sys;
    sys.box.lengths = c.box;
    sys.resize(300);
    Topology topo;
    topo.lj().assign(sys.size(), LjParams{0.2, 0.5});
    Rng rng(29);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      // Some coordinates outside the box, so wrapping is exercised too.
      sys.positions[i] = {rng.uniform(-0.5, 1.5) * c.box.x, rng.uniform(0.0, c.box.y),
                          rng.uniform(0.0, c.box.z)};
      sys.charges[i] = rng.uniform(-1.0, 1.0);
      if (i % 2 == 1) topo.add_exclusion(i - 1, i);
    }
    topo.finalize(sys.size());
    ShortRangeParams params;
    params.cutoff = c.cutoff;
    params.alpha = 3.0;

    sys.forces.assign(sys.size(), Vec3{});
    const ShortRangeResult serial = compute_short_range(sys, topo, params);
    const Evaluation fresh = evaluate(ShortRangeEngine(params), sys, topo);
    EXPECT_EQ(fresh.result.pair_count, serial.pair_count);
    EXPECT_EQ(fresh.result.pair_count, brute_force_pairs(sys, topo, params.cutoff));
    EXPECT_LT(force_deviation(fresh.forces, sys.forces), 1e-10);
  }
}

TEST(ShortRangeEngine, ReusedListStaysExactWithinBuffer) {
  WaterBoxSpec spec;
  spec.molecules = 125;
  WaterBox wb = build_water_box(spec);
  ShortRangeParams params;
  params.cutoff = 0.6;
  params.alpha = 3.0;
  const ShortRangeEngine engine(params);

  Rng rng(3);
  for (int step = 0; step < 6; ++step) {
    // Small random moves: their running total stays inside the buffer.
    if (step > 0) {
      for (auto& r : wb.system.positions) {
        r += Vec3{0.003 * rng.normal(), 0.003 * rng.normal(), 0.003 * rng.normal()};
      }
    }
    const Evaluation reused = evaluate(engine, wb.system, wb.topology);
    wb.system.forces.assign(wb.system.size(), Vec3{});
    const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, params);
    EXPECT_EQ(reused.result.pair_count, serial.pair_count) << "step " << step;
    EXPECT_NEAR(reused.result.energy_coulomb, serial.energy_coulomb, 1e-9);
    expect_same_bits(reused, evaluate(ShortRangeEngine(params), wb.system, wb.topology));
  }
  // Every step after the first reused the list.
  EXPECT_EQ(engine.list_builds(), 1u);
}

TEST(ShortRangeEngine, RebuildTriggeredByLargeMove) {
  WaterBoxSpec spec;
  spec.molecules = 64;
  WaterBox wb = build_water_box(spec);
  ShortRangeParams params;
  params.cutoff = 0.6;
  params.alpha = 3.0;
  const ShortRangeEngine engine(params);
  EXPECT_EQ(engine.list_builds(), 0u);
  evaluate(engine, wb.system, wb.topology);
  EXPECT_EQ(engine.list_builds(), 1u);
  evaluate(engine, wb.system, wb.topology);
  EXPECT_EQ(engine.list_builds(), 1u);
  wb.system.positions[0].x += ShortRangeEngine::kListBuffer + 0.01;
  evaluate(engine, wb.system, wb.topology);
  EXPECT_EQ(engine.list_builds(), 2u);
  // A box change invalidates the list as well.
  wb.system.box.lengths.x *= 1.01;
  evaluate(engine, wb.system, wb.topology);
  EXPECT_EQ(engine.list_builds(), 3u);
}

// The contract: a warm engine whose list was built k steps ago returns the
// same bits as a fresh engine on the same frame, at every pool size.
TEST(ShortRangeEngine, ListAgeNeverChangesTheBits) {
  WaterBox wb = test_box();
  ShortRangeParams params = test_params(wb);
  params.kernel = CoulombKernel::kTabulated;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads - 1);
    ParticleSystem sys = wb.system;
    // Off the builder's lattice, whose planes sit mid-cell in the list's
    // cell grid, so atoms will cross cells below.
    Rng rng(41);
    for (Vec3& r : sys.positions) {
      r += Vec3{0.15 + 0.02 * rng.normal(), 0.15 + 0.02 * rng.normal(),
                0.15 + 0.02 * rng.normal()};
    }
    const ShortRangeEngine warm(params);
    evaluate(warm, sys, wb.topology, &pool);
    // Every atom walks a straight line, 0.44 of the buffer in 8 steps: the
    // two largest moves stay inside the buffer, but many atoms change build
    // cells, so a fresh list orders its candidates differently.
    std::vector<Vec3> step(sys.size());
    for (Vec3& v : step) {
      v = Vec3{rng.normal(), rng.normal(), rng.normal()};
      v *= 0.055 * ShortRangeEngine::kListBuffer / norm(v);
    }
    for (int k = 1; k <= 8; ++k) {
      for (std::size_t i = 0; i < sys.size(); ++i) sys.positions[i] += step[i];
      const Evaluation aged = evaluate(warm, sys, wb.topology, &pool);
      ASSERT_EQ(warm.list_builds(), 1u) << "the list was rebuilt at age " << k;
      expect_same_bits(aged, evaluate(ShortRangeEngine(params), sys, wb.topology, &pool));
    }
  }
}

TEST(ShortRangeEngine, NoPairInsideTheCutoffIsMissedOverAnNveRun) {
  WaterBoxSpec spec;
  spec.molecules = 216;
  spec.temperature = 300.0;
  WaterBox wb = build_water_box(spec);
  ShortRangeParams sr;
  sr.cutoff = 0.7;
  sr.alpha = alpha_from_tolerance(sr.cutoff, 1e-4);
  sr.shift_lj = true;
  SpmeParams sp;
  sp.alpha = sr.alpha;
  sp.grid = {16, 16, 16};
  const ForceField ff(sr, make_spme_solver(wb.system.box, sp));
  IntegratorParams ip;
  ip.dt = 0.002;
  const VelocityVerlet integrator(wb.topology, wb.system, ip);
  integrator.prime(wb.system, wb.topology, ff);

  const ShortRangeEngine& engine = ff.short_range_engine();
  for (int step = 0; step < 200; ++step) {
    integrator.step(wb.system, wb.topology, ff);
    // The integrator's own engine, so the list under test is the one the
    // trajectory ages.
    const Evaluation e = evaluate(engine, wb.system, wb.topology);
    ASSERT_EQ(e.result.pair_count, brute_force_pairs(wb.system, wb.topology, sr.cutoff))
        << "step " << step;
  }
  // The run exercised both reuse and rebuilds.
  EXPECT_GT(engine.list_builds(), 2u);
  EXPECT_LT(engine.list_builds(), 100u);
}

TEST(ShortRangeEngine, HonoursEachTopologyInTurn) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const Topology& with_exclusions = wb.topology;
  Topology without;  // same atoms and LJ, no exclusions
  without.lj() = with_exclusions.lj();
  without.finalize(wb.system.size());
  ASSERT_FALSE(with_exclusions.exclusions().empty());

  const ShortRangeEngine engine(params);
  for (int round = 0; round < 2; ++round) {
    for (const Topology* topology : {&with_exclusions, static_cast<const Topology*>(&without)}) {
      const Evaluation shared = evaluate(engine, wb.system, *topology);
      EXPECT_EQ(shared.result.pair_count,
                brute_force_pairs(wb.system, *topology, params.cutoff));
      expect_same_bits(shared, evaluate(ShortRangeEngine(params), wb.system, *topology));
    }
  }
}

// Two threads share one engine, each with its own frame and pool: the
// cached list is rebuilt back and forth under the engine's lock, and every
// result still matches a fresh engine.
TEST(ShortRangeEngine, ConcurrentCallersSerialise) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  ParticleSystem moved = wb.system;
  for (auto& r : moved.positions) r.x += 2.0 * ShortRangeEngine::kListBuffer;
  const ParticleSystem* frames[] = {&wb.system, &moved};
  Evaluation want[2];
  for (int f = 0; f < 2; ++f) {
    ThreadPool pool(0);
    want[f] = evaluate(ShortRangeEngine(params), *frames[f], wb.topology, &pool);
  }

  const ShortRangeEngine shared(params);
  Evaluation got[2][4];
  std::vector<std::thread> callers;
  for (int f = 0; f < 2; ++f) {
    callers.emplace_back([&, f] {
      ThreadPool pool(0);
      for (Evaluation& e : got[f]) e = evaluate(shared, *frames[f], wb.topology, &pool);
    });
  }
  for (std::thread& t : callers) t.join();
  for (int f = 0; f < 2; ++f) {
    for (const Evaluation& e : got[f]) expect_same_bits(e, want[f]);
  }
}

TEST(ShortRangeEngine, NanPositionGivesNonFiniteForceWithoutCrashing) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const ShortRangeEngine engine(params);
  const Evaluation clean = evaluate(engine, wb.system, wb.topology);

  ParticleSystem poisoned = wb.system;
  poisoned.positions[5].y = std::numeric_limits<double>::quiet_NaN();
  const Evaluation bad = evaluate(engine, poisoned, wb.topology);
  const Vec3& f = bad.forces[5];
  EXPECT_FALSE(std::isfinite(f.x) && std::isfinite(f.y) && std::isfinite(f.z));

  // Back on the clean frame, the NaN-built list is stale and the bits return.
  expect_same_bits(evaluate(engine, wb.system, wb.topology), clean);
}

// The sweep's minimum image needs the cutoff below half of every box length.
TEST(ShortRangeEngine, RejectsACutoffOfHalfABoxLength) {
  WaterBox wb = test_box();
  ShortRangeParams params = test_params(wb);
  params.cutoff = 0.5 * wb.system.box.lengths.x;
  EXPECT_THROW(evaluate(ShortRangeEngine(params), wb.system, wb.topology),
               std::invalid_argument);
  ParticleSystem flat = wb.system;
  flat.box.lengths.z = 1.9 * test_params(wb).cutoff;
  EXPECT_THROW(evaluate(ShortRangeEngine(test_params(wb)), flat, wb.topology),
               std::invalid_argument);
}

// FNV-1a-64 over the force bits, then energy_coulomb and energy_lj.
std::uint64_t hash_bits(const Evaluation& e) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= c[k];
      h *= 0x100000001b3ull;
    }
  };
  feed(e.forces.data(), e.forces.size() * sizeof(Vec3));
  feed(&e.result.energy_coulomb, sizeof(double));
  feed(&e.result.energy_lj, sizeof(double));
  return h;
}

// Random atoms (some outside the box) of two LJ types, with exclusions, in a
// small skewed box.
struct Frame {
  ParticleSystem system;
  Topology topology;
};

Frame random_small_box_frame() {
  Frame f;
  f.system.box.lengths = {1.3, 2.9, 1.9};
  f.system.resize(300);
  Rng rng(61);
  for (std::size_t i = 0; i < f.system.size(); ++i) {
    f.system.positions[i] = {rng.uniform(-0.5, 1.5) * 1.3, rng.uniform(0.0, 2.9),
                             rng.uniform(0.0, 1.9)};
    f.system.charges[i] = rng.uniform(-1.0, 1.0);
  }
  f.topology.lj().resize(f.system.size());
  for (std::size_t i = 0; i < f.system.size(); ++i) {
    f.topology.lj()[i] = i % 3 == 0 ? LjParams{0.32, 0.65} : LjParams{0.2, 0.5};
    if (i % 2 == 1) f.topology.add_exclusion(i - 1, i);
  }
  f.topology.finalize(f.system.size());
  return f;
}

// The force and energy bits of both Coulomb kernels at pool sizes 1, 2 and 3
// on two frames, pinned as hashes.  They hold for every build whose simd::fma
// is fused, under TME_SIMD=scalar and native alike.
TEST(ShortRangeEngine, ForcesKeepTheParentBits) {
  if (!simd::kFmaFused) GTEST_SKIP() << "hashes are for builds with fused fma";
  const WaterBox wb = test_box();
  const Frame small = random_small_box_frame();
  ShortRangeParams water_params = test_params(wb);
  ShortRangeParams small_params;
  small_params.cutoff = 0.6;
  small_params.alpha = 3.0;
  small_params.shift_lj = true;
  struct Case {
    const char* name;
    const ParticleSystem* system;
    const Topology* topology;
    ShortRangeParams* params;
    CoulombKernel kernel;
    std::uint64_t hash[3];  // pool sizes 1, 2, 3
  };
  const Case cases[] = {
      {"water/analytic", &wb.system, &wb.topology, &water_params, CoulombKernel::kAnalytic,
       {0x8b9350a691e0b719ull, 0xf364419f833d3fbeull, 0x6cc344471c2860bfull}},
      {"water/tabulated", &wb.system, &wb.topology, &water_params, CoulombKernel::kTabulated,
       {0x52a261f43a90fd85ull, 0x7db86dc0e68d2990ull, 0xde3a1b50980b9ea3ull}},
      {"small/analytic", &small.system, &small.topology, &small_params, CoulombKernel::kAnalytic,
       {0x7f54b0fb5e56cd64ull, 0x7c900d217ac109d7ull, 0xb691cf8abec24ccbull}},
      {"small/tabulated", &small.system, &small.topology, &small_params,
       CoulombKernel::kTabulated,
       {0x02a552c576287757ull, 0xce39c84bb5f3ad3cull, 0xe74d4fa4a8e60cc6ull}},
  };
  for (const Case& c : cases) {
    c.params->kernel = c.kernel;
    const ShortRangeEngine engine(*c.params);
    for (unsigned threads = 1; threads <= 3; ++threads) {
      ThreadPool pool(threads - 1);
      const std::uint64_t h =
          hash_bits(evaluate(engine, *c.system, *c.topology, &pool));
      EXPECT_EQ(h, c.hash[threads - 1])
          << c.name << " threads=" << threads << std::hex << " hash=0x" << h;
    }
  }
}

// --- threaded charge spreading -----------------------------------------------

TEST(ChargeAssignment, ThreadedSpreadMatchesSerialAcrossPoolSizes) {
  const Box box{{2.0, 2.0, 2.0}};
  Rng rng(99);
  const std::size_t n = 500;
  std::vector<Vec3> pos(n);
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  const ChargeAssigner assigner(box, {16, 16, 16}, 6);

  ThreadPool serial_pool(0);
  const Grid3d serial = assigner.assign(pos, q, &serial_pool);
  double scale = serial.max_abs();
  for (const unsigned workers : {1u, 3u}) {
    ThreadPool pool(workers);
    const Grid3d threaded = assigner.assign(pos, q, &pool);
    double worst = 0.0;
    for (std::size_t g = 0; g < serial.size(); ++g) {
      worst = std::max(worst, std::abs(threaded[g] - serial[g]));
    }
    EXPECT_LT(worst, 1e-12 * scale) << "workers=" << workers;
  }
}

// --- threaded exclusion corrections ------------------------------------------

TEST(ExclusionCorrections, BitwiseStableAcrossPoolSizes) {
  WaterBox wb = test_box();
  const double alpha = 3.0;
  const std::size_t n = wb.system.size();
  ASSERT_FALSE(wb.topology.exclusions().empty());

  ThreadPool serial_pool(0);
  wb.system.forces.assign(n, Vec3{});
  const double e_serial =
      apply_exclusion_corrections(wb.system, wb.topology, alpha, &serial_pool);
  const std::vector<Vec3> f_serial = wb.system.forces;

  for (const unsigned workers : {1u, 3u}) {
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const double e =
        apply_exclusion_corrections(wb.system, wb.topology, alpha, &pool);
    EXPECT_EQ(e, e_serial) << "workers=" << workers;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(wb.system.forces[i].x, f_serial[i].x);
      EXPECT_EQ(wb.system.forces[i].y, f_serial[i].y);
      EXPECT_EQ(wb.system.forces[i].z, f_serial[i].z);
    }
  }
}

// --- TME_THREADS parsing -----------------------------------------------------

TEST(PoolSizing, WorkersFromEnv) {
  // Valid overrides: TME_THREADS is the total participating thread count.
  EXPECT_EQ(pool_workers_from_env("1", 8), 0u);
  EXPECT_EQ(pool_workers_from_env("4", 8), 3u);
  EXPECT_EQ(pool_workers_from_env("16", 2), 15u);
  // Unset / invalid values fall back to hardware_concurrency - 1.
  EXPECT_EQ(pool_workers_from_env(nullptr, 8), 7u);
  EXPECT_EQ(pool_workers_from_env("", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("0", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("-2", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("abc", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("4x", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("99999", 8), 7u);
  // Degenerate hardware report still yields a valid (serial) pool.
  EXPECT_EQ(pool_workers_from_env(nullptr, 0), 0u);
}

}  // namespace
}  // namespace tme
