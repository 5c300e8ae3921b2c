#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "par/decomposition.hpp"
#include "par/halo.hpp"
#include "par/par_tme.hpp"
#include "grid/separable_conv.hpp"
#include "par/traffic.hpp"
#include "util/rng.hpp"

namespace tme::par {
namespace {

struct TestSystem {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

TestSystem random_system(std::size_t n, double box_length, std::uint64_t seed) {
  TestSystem sys;
  sys.box.lengths = {box_length, box_length, box_length};
  Rng rng(seed);
  sys.positions.resize(n);
  sys.charges.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                        rng.uniform(0.0, box_length)};
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    total += sys.charges[i];
  }
  for (auto& q : sys.charges) q -= total / static_cast<double>(n);
  return sys;
}

TmeParams default_params(double alpha) {
  TmeParams tp;
  tp.alpha = alpha;
  tp.grid = {32, 32, 32};
  tp.levels = 1;
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  return tp;
}

// --- decomposition -----------------------------------------------------------

TEST(Decomposition, OwnerAndOriginsAreConsistent) {
  const TorusTopology topo(4, 2, 2);
  const GridDecomposition d({32, 32, 32}, topo);
  EXPECT_EQ(d.local().nx, 8u);
  EXPECT_EQ(d.local().ny, 16u);
  EXPECT_EQ(d.local().nz, 16u);
  const NodeCoord owner = d.owner(9, 17, 3);
  EXPECT_EQ(owner.x, 1u);
  EXPECT_EQ(owner.y, 1u);
  EXPECT_EQ(owner.z, 0u);
  // Negative / beyond-period coordinates wrap.
  EXPECT_EQ(d.owner(-1, 0, 0).x, 3u);
  EXPECT_EQ(d.owner(32, 0, 0).x, 0u);
}

TEST(Decomposition, RejectsUnevenSplit) {
  const TorusTopology topo(3, 2, 2);
  EXPECT_THROW(GridDecomposition({32, 32, 32}, topo), std::invalid_argument);
}

TEST(Decomposition, AtomAssignmentCoversAllNodesUniformly) {
  const TorusTopology topo(2, 2, 2);
  const TestSystem sys = random_system(4000, 4.0, 3);
  const auto owners = assign_atoms_to_nodes(sys.box, sys.positions, topo);
  std::vector<std::size_t> counts(topo.node_count(), 0);
  for (const std::size_t o : owners) {
    ASSERT_LT(o, topo.node_count());
    ++counts[o];
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 500.0, 120.0);
  }
}

TEST(DistributedGrid, DistributeAssembleRoundTrip) {
  for (const auto& [dims, topo] : {std::pair{GridDims{16, 16, 16}, TorusTopology(2, 2, 2)},
                                   std::pair{GridDims{16, 8, 8}, TorusTopology(4, 2, 2)}}) {
    const GridDecomposition d(dims, topo);
    Grid3d g(d.global());
    Rng rng(4);
    for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
    const DistributedGrid dist = DistributedGrid::distribute(g, d);
    // Every block holds the cells of its node's origin.
    const GridDims& l = d.local();
    for (std::size_t n = 0; n < topo.node_count(); ++n) {
      const NodeCoord c = topo.coord(n);
      for (std::size_t i = 0; i < l.total(); ++i) {
        const std::size_t lx = i % l.nx, ly = i / l.nx % l.ny, lz = i / (l.nx * l.ny);
        ASSERT_EQ(dist.block(n).at(lx, ly, lz),
                  g.at(d.origin_x(c) + lx, d.origin_y(c) + ly, d.origin_z(c) + lz));
      }
    }
    const Grid3d back = dist.assemble();
    for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(back[i], g[i]);
  }
}

// --- traffic log -------------------------------------------------------------

TEST(TrafficLog, AccumulatesByPhase) {
  TrafficLog log;
  log.add("a", 1, 100, 2);
  log.add("a", 2, 50, 3);
  log.add("b", 1, 10, 1);
  EXPECT_EQ(log.phases().size(), 2u);
  EXPECT_EQ(log.words_in("a"), 150u);
  EXPECT_EQ(log.words_in("b"), 10u);
  EXPECT_EQ(log.words_in("absent"), 0u);
  EXPECT_EQ(log.total_messages(), 4u);
  EXPECT_EQ(log.total_words(), 160u);
  EXPECT_EQ(log.phases()[0].max_hops, 3u);
}

// --- parallel TME ------------------------------------------------------------

class ParallelTmeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = random_system(400, 6.4, 7);
    alpha_ = alpha_from_tolerance(0.8, 1e-4);
  }
  TestSystem sys_;
  double alpha_ = 0.0;
};

TEST_F(ParallelTmeTest, GridPipelineMatchesSerial) {
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);

  // Random finest-grid charges through both pipelines.
  Grid3d q(tp.grid);
  Rng rng(9);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);

  const Grid3d serial_phi = par.serial().solve_potential(q);
  const GridDecomposition decomp(tp.grid, par.topology());
  TrafficLog log;
  const DistributedGrid par_phi =
      par.solve_potential(DistributedGrid::distribute(q, decomp), &log);
  const Grid3d assembled = par_phi.assemble();

  double worst = 0.0;
  for (std::size_t i = 0; i < serial_phi.size(); ++i) {
    worst = std::max(worst, std::abs(assembled[i] - serial_phi[i]));
  }
  EXPECT_LT(worst, 1e-10 * serial_phi.max_abs());
  EXPECT_GT(log.total_words(), 0u);
}

TEST_F(ParallelTmeTest, ForcesAndEnergyMatchSerial) {
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(2, 2, 2);
  const ParallelTme par(sys_.box, tp, topo);

  const CoulombResult serial = par.serial().compute(sys_.positions, sys_.charges);
  TrafficLog log;
  const CoulombResult parallel = par.compute(sys_.positions, sys_.charges, &log);

  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < serial.forces.size(); ++i) {
    worst = std::max(worst, norm(parallel.forces[i] - serial.forces[i]));
    scale = std::max(scale, norm(serial.forces[i]));
  }
  EXPECT_LT(worst, 1e-10 * scale);
}

// Through the LongRangeSolver interface (how a ForceField runs it) the
// result is bitwise the logged evaluation's, and describe() names the torus
// and the executor.
TEST_F(ParallelTmeTest, LongRangeSolverInterfaceMatchesLoggedCompute) {
  const TorusTopology topo(2, 2, 1);
  const ParallelTme par(sys_.box, default_params(alpha_), topo);
  const LongRangeSolver& solver = par;
  TrafficLog log;
  const CoulombResult want = par.compute(sys_.positions, sys_.charges, &log);
  const CoulombResult got = solver.compute(sys_.positions, sys_.charges);
  EXPECT_EQ(got.energy, want.energy);
  ASSERT_EQ(got.forces.size(), want.forces.size());
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    EXPECT_EQ(got.forces[i].x, want.forces[i].x);
    EXPECT_EQ(got.forces[i].y, want.forces[i].y);
    EXPECT_EQ(got.forces[i].z, want.forces[i].z);
  }
  EXPECT_EQ(solver.name(), "par_tme");
  EXPECT_EQ(solver.alpha(), alpha_);
  const obs::JsonValue d = solver.describe();
  EXPECT_EQ(d.at("backend").as_string(), "par_tme");
  EXPECT_EQ(d.at("torus").as_string(), "2x2x1");
  EXPECT_EQ(d.at("executor").as_string(), "serial");
}

TEST_F(ParallelTmeTest, NetChargedEnergyMatchesSerial) {
  // A +1 e cell: the neutralising background is part of the contract too.
  TestSystem sys = random_system(400, 3.2, 11);
  sys.charges[0] += 1.0;
  const ParallelTme par(sys.box, default_params(2.5), TorusTopology(2, 2, 2));

  const CoulombResult serial = par.serial().compute(sys.positions, sys.charges);
  const CoulombResult parallel = par.compute(sys.positions, sys.charges, nullptr);

  ASSERT_LT(serial.energy_background, 0.0);
  EXPECT_EQ(parallel.energy_background, serial.energy_background);
  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
}

TEST_F(ParallelTmeTest, ResultIndependentOfDecomposition) {
  const TmeParams tp = default_params(alpha_);
  const ParallelTme p2(sys_.box, tp, TorusTopology(2, 2, 2));
  const ParallelTme p4(sys_.box, tp, TorusTopology(4, 4, 4));
  const ParallelTme p_aniso(sys_.box, tp, TorusTopology(4, 2, 1));
  const CoulombResult r2 = p2.compute(sys_.positions, sys_.charges, nullptr);
  const CoulombResult r4 = p4.compute(sys_.positions, sys_.charges, nullptr);
  const CoulombResult ra = p_aniso.compute(sys_.positions, sys_.charges, nullptr);
  EXPECT_NEAR(r2.energy, r4.energy, 1e-9 * std::abs(r2.energy));
  EXPECT_NEAR(r2.energy, ra.energy, 1e-9 * std::abs(r2.energy));
  for (std::size_t i = 0; i < r2.forces.size(); ++i) {
    EXPECT_LT(norm(r2.forces[i] - r4.forces[i]), 1e-8);
    EXPECT_LT(norm(r2.forces[i] - ra.forces[i]), 1e-8);
  }
}

TEST_F(ParallelTmeTest, ConvolutionTrafficMatchesCostModel) {
  // Paper Sec. III.C: level-1 convolution receives (2 + 4M) gamma^2 g_c^3
  // words per node.  Measure it on the 8^3-node, 32^3-grid, g_c = 8, M = 4
  // configuration of the machine (gamma = 0.5).
  TmeParams tp = default_params(alpha_);
  const TorusTopology topo(8, 8, 8);
  const ParallelTme par(sys_.box, tp, topo);
  const GridDecomposition decomp(tp.grid, par.topology());

  Grid3d q(tp.grid);
  Rng rng(11);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  TrafficLog log;
  (void)par.solve_potential(DistributedGrid::distribute(q, decomp), &log);

  const CostModelInput in{4, 8, 4};  // N/P = 32/8, g_c = 8, M = 4
  const double predicted = tme_level1_cost(in).comm;  // words per node
  const double measured =
      static_cast<double>(log.words_in("level convolution")) /
      static_cast<double>(topo.node_count());
  EXPECT_NEAR(measured, predicted, 0.01 * predicted);
}

TEST_F(ParallelTmeTest, ConvolutionTrafficMatchesCostModelAtGammaOne) {
  // Same check at gamma = 1 (N/P = 8): 4^3 nodes over the 32^3 grid.
  TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);
  const GridDecomposition decomp(tp.grid, par.topology());

  Grid3d q(tp.grid);
  Rng rng(13);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  TrafficLog log;
  (void)par.solve_potential(DistributedGrid::distribute(q, decomp), &log);

  const CostModelInput in{8, 8, 4};
  const double predicted = tme_level1_cost(in).comm;
  const double measured =
      static_cast<double>(log.words_in("level convolution")) /
      static_cast<double>(topo.node_count());
  EXPECT_NEAR(measured, predicted, 0.01 * predicted);
}

TEST_F(ParallelTmeTest, TransferPhasesAreCheapRelativeToConvolution) {
  // The paper's rationale for the B-spline hierarchy: restriction and
  // prolongation move far less data than the kernel convolution.
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);
  TrafficLog log;
  (void)par.compute(sys_.positions, sys_.charges, &log);
  EXPECT_LT(log.words_in("restriction halo"), log.words_in("level convolution"));
  EXPECT_LT(log.words_in("prolongation halo"), log.words_in("level convolution"));
  EXPECT_GT(log.words_in("CA sleeve exchange"), 0u);
  EXPECT_GT(log.words_in("BI grid transfer"), 0u);
  EXPECT_GT(log.words_in("TMENW gather"), 0u);
}

TEST(ParallelMsm, HaloTrafficMatchesCostModelExactly) {
  // The paper's MSM communication formula (8 + 12 gamma + 6 gamma^2) g_c^3
  // is the halo volume of the dense convolution — measure it.
  const int gc = 8;
  Grid3d in(32, 32, 32);
  Rng rng(23);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  std::vector<double> taps((2 * gc + 1) * (2 * gc + 1) * (2 * gc + 1), 0.0);
  taps[taps.size() / 2] = 1.0;  // delta: convolution math is not the point

  for (const std::size_t nodes : {8u, 4u}) {  // gamma = 0.5 and 1
    const TorusTopology topo(nodes, nodes, nodes);
    TrafficLog log;
    (void)parallel_msm_convolution(in, taps, gc, topo, &log);
    const double measured = static_cast<double>(log.words_in("MSM dense halo")) /
                            static_cast<double>(topo.node_count());
    const CostModelInput op{static_cast<int>(32 / nodes), gc, 4};
    const double predicted = msm_level1_cost(op).comm;
    EXPECT_NEAR(measured, predicted, 1e-9) << "nodes " << nodes;
  }
}

TEST(ParallelMsm, DenseConvolutionMatchesSerial) {
  const int gc = 4;
  Grid3d in(16, 16, 16);
  Rng rng(29);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  std::vector<double> taps;
  Rng rng2(31);
  for (int i = 0; i < (2 * gc + 1) * (2 * gc + 1) * (2 * gc + 1); ++i) {
    taps.push_back(rng2.uniform(-0.1, 0.1));
  }
  Grid3d serial(in.dims());
  convolve_dense3d(in, taps, gc, serial);
  const TorusTopology topo(2, 2, 2);
  const Grid3d parallel = parallel_msm_convolution(in, taps, gc, topo, nullptr);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(parallel[i], serial[i], 1e-12);
  }
}

TEST(ParallelTmeTwoLevel, MatchesSerialWithDeeperHierarchy) {
  const TestSystem sys = random_system(200, 6.4, 21);
  TmeParams tp;
  tp.alpha = alpha_from_tolerance(0.8, 1e-4);
  tp.grid = {32, 32, 32};
  tp.levels = 2;
  tp.grid_cutoff = 6;
  tp.num_gaussians = 3;
  const ParallelTme par(sys.box, tp, TorusTopology(2, 2, 2));
  const CoulombResult serial = par.serial().compute(sys.positions, sys.charges);
  const CoulombResult parallel = par.compute(sys.positions, sys.charges, nullptr);
  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
  for (std::size_t i = 0; i < serial.forces.size(); ++i) {
    EXPECT_LT(norm(parallel.forces[i] - serial.forces[i]), 1e-8);
  }
}

// --- halo staging ------------------------------------------------------------

// The per-cell staging loops the row-run import_halo/export_sleeves replace:
// an owner lookup and three modulos per cell, words counted per peer and
// logged in node order (healthy machine).
void per_cell_import(const DistributedGrid& grid, const GridDecomposition& decomp,
                     const NodeCoord& me, ExtendedBlock& buffer,
                     const std::string& phase, TrafficLog* log) {
  const GridDims& local = decomp.local();
  const TorusTopology& topo = decomp.topology();
  std::vector<std::size_t> words_from(topo.node_count(), 0);
  for (long gz = buffer.z0; gz < buffer.z0 + static_cast<long>(buffer.nz); ++gz) {
    for (long gy = buffer.y0; gy < buffer.y0 + static_cast<long>(buffer.ny); ++gy) {
      for (long gx = buffer.x0; gx < buffer.x0 + static_cast<long>(buffer.nx); ++gx) {
        const std::size_t src = topo.index(decomp.owner(gx, gy, gz));
        buffer.at(gx, gy, gz) = grid.block(src).at(
            Grid3d::wrap(gx, decomp.global().nx) % local.nx,
            Grid3d::wrap(gy, decomp.global().ny) % local.ny,
            Grid3d::wrap(gz, decomp.global().nz) % local.nz);
        if (src != topo.index(me)) ++words_from[src];
      }
    }
  }
  for (std::size_t src = 0; src < words_from.size(); ++src) {
    if (words_from[src] == 0) continue;
    log->add(phase, 1, words_from[src], topo.hops(topo.coord(src), me));
  }
}

void per_cell_export(DistributedGrid& grid, const GridDecomposition& decomp,
                     const NodeCoord& me, const ExtendedBlock& buffer,
                     const std::string& phase, TrafficLog* log) {
  const GridDims& local = decomp.local();
  const TorusTopology& topo = decomp.topology();
  std::vector<std::size_t> words_to(topo.node_count(), 0);
  for (long gz = buffer.z0; gz < buffer.z0 + static_cast<long>(buffer.nz); ++gz) {
    for (long gy = buffer.y0; gy < buffer.y0 + static_cast<long>(buffer.ny); ++gy) {
      for (long gx = buffer.x0; gx < buffer.x0 + static_cast<long>(buffer.nx); ++gx) {
        const double v = buffer.at(gx, gy, gz);
        if (v == 0.0) continue;
        const std::size_t dst = topo.index(decomp.owner(gx, gy, gz));
        grid.block(dst).at(Grid3d::wrap(gx, decomp.global().nx) % local.nx,
                           Grid3d::wrap(gy, decomp.global().ny) % local.ny,
                           Grid3d::wrap(gz, decomp.global().nz) % local.nz) += v;
        if (dst != topo.index(me)) ++words_to[dst];
      }
    }
  }
  for (std::size_t dst = 0; dst < words_to.size(); ++dst) {
    if (words_to[dst] == 0) continue;
    log->add(phase, 1, words_to[dst], topo.hops(me, topo.coord(dst)));
  }
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_log(const TrafficLog& a, const TrafficLog& b) {
  ASSERT_EQ(a.phases().size(), b.phases().size());
  for (std::size_t i = 0; i < a.phases().size(); ++i) {
    const PhaseTraffic& x = a.phases()[i];
    const PhaseTraffic& y = b.phases()[i];
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.messages, y.messages) << x.phase;
    EXPECT_EQ(x.words, y.words) << x.phase;
    EXPECT_EQ(x.max_hops, y.max_hops) << x.phase;
    EXPECT_EQ(x.word_hops, y.word_hops) << x.phase;
  }
}

// Every node's buffer at its block origin minus `reach` on each side, plus a
// few off-centre buffers with negative origins: the staging must match the
// per-cell loops in values, accumulation order and traffic.
void check_staging(GridDims level, const TorusTopology& topo, long reach,
                   std::uint64_t seed) {
  const GridDecomposition decomp(level, topo);
  Rng rng(seed);
  Grid3d values(level);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = rng.uniform(-1.0, 1.0);
  const DistributedGrid grid = DistributedGrid::distribute(values, decomp);
  DistributedGrid sum_runs = DistributedGrid::distribute(values, decomp);
  DistributedGrid sum_cells = DistributedGrid::distribute(values, decomp);
  TrafficLog log_runs, log_cells;

  const GridDims& local = decomp.local();
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeCoord me = topo.coord(n);
    const long shift = static_cast<long>(n % 3) - 1;  // -1, 0, +1
    std::vector<ExtendedBlock> buffers(2);
    buffers[0].reset(static_cast<long>(decomp.origin_x(me)) - reach,
                     static_cast<long>(decomp.origin_y(me)) - reach,
                     static_cast<long>(decomp.origin_z(me)) - reach,
                     local.nx + 2 * static_cast<std::size_t>(reach),
                     local.ny + 2 * static_cast<std::size_t>(reach),
                     local.nz + 2 * static_cast<std::size_t>(reach));
    buffers[1].reset(-reach - 3 + shift, -2 * reach + shift, -1,
                     level.nx + static_cast<std::size_t>(reach) + 5, 3,
                     local.nz + static_cast<std::size_t>(reach));
    for (ExtendedBlock& b : buffers) {
      ExtendedBlock by_runs = b, by_cells = b;
      import_halo(grid, decomp, me, by_runs, "import", &log_runs);
      per_cell_import(grid, decomp, me, by_cells, "import", &log_cells);
      EXPECT_TRUE(bitwise_equal(by_runs.data, by_cells.data)) << "node " << n;

      // A sleeve buffer with exact zeros (not exported, not counted).
      for (double& v : b.data) v = rng.uniform() < 0.3 ? 0.0 : rng.uniform(-1.0, 1.0);
      export_sleeves(sum_runs, decomp, me, b, "export", &log_runs);
      per_cell_export(sum_cells, decomp, me, b, "export", &log_cells);
    }
  }
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    EXPECT_TRUE(bitwise_equal(sum_runs.block(n).values(), sum_cells.block(n).values()))
        << "node " << n;
  }
  expect_same_log(log_runs, log_cells);
  if (topo.node_count() > 1) {
    EXPECT_GT(log_runs.total_words(), 0u);
  }
}

TEST(HaloStaging, RowRunsMatchPerCellLoops) {
  check_staging({32, 32, 32}, TorusTopology(2, 2, 1), 4, 41);
  check_staging({32, 32, 16}, TorusTopology(2, 2, 2), 3, 42);
  check_staging({16, 32, 8}, TorusTopology(4, 2, 2), 1, 43);
}

TEST(HaloStaging, HalosWiderThanThePeriod) {
  // A 16^3 level with reach 8: on 2x2x1 the z halo spans 32 cells of a
  // 16-cell period; on 4x4x2 every axis halo wraps the level.
  check_staging({16, 16, 16}, TorusTopology(2, 2, 1), 8, 44);
  check_staging({16, 16, 16}, TorusTopology(4, 4, 2), 8, 45);
  check_staging({8, 8, 8}, TorusTopology(1, 1, 1), 9, 46);
}

}  // namespace
}  // namespace tme::par
