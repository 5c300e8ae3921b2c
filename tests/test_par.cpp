#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "par/decomposition.hpp"
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
  const TorusTopology topo(2, 2, 2);
  const GridDecomposition d({16, 16, 16}, topo);
  Grid3d g(d.global());
  Rng rng(4);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
  const DistributedGrid dist = DistributedGrid::distribute(g, d);
  const Grid3d back = dist.assemble();
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(back[i], g[i]);
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

}  // namespace
}  // namespace tme::par
