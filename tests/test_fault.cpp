// Fault injection, fault-aware routing, retry timing, and graceful
// degradation of the distributed TME.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "hw/event_sim.hpp"
#include "hw/fault.hpp"
#include "hw/machine.hpp"
#include "hw/network_model.hpp"
#include "hw/torus.hpp"
#include "obs/metrics.hpp"
#include "par/par_tme.hpp"
#include "par/recovery.hpp"
#include "par/traffic.hpp"
#include "util/rng.hpp"

namespace tme::hw {
namespace {

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjector, ValidatesConfig) {
  FaultConfig bad;
  bad.link_error_rate = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
  bad.link_error_rate = -0.1;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
  FaultConfig neg;
  neg.max_retries = -1;
  EXPECT_THROW(FaultInjector{neg}, std::invalid_argument);
}

TEST(FaultInjector, RandomKillsAreSeededAndDistinct) {
  FaultConfig cfg;
  cfg.seed = 42;
  FaultInjector a(cfg), b(cfg);
  a.kill_random_nodes(5, 64);
  b.kill_random_nodes(5, 64);
  EXPECT_EQ(a.dead_nodes(), b.dead_nodes());
  EXPECT_EQ(a.dead_nodes().size(), 5u);

  cfg.seed = 43;
  FaultInjector c(cfg);
  c.kill_random_nodes(5, 64);
  EXPECT_NE(a.dead_nodes(), c.dead_nodes());

  FaultInjector d(cfg);
  EXPECT_THROW(d.kill_random_nodes(65, 64), std::invalid_argument);
}

TEST(FaultInjector, CorruptionDrawsFollowTheRate) {
  FaultConfig clean;  // rate 0
  const FaultInjector never(clean);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(never.attempt_corrupted(6));
  EXPECT_EQ(never.injected_errors(), 0u);

  FaultConfig always;
  always.link_error_rate = 1.0;
  const FaultInjector certain(always);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(certain.attempt_corrupted(1));
  EXPECT_EQ(certain.injected_errors(), 10u);

  // Same seed, same call sequence, same outcomes.
  FaultConfig half;
  half.link_error_rate = 0.3;
  half.seed = 7;
  const FaultInjector x(half), y(half);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(x.attempt_corrupted(3), y.attempt_corrupted(3));
  }
}

// --- torus validation + fault-aware routing ----------------------------------

TEST(TorusValidation, RejectsZeroExtents) {
  EXPECT_THROW(TorusTopology(0, 4, 4), std::invalid_argument);
  EXPECT_THROW(TorusTopology(4, 0, 4), std::invalid_argument);
  EXPECT_THROW(TorusTopology(4, 4, 0), std::invalid_argument);
}

TEST(TorusValidation, RejectsOutOfRangeIndex) {
  const TorusTopology topo(2, 2, 2);
  EXPECT_NO_THROW(topo.coord(7));
  EXPECT_THROW(topo.coord(8), std::out_of_range);
  EXPECT_THROW(topo.coord(1000), std::out_of_range);
}

TEST(Torus, DimensionOrderedRouteHasManhattanLength) {
  const TorusTopology topo(8, 8, 8);
  const NodeCoord a{1, 2, 3}, b{6, 0, 7};
  const std::vector<NodeCoord> path = topo.route(a, b);
  ASSERT_EQ(path.size(), topo.hops(a, b) + 1);
  EXPECT_EQ(path.front(), a);
  EXPECT_EQ(path.back(), b);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(topo.hops(path[i - 1], path[i]), 1u);
  }
}

TEST(Torus, HopsAvoidingDetoursAroundDeadNodes) {
  const TorusTopology topo(4, 4, 4);
  FaultInjector faults;
  // Healthy machine: identical to the Manhattan metric.
  EXPECT_EQ(topo.hops_avoiding({0, 0, 0}, {2, 1, 0}, faults), 3u);

  // Kill a node in the middle of the straight x-route; the detour costs
  // extra hops only if every shortest path is blocked (it is not, on a
  // torus), so the distance must stay the Manhattan one.
  faults.kill_node(topo.index({1, 0, 0}));
  EXPECT_EQ(topo.hops_avoiding({0, 0, 0}, {2, 0, 0}, faults), 2u);

  // Dead endpoints are unreachable.
  EXPECT_EQ(topo.hops_avoiding({1, 0, 0}, {2, 0, 0}, faults), kUnreachable);
  EXPECT_EQ(topo.hops_avoiding({0, 0, 0}, {1, 0, 0}, faults), kUnreachable);
}

TEST(Torus, DeadLinksForceLongerRoutes) {
  const TorusTopology topo(4, 1, 1);  // a ring: exactly two routes per pair
  FaultInjector faults;
  faults.kill_link(topo.index({0, 0, 0}), topo.index({1, 0, 0}));
  // 0 -> 1 must now go the long way round: 0 -> 3 -> 2 -> 1.
  EXPECT_EQ(topo.hops_avoiding({0, 0, 0}, {1, 0, 0}, faults), 3u);
}

TEST(Torus, PartitionReportFindsCutOffNodes) {
  const TorusTopology topo(4, 4, 4);
  FaultInjector faults;
  const NodeCoord victim{2, 2, 2};
  for (const NodeCoord& nb : topo.neighbours(victim)) {
    faults.kill_node(topo.index(nb));
  }
  const PartitionReport report = topo.partition_report(faults);
  EXPECT_EQ(report.dead.size(), 6u);
  ASSERT_EQ(report.unreachable.size(), 1u);
  EXPECT_EQ(report.unreachable[0], topo.index(victim));
  EXPECT_EQ(report.alive, topo.node_count() - 7u);
}

TEST(Torus, PartitionReportOnHealthyMachineIsClean) {
  const TorusTopology topo(8, 8, 8);
  const FaultInjector faults;
  const PartitionReport report = topo.partition_report(faults);
  EXPECT_EQ(report.root, 0u);
  EXPECT_EQ(report.alive, 512u);
  EXPECT_TRUE(report.dead.empty());
  EXPECT_TRUE(report.unreachable.empty());
}

// --- network retries ---------------------------------------------------------

TEST(NetworkFaults, CleanTransferMatchesBaseModel) {
  const NetworkParams nw;
  const FaultInjector clean;  // rate 0
  const TransferOutcome out = transfer_with_faults(nw, 4096, 3, clean);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.time_s, transfer_time(nw, 4096, 3));
}

TEST(NetworkFaults, CertainCorruptionExhaustsRetriesWithBackoff) {
  const NetworkParams nw;
  FaultConfig cfg;
  cfg.link_error_rate = 1.0;
  cfg.max_retries = 3;
  const FaultInjector faults(cfg);
  const TransferOutcome out = transfer_with_faults(nw, 4096, 3, faults);
  EXPECT_EQ(out.attempts, cfg.max_retries + 1);
  EXPECT_FALSE(out.delivered);
  // Four attempts of serialisation plus detect timeouts plus the doubling
  // backoff make it strictly (much) slower than a clean transfer.
  EXPECT_GT(out.time_s, 4.0 * transfer_time(nw, 4096, 3));
}

TEST(NetworkFaults, ModerateRateRetriesAndDelivers) {
  const NetworkParams nw;
  FaultConfig cfg;
  cfg.link_error_rate = 0.1;
  cfg.seed = 11;
  const FaultInjector faults(cfg);
  int total_attempts = 0;
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const TransferOutcome out = transfer_with_faults(nw, 1024, 4, faults);
    total_attempts += out.attempts;
    delivered += out.delivered ? 1 : 0;
  }
  EXPECT_GT(total_attempts, 50);  // some retransmissions happened
  EXPECT_GT(delivered, 40);       // but nearly everything got through
  EXPECT_GT(faults.injected_errors(), 0u);
}

// --- event simulator retries -------------------------------------------------

TEST(EventSimFaults, RetriesStretchTheMakespan) {
  EventSimulator clean;
  clean.add_task({"t", "NW", 10e-6, {}, -1});
  clean.run();
  const double base = clean.makespan();

  EventSimulator faulty;
  TaskSpec spec{"t", "NW", 10e-6, {}, -1};
  spec.failures = 2;
  spec.retry_penalty = 1e-6;
  faulty.add_task(spec);
  const auto schedule = faulty.run();
  EXPECT_DOUBLE_EQ(faulty.makespan(), base + 2 * (10e-6 + 1e-6));
  EXPECT_EQ(faulty.total_retries(), 2u);
  EXPECT_EQ(schedule[0].attempts, 3);
  EXPECT_TRUE(schedule[0].completed);
  EXPECT_EQ(faulty.failed_tasks(), 0u);
}

TEST(EventSimFaults, RetryLimitBoundsTheDamage) {
  EventSimulator sim;
  sim.set_retry_limit(2);
  TaskSpec spec{"doomed", "NW", 5e-6, {}, -1};
  spec.failures = 10;  // far beyond the limit
  const TaskId doomed = sim.add_task(spec);
  TaskSpec dependent{"after", "NW", 1e-6, {doomed}, -1};
  sim.add_task(dependent);
  const auto schedule = sim.run();
  EXPECT_EQ(schedule[0].attempts, 3);  // limit + 1 attempts, all failed
  EXPECT_FALSE(schedule[0].completed);
  EXPECT_EQ(sim.failed_tasks(), 1u);
  // Dependents still run: the machine degrades rather than hangs.
  EXPECT_TRUE(schedule[1].completed);
  EXPECT_GE(schedule[1].start, schedule[0].end);
}

TEST(EventSimFaults, RejectsNegativeInjection) {
  EventSimulator sim;
  TaskSpec spec{"bad", "NW", 1e-6, {}, -1};
  spec.failures = -1;
  EXPECT_THROW(sim.add_task(spec), std::invalid_argument);
}

// --- whole-machine degradation -----------------------------------------------

TEST(MachineFaults, DeadNodesAndLinkErrorsSlowTheStep) {
  const MdgrapeMachine machine;
  StepConfig healthy;
  const StepTimings base = machine.simulate_step(healthy);
  EXPECT_EQ(base.dead_nodes, 0u);
  EXPECT_EQ(base.task_retries, 0u);

  StepConfig degraded = healthy;
  degraded.dead_node_count = 8;
  degraded.link_error_rate = 0.3;
  degraded.fault_seed = 2021;
  const StepTimings hurt = machine.simulate_step(degraded);
  EXPECT_EQ(hurt.dead_nodes, 8u);
  EXPECT_GT(hurt.task_retries, 0u);
  EXPECT_GT(hurt.step_time, base.step_time);

  // Deterministic: same seed, same degraded makespan.
  const StepTimings again = machine.simulate_step(degraded);
  EXPECT_DOUBLE_EQ(hurt.step_time, again.step_time);
  EXPECT_EQ(hurt.task_retries, again.task_retries);
}

TEST(MachineFaults, KillingEveryNodeThrows) {
  const MdgrapeMachine machine;
  StepConfig cfg;
  cfg.dead_node_count = machine.params().node_count();
  EXPECT_THROW(machine.simulate_step(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tme::hw

namespace tme::par {
namespace {

TmeParams fault_test_params(double alpha) {
  TmeParams tp;
  tp.alpha = alpha;
  tp.grid = {32, 32, 32};
  tp.levels = 1;
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  return tp;
}

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

// --- RecoveryPlan ------------------------------------------------------------

TEST(RecoveryPlan, MapsDeadNodesToAliveNeighbours) {
  const TorusTopology topo(2, 2, 2);
  hw::FaultInjector faults;
  faults.kill_node(3);
  const RecoveryPlan plan(topo, faults);
  EXPECT_EQ(plan.dead_count(), 1u);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    if (n == 3) continue;
    EXPECT_EQ(plan.host(n), n);  // alive nodes host themselves
  }
  const std::size_t host = plan.host(3);
  EXPECT_NE(host, 3u);
  EXPECT_FALSE(faults.node_dead(host));
  EXPECT_EQ(topo.hops(topo.coord(3), topo.coord(host)), 1u);
  // Messages between co-hosted blocks collapse to zero hops.
  EXPECT_EQ(plan.hops(3, host), 0u);
  EXPECT_EQ(plan.hops(host, 3), 0u);
}

TEST(RecoveryPlan, BrokenRoutesAreCountedAsReroutes) {
  const TorusTopology topo(4, 4, 4);
  hw::FaultInjector faults;
  faults.kill_node(topo.index({1, 0, 0}));
  const RecoveryPlan plan(topo, faults);
  // The dimension-ordered route 0,0,0 -> 2,0,0 passes straight through the
  // dead node.
  EXPECT_TRUE(plan.rerouted(topo.index({0, 0, 0}), topo.index({2, 0, 0})));
  EXPECT_FALSE(plan.rerouted(topo.index({0, 0, 0}), topo.index({0, 2, 0})));
  EXPECT_GT(plan.reroute_count(), 0u);
}

TEST(RecoveryPlan, MultipleSimultaneousDeathsAllRehome) {
  const TorusTopology topo(4, 4, 4);
  hw::FaultInjector faults;
  // Four scattered nodes die in the same step.
  const std::size_t dead[] = {topo.index({0, 0, 0}), topo.index({1, 2, 3}),
                              topo.index({3, 3, 0}), topo.index({2, 1, 1})};
  for (const std::size_t n : dead) faults.kill_node(n);
  const RecoveryPlan plan(topo, faults);
  EXPECT_EQ(plan.dead_count(), 4u);
  for (const std::size_t n : dead) {
    const std::size_t host = plan.host(n);
    EXPECT_NE(host, n);
    EXPECT_FALSE(faults.node_dead(host)) << "node " << n;
  }
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    if (faults.node_dead(n)) continue;
    EXPECT_EQ(plan.host(n), n);
  }
}

TEST(RecoveryPlan, AdjacentDeathClusterRehomesOutsideTheCluster) {
  // A whole 2x2 face of a 4x4x1 machine dies at once; every victim must land
  // on a survivor, never on another member of the dead cluster.
  const TorusTopology topo(4, 4, 1);
  hw::FaultInjector faults;
  std::vector<std::size_t> cluster;
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      cluster.push_back(topo.index({x, y, 0}));
    }
  }
  for (const std::size_t n : cluster) faults.kill_node(n);
  const RecoveryPlan plan(topo, faults);
  EXPECT_EQ(plan.dead_count(), cluster.size());
  for (const std::size_t n : cluster) {
    EXPECT_FALSE(faults.node_dead(plan.host(n))) << "node " << n;
  }
}

TEST(RecoveryPlan, CascadingLinkFailuresGrowReroutes) {
  const TorusTopology topo(4, 4, 4);
  // Cut links one at a time along the +x ring through the origin; each cut
  // can only add broken dimension-ordered routes, never repair one.
  std::size_t previous = 0;
  hw::FaultInjector faults;
  for (std::size_t x = 0; x < 3; ++x) {
    faults.kill_link(topo.index({x, 0, 0}), topo.index({x + 1, 0, 0}));
    const RecoveryPlan plan(topo, faults);
    EXPECT_EQ(plan.dead_count(), 0u);  // links only: every node hosts itself
    EXPECT_GE(plan.reroute_count(), previous);
    previous = plan.reroute_count();
  }
  EXPECT_GT(previous, 0u);
  // The straight-line route along the severed ring must be flagged.
  const RecoveryPlan plan(topo, faults);
  EXPECT_TRUE(plan.rerouted(topo.index({0, 0, 0}), topo.index({1, 0, 0})));
}

TEST(RecoveryPlan, LastSurvivorHostsEverything) {
  const TorusTopology topo(2, 2, 2);
  hw::FaultInjector faults;
  for (std::size_t n = 1; n < topo.node_count(); ++n) faults.kill_node(n);
  const RecoveryPlan plan(topo, faults);
  EXPECT_EQ(plan.dead_count(), topo.node_count() - 1);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    EXPECT_EQ(plan.host(n), 0u);
  }
  // And killing the survivor too crosses into refusal.
  faults.kill_node(0);
  EXPECT_THROW(RecoveryPlan(topo, faults), std::runtime_error);
}

TEST(RecoveryPlan, DeadNodesThatPartitionTheSurvivorsAreRefused) {
  // On a 4-node ring, killing two opposite nodes splits the survivors into
  // two islands that cannot reach each other.
  const TorusTopology topo(4, 1, 1);
  hw::FaultInjector faults;
  faults.kill_node(1);
  faults.kill_node(3);
  EXPECT_THROW(RecoveryPlan(topo, faults), std::runtime_error);
}

TEST(RecoveryPlan, RefusesUnrecoverableMachines) {
  const TorusTopology topo(2, 2, 2);
  hw::FaultInjector all;
  for (std::size_t n = 0; n < topo.node_count(); ++n) all.kill_node(n);
  EXPECT_THROW(RecoveryPlan(topo, all), std::runtime_error);

  // Node 0 alive but with every link severed: an unreachable partition.
  const TorusTopology big(4, 4, 4);
  hw::FaultInjector cut;
  for (const hw::NodeCoord& nb : big.neighbours({0, 0, 0})) {
    cut.kill_link(big.index({0, 0, 0}), big.index(nb));
  }
  EXPECT_THROW(RecoveryPlan(big, cut), std::runtime_error);
}

// --- degraded distributed TME ------------------------------------------------

class DegradedParTmeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = random_system(400, 6.4, 7);
    alpha_ = alpha_from_tolerance(0.8, 1e-4);
  }
  TestSystem sys_;
  double alpha_ = 0.0;
};

TEST_F(DegradedParTmeTest, OneDeadNodeKeepsForcesBitwiseIdentical) {
  // The acceptance scenario: one dead node + 1e-4 link-error rate, fixed
  // seed.  Physics must be unaffected (the recovery re-homes blocks without
  // changing summation order); only the traffic accounting changes.
  const TmeParams tp = fault_test_params(alpha_);
  const TorusTopology topo(2, 2, 2);

  ParallelTme healthy(sys_.box, tp, topo);
  TrafficLog healthy_log;
  const CoulombResult clean =
      healthy.compute(sys_.positions, sys_.charges, &healthy_log);

  hw::FaultConfig cfg;
  cfg.seed = 2021;
  cfg.link_error_rate = 1e-4;
  hw::FaultInjector faults(cfg);
  faults.kill_random_nodes(1, topo.node_count());

  ParallelTme degraded(sys_.box, tp, topo);
  degraded.set_fault_injector(&faults);
  ASSERT_NE(degraded.recovery_plan(), nullptr);
  EXPECT_EQ(degraded.recovery_plan()->dead_count(), 1u);

  TrafficLog log;
  const CoulombResult result =
      degraded.compute(sys_.positions, sys_.charges, &log);

  EXPECT_EQ(result.energy, clean.energy);  // bitwise, not approximately
  ASSERT_EQ(result.forces.size(), clean.forces.size());
  for (std::size_t i = 0; i < clean.forces.size(); ++i) {
    EXPECT_EQ(result.forces[i].x, clean.forces[i].x);
    EXPECT_EQ(result.forces[i].y, clean.forces[i].y);
    EXPECT_EQ(result.forces[i].z, clean.forces[i].z);
  }

  // The degradation is visible in the traffic: the one-time block
  // migration phase exists, and the total message count differs from the
  // healthy run (dead-node messages re-homed / collapsed).
  EXPECT_GT(log.words_in("fault redistribution"), 0u);
  EXPECT_NE(log.total_messages(), healthy_log.total_messages());
}

TEST_F(DegradedParTmeTest, LinkErrorsProduceRetransmissionTraffic) {
  const TmeParams tp = fault_test_params(alpha_);
  const TorusTopology topo(2, 2, 2);

  hw::FaultConfig cfg;
  cfg.seed = 5;
  cfg.link_error_rate = 0.02;  // high enough that retries certainly fire
  hw::FaultInjector faults(cfg);
  faults.kill_random_nodes(1, topo.node_count());

  ParallelTme par(sys_.box, tp, topo);
  par.set_fault_injector(&faults);
  TrafficLog log;
  const CoulombResult result = par.compute(sys_.positions, sys_.charges, &log);
  (void)result;

  EXPECT_GT(faults.injected_errors(), 0u);
  EXPECT_GT(log.words_in("fault retransmission"), 0u);
}

TEST_F(DegradedParTmeTest, MetricsExportCountersWhenEnabled) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Registry::global().reset();

  const TmeParams tp = fault_test_params(alpha_);
  const TorusTopology topo(2, 2, 2);
  hw::FaultConfig cfg;
  cfg.seed = 2021;
  cfg.link_error_rate = 0.02;
  hw::FaultInjector faults(cfg);
  faults.kill_random_nodes(1, topo.node_count());

  ParallelTme par(sys_.box, tp, topo);
  par.set_fault_injector(&faults);
  TrafficLog log;
  par.compute(sys_.positions, sys_.charges, &log);

  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  EXPECT_GT(counter("par_tme/nw_retries"), 0u);
  EXPECT_GT(counter("par_tme/rerouted_messages"), 0u);
}

TEST_F(DegradedParTmeTest, ClearingTheInjectorRestoresHealthyAccounting) {
  const TmeParams tp = fault_test_params(alpha_);
  const TorusTopology topo(2, 2, 2);
  hw::FaultInjector faults;
  faults.kill_node(0);

  ParallelTme par(sys_.box, tp, topo);
  par.set_fault_injector(&faults);
  EXPECT_NE(par.recovery_plan(), nullptr);
  par.set_fault_injector(nullptr);
  EXPECT_EQ(par.recovery_plan(), nullptr);

  TrafficLog log;
  par.compute(sys_.positions, sys_.charges, &log);
  EXPECT_EQ(log.words_in("fault redistribution"), 0u);
  EXPECT_EQ(log.words_in("fault retransmission"), 0u);
}

TEST(ParTmeFaults, PartitioningFaultSetIsRejectedUpFront) {
  const TorusTopology topo(2, 2, 2);
  hw::FaultInjector faults;
  // Sever node 0 from everything without killing it.
  for (const hw::NodeCoord& nb : topo.neighbours({0, 0, 0})) {
    faults.kill_link(topo.index({0, 0, 0}), topo.index(nb));
  }
  const TestSystem sys = random_system(100, 6.4, 3);
  TmeParams tp = fault_test_params(alpha_from_tolerance(0.8, 1e-4));
  ParallelTme par(sys.box, tp, topo);
  EXPECT_THROW(par.set_fault_injector(&faults), std::runtime_error);
}

}  // namespace
}  // namespace tme::par
