// Decomposition fidelity of the traced step, on the start frame of
// water-tme and water-tme-fine:
//   1. TracedStepper::step gives positions, velocities, forces and energies
//      bitwise equal to VelocityVerlet::step;
//   2. the stage chain CA -> restrict^L -> top -> (prolong + convolve)^L -> BI
//      is bitwise equal to Tme::compute (through the registry solver);
//   3. the top-level layer times of a traced step (integrate + SETTLE + force
//      evaluation) cover the wall-clock of an untraced step within
//      [kCoverageLow, kCoverageHigh], comparing medians over alternating
//      steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "layers.hpp"
#include "workload.hpp"

namespace stepbench {
namespace {

constexpr double kCoverageLow = 0.8;
constexpr double kCoverageHigh = 1.2;
constexpr int kCoveragePairs = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

class StartFrameFidelity : public ::testing::TestWithParam<const char*> {};

TEST_P(StartFrameFidelity, TracedStepIsBitwiseAndCoversTheUntracedStep) {
  const WorkloadSpec& spec = find_workload(GetParam());
  stepbench::Setup setup(spec, 7);
  const TracedStepper traced(setup);

  const Fidelity fid = check_fidelity(setup, traced);
  EXPECT_TRUE(fid.chain_bitwise) << spec.name;
  EXPECT_TRUE(fid.step_bitwise) << spec.name;

  std::vector<double> plain_s, covered_s;
  for (int i = 0; i < kCoveragePairs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    setup.step();
    plain_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    Spans spans;
    traced.step(spans);
    covered_s.push_back(spans.seconds("md.integrate") + spans.seconds("md.settle") +
                        spans.seconds("md.force_eval"));
  }
  const double coverage = median(covered_s) / median(plain_s);
  EXPECT_GE(coverage, kCoverageLow) << spec.name;
  EXPECT_LE(coverage, kCoverageHigh) << spec.name;
  RecordProperty("coverage", std::to_string(coverage));
}

INSTANTIATE_TEST_SUITE_P(Workloads, StartFrameFidelity,
                         ::testing::Values("water-tme", "water-tme-fine"),
                         [](const auto& info) {
                           return std::string(info.param) == "water-tme" ? "WaterTme"
                                                                         : "WaterTmeFine";
                         });

}  // namespace
}  // namespace stepbench
