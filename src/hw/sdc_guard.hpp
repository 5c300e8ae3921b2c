// ABFT-guarded hardware-functional TME pipeline with localized recovery.
//
// This is the online SDC defense of the simulated machine: the full TME
// evaluation routed through the hardware datapath models (LRU charge
// assignment / back interpolation, GCU axis passes, FPGA top-level FFT).
// The level loop is the one multilevel driver (grid/multilevel.hpp); this
// file supplies its stage bodies, each wrapped in guarded_stage, with an
// ABFT invariant (core/abft) verified after every stage and a
// *localized* recompute on violation — only the stage (and for the GCU only
// the axis pass) that failed its checksum is re-executed, with SDC
// injection suspended for the retry (an upset is transient, so the re-run
// is clean and bitwise identical to a fault-free evaluation by
// construction).  A stage that keeps violating after the retry budget marks
// the evaluation unrecovered; the caller must treat it as failed (the chaos
// harness's abft-recovery oracle does).
//
// Stage map (violation callback + SdcEvent context use these tags):
//   0 charge assignment   (LRU)    index: -1
//   1 restriction         (GCU)    index: coarse level produced (2 .. L+1)
//   2 top-level solve     (FPGA)   index: -1
//   3 prolongation        (GCU)    index: level produced (1 .. L)
//   4 tensor convolution  (GCU)    index: level*100 + term*10 + axis
//   5 back interpolation  (LRU)    index: -1
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/abft.hpp"
#include "core/tme.hpp"
#include "hw/fault.hpp"
#include "hw/lru_functional.hpp"

namespace tme::hw {

enum class GuardedStage {
  kChargeAssign = 0,
  kRestriction = 1,
  kTopSolve = 2,
  kProlongation = 3,
  kConvolution = 4,
  kBackInterpolate = 5,
};

const char* to_string(GuardedStage stage);

struct GuardedTmeConfig {
  // Master switch: false runs the identical pipeline with every invariant
  // check and recompute skipped — the baseline the bitwise acceptance test
  // compares against.
  bool checks_enabled = true;
  // Localized retries per stage attempt before the evaluation is declared
  // unrecovered.
  int max_stage_recomputes = 2;
  // Multiplies every ABFT tolerance (see abft::CheckSet).
  double tolerance_scale = 1.0;
  LruFixedFormats lru_formats{};
};

struct GuardedTmeReport {
  std::size_t checks_run = 0;
  std::size_t violations = 0;
  std::size_t stage_recomputes = 0;  // localized re-executions that succeeded
  bool recovered = true;  // false when a stage stayed bad after its retries
  std::vector<abft::Violation> details;
};

class GuardedTmePipeline {
 public:
  // `faults` may be null (no injection); the injector is shared with the
  // rest of the simulated machine and is petted with stage context so every
  // recorded SdcEvent names the stage it hit.
  GuardedTmePipeline(const Box& box, const TmeParams& params,
                     GuardedTmeConfig config, FaultInjector* faults = nullptr);

  const Tme& tme() const { return tme_; }
  const GuardedTmeConfig& config() const { return config_; }

  // Invoked once per ABFT violation with the stage and its locator index
  // (see the stage map above) — the hook par::HealthMonitor attributes to
  // grid blocks / nodes.  Called before the localized recompute, so repeated
  // firings for one stage mean the retry also failed.
  void set_violation_callback(std::function<void(GuardedStage, int)> cb) {
    on_violation_ = std::move(cb);
  }

  // Full long-range evaluation through the hardware-functional datapaths
  // with online ABFT verification and localized recompute.
  CoulombResult compute(std::span<const Vec3> positions,
                        std::span<const double> charges,
                        GuardedTmeReport* report = nullptr) const;

 private:
  // Runs `stage_fn` and then `verify` (which appends to `checks`); on
  // violation fires the callback and retries with SDC suspended.  Returns
  // false when the stage stayed bad after the retry budget.
  bool guarded_stage(GuardedStage stage, int index,
                     const std::function<void()>& stage_fn,
                     const std::function<bool(abft::CheckSet&)>& verify,
                     abft::CheckSet& checks, GuardedTmeReport& report) const;

  // One 1D axis pass through the GCU functional model when the kernel fits
  // the level period, else the library path — both satisfy the same
  // per-line checksum.
  Grid3d axis_pass(const Grid3d& in, const Kernel1d& kernel, int axis) const;

  Box box_;
  GuardedTmeConfig config_;
  FaultInjector* faults_;
  Tme tme_;
  std::vector<double> top_influence_;  // 16^3 FPGA path only, else empty
  std::function<void(GuardedStage, int)> on_violation_;
};

}  // namespace tme::hw
