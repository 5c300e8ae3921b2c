// Per-layer timing of one MD step, taken from outside the library.
//
// TracedStepper replays VelocityVerlet::step -> ForceField::evaluate ->
// LongRangeSolver::compute as the same public calls in the same order, and
// times each call: the md layer (short range, bonded, exclusions, SETTLE,
// integration), the ewald layer (charge assignment, back interpolation, the
// FFT grid solve), the core/grid TME pipeline (restriction, top level,
// prolongation, per-level separable convolution) and the fft layer.  On the
// fleet workload the long range is one ParallelTmeSolver call whose executor
// batches TimedExecutor splits.  check_fidelity proves the replay computes
// the same bits as the untraced step.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fft/fft3d.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace stepbench {

// Wall-clock seconds per span name.  When the process tracer is enabled each
// span is also recorded on the calling thread's track, so the traced run can
// be written out as a Chrome/Perfetto timeline.
class Spans {
 public:
  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    const Closer closer{this, name, tme::obs::Tracer::global().now_us()};
    return fn();
  }

  double seconds(const std::string& name) const;

 private:
  struct Closer {
    Spans* spans;
    const char* name;
    double t0_us;
    ~Closer() { spans->close(name, t0_us); }
  };
  void close(const char* name, double t0_us);

  std::map<std::string, double> seconds_;
};

class TracedStepper {
 public:
  // Builds the stage-chain state (a Tme or the SPME grid solve with the
  // workload's parameters) next to the setup's own solver.
  explicit TracedStepper(Setup& setup);

  // One NVE step, bit-for-bit the same as Setup::step(), with every public
  // call timed into `spans`.  `sr`, when given, receives the short-range
  // result (pair count and Newton's-third-law check).
  tme::StepReport step(Spans& spans, tme::ShortRangeResult* sr = nullptr) const;

  // The long-range part alone: the stage chain on inline workloads (equal
  // to the setup solver's compute() bit for bit), the solver call itself on
  // the fleet workload.
  tme::CoulombResult long_range(std::span<const tme::Vec3> positions,
                                std::span<const double> charges, Spans& spans) const;

 private:
  tme::EnergyReport evaluate(Spans& spans, tme::ShortRangeResult* sr) const;
  tme::Grid3d grid_solve(const tme::Grid3d& charges, Spans& spans) const;

  Setup* setup_;
  std::unique_ptr<tme::Tme> tme_;                // tme workloads
  std::unique_ptr<tme::ChargeAssigner> assigner_;  // inline workloads
  std::unique_ptr<tme::Fft3d> fft_;              // the FFT grid (TME: top level)
  std::vector<double> influence_;
  double fft_alpha_ = 0.0;                       // splitting alpha on the FFT grid
};

// Start-frame fidelity of the traced replay.  Each check advances `setup`
// by at most one step.
struct Fidelity {
  bool step_bitwise = false;   // TracedStepper::step == VelocityVerlet::step
  bool chain_bitwise = false;  // stage chain == the workload solver
};
Fidelity check_fidelity(Setup& setup, const TracedStepper& traced);

// Fleet workload only: forces of the fleet solver on the current frame are
// bitwise equal to an inline ParallelTme with SerialExecutor.
bool fleet_matches_inline(Setup& setup);

}  // namespace stepbench
