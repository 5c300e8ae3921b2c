// Seeded fault injection for the simulated MDGRAPE-4A machine.
//
// Production runs on a 512-SoC torus must survive link errors, dead nodes
// and straggling transfers; this module is the single source of truth for
// which parts of the simulated machine are broken.  Faults come in two
// kinds:
//  - structural: nodes and links killed explicitly (or by a seeded draw),
//    consumed by the fault-aware torus routing and the parallel TME's
//    recovery plan;
//  - stochastic: per-transfer corruption drawn from a seeded Xoshiro stream
//    (probability 1 - (1 - p)^hops for a route of `hops` links), consumed by
//    the network model's CRC-detect/retry path;
//  - silent data corruption (SDC): per-operation bit flips inside the
//    *compute* datapaths — the LRU's fixed-point grid accumulators, the
//    GCU's row accumulators, and the FPGA FFT's single-precision spectrum
//    words.  No CRC covers these; they are the adversary the ABFT invariant
//    layer (core/abft + hw/sdc_guard) exists to catch.
//
// All draws are deterministic for a fixed seed, so a degraded-machine run is
// exactly reproducible — the property the fault-injection soak in CI and the
// golden-trace tests rely on.  The injector is not thread-safe; share one
// per simulated machine, not across concurrent simulations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tme::hw {

struct FaultConfig {
  std::uint64_t seed = 2021;        // stream for corruption draws + random kills
  double link_error_rate = 0.0;     // per-link per-transfer corruption probability
  int max_retries = 8;              // retransmissions before a transfer is dropped
  double retry_backoff_base_s = 400e-9;  // first backoff; doubles per retry
  double detect_timeout_s = 2e-6;   // receiver CRC window before the NACK
  double sdc_rate = 0.0;            // per-operation compute bit-flip probability
};

// Which compute datapath an SDC draw hit.
enum class SdcSite {
  kLruAccumulator,  // 32-bit fixed-point grid-charge accumulation (CA mode)
  kGcuAccumulator,  // GCU row accumulator (Eq. 18 grid-point update)
  kFpgaFft,         // single-precision spectrum word in the CFFT16 engine
};

const char* to_string(SdcSite site);

// One injected compute corruption.  `stage`/`index` are caller-provided
// context (see FaultInjector::set_sdc_context) that the guarded pipeline
// sets per stage so the detection-coverage tests can match every injected
// event against the ABFT violation that caught it.
struct SdcEvent {
  SdcSite site = SdcSite::kLruAccumulator;
  int bit = 0;          // flipped bit index within the corrupted word
  double before = 0.0;  // value in engineering units before the flip
  double after = 0.0;   // value after the flip (may be non-finite for fp words)
  int stage = -1;       // pipeline stage tag (see set_sdc_context)
  int index = -1;       // sub-stage tag (level, term, axis — caller-defined)
};

class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultConfig{}) {}
  explicit FaultInjector(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  // --- structural faults ----------------------------------------------------
  void kill_node(std::size_t node);
  // Links are undirected; the pair is stored normalised.
  void kill_link(std::size_t a, std::size_t b);
  // Kills `count` distinct nodes drawn from [0, node_count) with the
  // injector's seed (deterministic).  Throws if count > node_count.
  void kill_random_nodes(std::size_t count, std::size_t node_count);

  bool node_dead(std::size_t node) const { return dead_nodes_.count(node) != 0; }
  bool link_dead(std::size_t a, std::size_t b) const;
  const std::set<std::size_t>& dead_nodes() const { return dead_nodes_; }
  std::size_t dead_link_count() const { return dead_links_.size(); }
  bool has_structural_faults() const {
    return !dead_nodes_.empty() || !dead_links_.empty();
  }

  // --- stochastic faults ----------------------------------------------------
  // One Bernoulli draw per transfer attempt over a `hops`-link route.  Counts
  // every corruption it injects (see injected_errors()).
  bool attempt_corrupted(std::size_t hops) const;

  // Total corruptions injected so far — non-zero whenever the retry machinery
  // actually fired, independent of whether metrics are compiled in.
  std::uint64_t injected_errors() const { return injected_errors_; }

  // --- silent data corruption (compute faults) -------------------------------
  // Each call is one per-operation Bernoulli(sdc_rate) draw at the given
  // site.  When the draw fires, one uniformly drawn bit of the operand is
  // flipped and an SdcEvent is recorded; otherwise the operand passes
  // through untouched.  All three share the injector's seeded stream, so a
  // run is reproducible draw-for-draw.
  //
  // sdc_fixed flips one of the low `bits` bits of a raw fixed-point word
  // (`resolution` converts the raw delta to engineering units for the event
  // log).  sdc_double flips a mantissa bit of an IEEE double (the GCU's
  // accumulator register).  sdc_float flips any of the 32 bits of an IEEE
  // float (the FPGA's spectrum words — sign/exponent flips included, as on
  // the real part).
  std::int64_t sdc_fixed(std::int64_t raw, int bits, SdcSite site,
                         double resolution) const;
  double sdc_double(double value, SdcSite site) const;
  float sdc_float(float value, SdcSite site) const;

  bool sdc_enabled() const { return config_.sdc_rate > 0.0 && !sdc_suspended_; }

  // Suspend/resume injection — the guarded pipeline suspends SDC while it
  // recomputes a stage, modelling the transient nature of an upset: the
  // re-executed computation is clean, so the recompute is bitwise identical
  // to a fault-free run by construction.
  void set_sdc_suspended(bool suspended) { sdc_suspended_ = suspended; }
  bool sdc_suspended() const { return sdc_suspended_; }

  // Pipeline-stage context stamped into subsequently recorded events.
  void set_sdc_context(int stage, int index = -1) {
    sdc_stage_ = stage;
    sdc_index_ = index;
  }

  const std::vector<SdcEvent>& sdc_events() const { return sdc_events_; }
  std::uint64_t injected_sdc() const { return sdc_events_.size(); }
  void clear_sdc_events() { sdc_events_.clear(); }

 private:
  FaultConfig config_;
  mutable Rng rng_;
  mutable std::uint64_t injected_errors_ = 0;
  std::set<std::size_t> dead_nodes_;
  std::set<std::pair<std::size_t, std::size_t>> dead_links_;
  bool sdc_suspended_ = false;
  int sdc_stage_ = -1;
  int sdc_index_ = -1;
  mutable std::vector<SdcEvent> sdc_events_;
};

// RAII guard for recompute paths: suspends SDC injection on construction,
// restores the previous state on destruction.
class SdcSuspend {
 public:
  explicit SdcSuspend(FaultInjector* injector) : injector_(injector) {
    if (injector_ != nullptr) {
      was_ = injector_->sdc_suspended();
      injector_->set_sdc_suspended(true);
    }
  }
  ~SdcSuspend() {
    if (injector_ != nullptr) injector_->set_sdc_suspended(was_);
  }
  SdcSuspend(const SdcSuspend&) = delete;
  SdcSuspend& operator=(const SdcSuspend&) = delete;

 private:
  FaultInjector* injector_;
  bool was_ = false;
};

}  // namespace tme::hw
