#include "hw/fault.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace tme::hw {

const char* to_string(SdcSite site) {
  switch (site) {
    case SdcSite::kLruAccumulator: return "lru_accumulator";
    case SdcSite::kGcuAccumulator: return "gcu_accumulator";
    case SdcSite::kFpgaFft: return "fpga_fft";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.link_error_rate < 0.0 || config_.link_error_rate > 1.0) {
    throw std::invalid_argument("FaultInjector: link_error_rate outside [0, 1]");
  }
  if (config_.sdc_rate < 0.0 || config_.sdc_rate > 1.0) {
    throw std::invalid_argument("FaultInjector: sdc_rate outside [0, 1]");
  }
  if (config_.max_retries < 0) {
    throw std::invalid_argument("FaultInjector: negative max_retries");
  }
}

void FaultInjector::kill_node(std::size_t node) {
  dead_nodes_.insert(node);
  TME_COUNTER_ADD("hw/fault/dead_nodes", 1);
}

void FaultInjector::kill_link(std::size_t a, std::size_t b) {
  if (a == b) throw std::invalid_argument("FaultInjector::kill_link: self link");
  if (a > b) std::swap(a, b);
  dead_links_.insert({a, b});
  TME_COUNTER_ADD("hw/fault/dead_links", 1);
}

void FaultInjector::kill_random_nodes(std::size_t count, std::size_t node_count) {
  if (count > node_count) {
    throw std::invalid_argument("FaultInjector::kill_random_nodes: count > nodes");
  }
  // Rejection sampling over a fresh SplitMix stream keeps the kill set
  // independent of how many corruption draws happened before this call.
  SplitMix64 sm(config_.seed ^ 0x6b6c6c6e6f646573ULL);
  std::size_t killed = 0;
  while (killed < count) {
    const std::size_t node = static_cast<std::size_t>(sm.next() % node_count);
    if (dead_nodes_.count(node) != 0) continue;
    kill_node(node);
    ++killed;
  }
}

bool FaultInjector::link_dead(std::size_t a, std::size_t b) const {
  if (a > b) std::swap(a, b);
  return dead_links_.count({a, b}) != 0;
}

namespace {

// Per-site injection counters, so a soak can see where the corruption
// landed without parsing the event log.
void count_sdc(SdcSite site) {
  TME_COUNTER_ADD("hw/fault/sdc_injected", 1);
  switch (site) {
    case SdcSite::kLruAccumulator:
      TME_COUNTER_ADD("hw/fault/sdc_lru", 1);
      break;
    case SdcSite::kGcuAccumulator:
      TME_COUNTER_ADD("hw/fault/sdc_gcu", 1);
      break;
    case SdcSite::kFpgaFft:
      TME_COUNTER_ADD("hw/fault/sdc_fpga", 1);
      break;
  }
}

}  // namespace

std::int64_t FaultInjector::sdc_fixed(std::int64_t raw, int bits, SdcSite site,
                                      double resolution) const {
  if (!sdc_enabled() || rng_.uniform() >= config_.sdc_rate) return raw;
  const int bit = static_cast<int>(rng_.next_u64() % static_cast<std::uint64_t>(bits));
  const std::int64_t flipped = raw ^ (std::int64_t{1} << bit);
  sdc_events_.push_back({site, bit, static_cast<double>(raw) * resolution,
                         static_cast<double>(flipped) * resolution, sdc_stage_,
                         sdc_index_});
  count_sdc(site);
  return flipped;
}

double FaultInjector::sdc_double(double value, SdcSite site) const {
  if (!sdc_enabled() || rng_.uniform() >= config_.sdc_rate) return value;
  // Mantissa-only flip: the upset lands in the accumulator register's
  // fraction field, scaling the damage with the accumulated magnitude.
  const int bit = static_cast<int>(rng_.next_u64() % 52);
  std::uint64_t word;
  std::memcpy(&word, &value, sizeof(word));
  word ^= std::uint64_t{1} << bit;
  double flipped;
  std::memcpy(&flipped, &word, sizeof(flipped));
  sdc_events_.push_back({site, bit, value, flipped, sdc_stage_, sdc_index_});
  count_sdc(site);
  return flipped;
}

float FaultInjector::sdc_float(float value, SdcSite site) const {
  if (!sdc_enabled() || rng_.uniform() >= config_.sdc_rate) return value;
  const int bit = static_cast<int>(rng_.next_u64() % 32);
  std::uint32_t word;
  std::memcpy(&word, &value, sizeof(word));
  word ^= std::uint32_t{1} << bit;
  float flipped;
  std::memcpy(&flipped, &word, sizeof(flipped));
  sdc_events_.push_back({site, bit, static_cast<double>(value),
                         static_cast<double>(flipped), sdc_stage_, sdc_index_});
  count_sdc(site);
  return flipped;
}

bool FaultInjector::attempt_corrupted(std::size_t hops) const {
  const double p = config_.link_error_rate;
  if (p <= 0.0 || hops == 0) return false;
  // Route survives only if every link does: P(corrupt) = 1 - (1 - p)^hops.
  const double p_route = 1.0 - std::pow(1.0 - p, static_cast<double>(hops));
  const bool corrupt = rng_.uniform() < p_route;
  if (corrupt) {
    ++injected_errors_;
    TME_COUNTER_ADD("hw/fault/link_errors", 1);
  }
  return corrupt;
}

}  // namespace tme::hw
