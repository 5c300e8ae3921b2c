// Shared helpers for the reproduction benches.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ewald/reference_ewald.hpp"
#include "ewald/splitting.hpp"
#include "md/short_range.hpp"
#include "md/system.hpp"
#include "md/topology.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/constants.hpp"
#include "util/io_shim.hpp"
#include "util/simd.hpp"
#include "util/vec3.hpp"

namespace tme::bench {

// Completes a long-range result into total Coulomb forces by adding the
// analytic short-range (erfc) part over all non-excluded pairs, so the
// relative force error against the Ewald reference can be measured
// (Table 1 protocol; the reference includes all pairs, so exclusions are
// empty here).
inline CoulombResult complete_with_short_range(const Box& box,
                                               std::span<const Vec3> positions,
                                               std::span<const double> charges,
                                               CoulombResult lr, double alpha,
                                               double r_cut) {
  ParticleSystem sys;
  sys.box = box;
  sys.resize(positions.size());
  sys.positions.assign(positions.begin(), positions.end());
  sys.charges.assign(charges.begin(), charges.end());
  sys.forces.assign(positions.size(), Vec3{});
  Topology topo;
  topo.lj().assign(positions.size(), LjParams{});
  topo.finalize(positions.size());
  ShortRangeParams params;
  params.cutoff = r_cut;
  params.alpha = alpha;
  const ShortRangeResult sr = compute_short_range(sys, topo, params);
  lr.energy += sr.energy_coulomb;
  for (std::size_t i = 0; i < positions.size(); ++i) lr.forces[i] += sys.forces[i];
  return lr;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

// Derives short-range pair throughput (pairs/s) from the registry's pair
// counter and accumulated short_range timer and records it as a gauge, so
// every bench export reports a throughput number comparable across benches
// (bench_shortrange and bench_table2 in particular).  No-op when either
// input is missing or zero.
inline void record_pair_throughput() {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  std::uint64_t pairs = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "short_range/pairs") pairs = value;
  }
  double seconds = 0.0;
  for (const auto& [path, stat] : snap.timers) {
    // The phase path is "short_range" at top level or ".../short_range"
    // when the evaluator runs inside an enclosing phase.
    if (path == "short_range" || (path.size() > 12 &&
                                  path.compare(path.size() - 12, 12,
                                               "/short_range") == 0)) {
      seconds += stat.seconds;
    }
  }
  if (pairs > 0 && seconds > 0.0) {
    obs::Registry::global().gauge_set(
        "short_range/pairs_per_s", static_cast<double>(pairs) / seconds);
  }
}

// Times `fn` over `reps` repetitions and returns the best (minimum) seconds
// per call.  The kernel runs ONCE untimed first so every timed repetition
// sees warm caches, a populated force table, and resolved lazy init — cold
// first-call costs used to leak into single-rep timings and made
// scalar-vs-native comparisons depend on sweep order.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  fn();  // warm-up, never timed
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// Extra top-level JSON blocks a bench can attach to its export (e.g. the
// per-link "link_report" from a hardware-model run).
using ExtraJson = std::vector<std::pair<std::string, obs::JsonValue>>;

// Emits the current metrics registry as a machine-readable per-stage
// breakdown: printed to stdout under a marked header and written to
// BENCH_<name>.json in the working directory (the perf-trajectory record)
// through the durable writer.  A failed export is reported on stderr and
// exits the bench with a failure status, so a missing record never passes.
// Every export carries a "manifest" block (git describe, build type, TME_*
// environment, runtime facts) so a BENCH json is self-describing.
// Callers that want a single clean breakdown should reset the registry
// before the run they mean to export.
inline void emit_metrics(const std::string& bench_name,
                         const ExtraJson& extra = {}) {
  record_pair_throughput();
  // Every export records which SIMD backend and mode produced it.
  obs::manifest_set("simd", simd::describe_json());
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  obs::JsonValue root = obs::json_parse(obs::to_json(snap));
  root.as_object()["bench"] = obs::JsonValue::make_string(bench_name);
  root.as_object()["manifest"] = obs::manifest_json();
  for (const auto& [key, value] : extra) {
    root.as_object()[key] = value;
  }
  const std::string json = root.dump();

  print_header("metrics (json)");
  std::printf("%s\n", json.c_str());

  const std::string path = "BENCH_" + bench_name + ".json";
  try {
    io::write_file_durable(path, json + "\n");
  } catch (const io::IoError& e) {
    std::fprintf(stderr, "[export failed: %s]\n", e.what());
    std::exit(EXIT_FAILURE);
  }
  std::printf("[written: %s]\n", path.c_str());
}

// --trace-out support.  `--trace-out <path>` (or the bare flag, which picks
// TRACE_<bench>.json next to the BENCH json) turns the tracer on for the
// run; returns the output path, or "" when tracing was not requested.
inline std::string begin_trace(const Args& args, const std::string& bench_name) {
  if (!args.has("trace-out")) return {};
  std::string path = args.get("trace-out", "");
  if (path.empty() || path == "1") path = "TRACE_" + bench_name + ".json";
  if constexpr (!obs::kTraceEnabled) {
    std::fprintf(stderr,
                 "[--trace-out ignored: tracing compiled out (-DTME_TRACE=OFF)]\n");
    return {};
  }
  obs::Tracer::global().set_enabled(true);
  return path;
}

// Writes the trace collected since begin_trace; no-op for an empty path.
inline void finish_trace(const std::string& path) {
  if (path.empty()) return;
  const obs::Tracer& tracer = obs::Tracer::global();
  if (obs::Tracer::global().write(path)) {
    std::printf("[trace written: %s (%zu events, %zu dropped)]\n", path.c_str(),
                tracer.event_count(), tracer.dropped_count());
  } else {
    std::fprintf(stderr, "[trace write failed: %s]\n", path.c_str());
  }
}

}  // namespace tme::bench
