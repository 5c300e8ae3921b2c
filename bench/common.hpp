// Shared helpers for the reproduction benches.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ewald/reference_ewald.hpp"
#include "ewald/splitting.hpp"
#include "md/short_range.hpp"
#include "md/short_range_kernels.hpp"
#include "md/system.hpp"
#include "md/topology.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/constants.hpp"
#include "util/io_shim.hpp"
#include "util/rng.hpp"
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

// A synthetic half list for timing the short-range row kernel alone:
// `entries` columns, `per_row` to a row, each column its own atom at a
// distance uniform in [0.05 nm, reach) from its row atom (some below the
// force table, some beyond the cutoff).  Every fifth column is uncharged and
// LJ type 0 mixes to zero, so both kernels meet zero terms too.  The box is
// large enough that every minimum image is the plain difference.
struct SyntheticRows {
  std::vector<std::size_t> row_start;
  std::vector<std::uint32_t> cols;
  std::vector<double> x, y, z, charge;
  std::vector<std::uint32_t> type_of;
  std::vector<double> c6, c12, e_shift;  // 3 x 3 mixing table

  SyntheticRows(std::size_t entries, std::size_t per_row, double reach, Rng& rng) {
    const std::size_t rows = (entries + per_row - 1) / per_row;
    const double box = 100.0;
    row_start.push_back(0);
    auto add_atom = [&](double px, double py, double pz, double q, std::uint32_t t) {
      x.push_back(px);
      y.push_back(py);
      z.push_back(pz);
      charge.push_back(q);
      type_of.push_back(t);
    };
    // Row atoms first, then their columns.
    for (std::size_t r = 0; r < rows; ++r) {
      add_atom(rng.uniform(10.0, box - 10.0), rng.uniform(10.0, box - 10.0),
               rng.uniform(10.0, box - 10.0), rng.uniform(-1.0, 1.0),
               static_cast<std::uint32_t>(r % 3));
    }
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t r = e / per_row;
      const double dist = rng.uniform(0.05, reach);
      Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
      dir *= dist / norm(dir);
      cols.push_back(static_cast<std::uint32_t>(x.size()));
      add_atom(x[r] + dir.x, y[r] + dir.y, z[r] + dir.z,
               e % 5 == 0 ? 0.0 : rng.uniform(-1.0, 1.0),
               static_cast<std::uint32_t>(e % 3));
      if ((e + 1) % per_row == 0 || e + 1 == entries) row_start.push_back(cols.size());
    }
    // Column atoms have empty rows.
    row_start.resize(x.size() + 1, cols.size());
    cols.resize(cols.size() + simd::kNativeWidth, 0);
    c6.assign(9, 0.0);
    c12.assign(9, 0.0);
    e_shift.assign(9, 0.0);
    for (std::size_t a = 1; a < 3; ++a) {
      for (std::size_t b = a; b < 3; ++b) {
        c6[3 * a + b] = c6[3 * b + a] = rng.uniform(0.0, 3e-3);
        c12[3 * a + b] = c12[3 * b + a] = c6[3 * a + b] * rng.uniform(0.0, 1e-5);
      }
    }
  }

  std::size_t atoms() const { return x.size(); }

  PairRows view(const PairKernelConfig& kernel, double cutoff) const {
    PairRows v;
    v.row_start = row_start.data();
    v.cols = cols.data();
    v.x = x.data();
    v.y = y.data();
    v.z = z.data();
    v.charge = charge.data();
    v.type_of = type_of.data();
    v.c6 = c6.data();
    v.c12 = c12.data();
    v.e_shift = e_shift.data();
    v.ntypes = 3;
    v.box = {100.0, 100.0, 100.0};
    v.cutoff2 = cutoff * cutoff;
    v.kernel = kernel;
    return v;
  }
};

// The row kernel over every row of `rows` on one thread, timed in both
// SIMD modes; parity_ok says the two modes' sums are bitwise equal.
struct RowKernelTiming {
  double scalar_s = 0.0;
  double native_s = 0.0;
  bool parity_ok = true;
};

inline RowKernelTiming time_row_kernel(const SyntheticRows& rows,
                                       const PairKernelConfig& kernel, double cutoff,
                                       int reps) {
  const PairRows view = rows.view(kernel, cutoff);
  const std::size_t n = rows.atoms();
  RowKernelTiming out;
  PairSums sums[2];
  for (int m = 0; m < 2; ++m) {
    const simd::Mode mode = m == 0 ? simd::Mode::kScalar : simd::Mode::kNative;
    PairSums& s = sums[m];
    s.reset(n);
    (m == 0 ? out.scalar_s : out.native_s) =
        time_best(reps, [&] { sweep_rows(view, 0, n, s, mode); });
    s.reset(n);
    sweep_rows(view, 0, n, s, mode);
  }
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  out.parity_ok = same(sums[0].fx, sums[1].fx) && same(sums[0].fy, sums[1].fy) &&
                  same(sums[0].fz, sums[1].fz) &&
                  std::memcmp(&sums[0].energy_coulomb, &sums[1].energy_coulomb,
                              sizeof(double)) == 0 &&
                  std::memcmp(&sums[0].energy_lj, &sums[1].energy_lj,
                              sizeof(double)) == 0 &&
                  sums[0].pairs == sums[1].pairs;
  return out;
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
