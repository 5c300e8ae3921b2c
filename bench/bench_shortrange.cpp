// Thread-scaling, SIMD, and kernel-accuracy bench for the parallel
// short-range engine (md/short_range_engine.hpp) on the standard water-box
// workload.
//
// Sweeps kernel (analytic erfc vs the segmented-polynomial r² table) ×
// SIMD mode (scalar twin vs native-width vec kernel) × pool sizes 1, 2, 4,
// ... up to --threads, and reports the steady-state time per eval (the pair
// list reused), the first-call time of a fresh engine (list build + eval),
// pair throughput, speedup over 1 thread, speedup over the scalar twin, and
// the force deviation from the serial reference loop.  The run *fails*
// (non-zero exit) when
//  - the analytic forces drift from the serial ones beyond 1e-10 relative,
//  - the tabulated forces drift from analytic beyond 1e-6 relative,
//  - the native-mode forces are not BITWISE identical to the scalar-mode
//    forces at the same pool size (the SIMD parity contract, util/simd.hpp),
//    or
//  - an engine evaluating a displaced frame from its aged pair list is not
//    BITWISE identical to a fresh engine on that frame (the list-age
//    contract, md/short_range_engine.hpp).
// CI runs this as a correctness smoke, never asserting on raw timing.
//
// A final "isolated kernel micro" block times the row kernel on a synthetic
// list and the separable axis convolution without the list build,
// exporting shortrange/kernel_micro/<path>/speedup_vs_scalar — the
// headline scalar-vs-native numbers for the SIMD layer.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ewald/splitting.hpp"
#include "grid/separable_conv.hpp"
#include "md/short_range_engine.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

#include "common.hpp"

namespace {

using namespace tme;

// max_i |a_i - b_i| / max_i |b_i| — scale-relative force deviation.
double force_deviation(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, norm(a[i] - b[i]));
    scale = std::max(scale, norm(b[i]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

bool bitwise_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);
  const std::size_t molecules =
      static_cast<std::size_t>(args.get_int("molecules", 1728));
  const int reps = args.get_int("reps", 3);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned max_threads =
      static_cast<unsigned>(args.get_int("threads", static_cast<int>(hardware)));
  const std::string trace_path = bench::begin_trace(args, "shortrange");

  WaterBoxSpec spec;
  spec.molecules = molecules;
  WaterBox wb = build_water_box(spec);
  add_ion_pairs(wb, std::max<std::size_t>(1, molecules / 64));
  const std::size_t n = wb.system.size();

  ShortRangeParams params;
  params.cutoff = std::min(1.2, 0.45 * wb.system.box.lengths.x);
  params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
  params.shift_lj = true;

  bench::print_header("bench_shortrange: parallel short-range engine");
  std::printf(
      "atoms %zu  box %.3f nm  cutoff %.3f nm  alpha %.3f  reps %d  isa %s\n",
      n, wb.system.box.lengths.x, params.cutoff, params.alpha, reps,
      simd::active_isa());

  obs::Registry::global().reset();

  // Serial reference: the plain cell-list loop (warmed up by time_best).
  std::vector<Vec3> f_serial;
  ShortRangeResult ref;
  const double serial_seconds = bench::time_best(reps, [&] {
    wb.system.forces.assign(n, Vec3{});
    ref = compute_short_range(wb.system, wb.topology, params);
  });
  f_serial = wb.system.forces;
  std::printf("serial reference: %8.2f ms/eval  %zu pairs\n",
              serial_seconds * 1e3, ref.pair_count);

  struct KernelSpec {
    const char* name;
    CoulombKernel kernel;
    double tolerance;  // vs the serial analytic reference
  };
  const KernelSpec kernels[] = {
      {"analytic", CoulombKernel::kAnalytic, 1e-10},
      {"tabulated", CoulombKernel::kTabulated, 1e-6},
  };

  // The list-age check: an engine builds its list on `aging`, then
  // evaluates `displaced` (every atom moved by under half the buffer) from
  // that aged list.  `aging` is the box jittered off the builder's lattice,
  // so the moves carry atoms across the list's cells and a fresh list
  // orders its candidates differently.
  ParticleSystem aging = wb.system;
  Rng jitter(5);
  for (Vec3& r : aging.positions) {
    r += Vec3{0.15 + 0.02 * jitter.normal(), 0.15 + 0.02 * jitter.normal(),
              0.15 + 0.02 * jitter.normal()};
  }
  ParticleSystem displaced = aging;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 0.45 * ShortRangeEngine::kListBuffer / std::sqrt(3.0);
    const double a = static_cast<double>(i);
    displaced.positions[i] += Vec3{s * std::sin(a), s * std::cos(2.0 * a), s * std::sin(3.0 * a)};
  }

  bench::print_header("kernel x simd-mode x thread sweep");
  std::printf("%-10s %-7s %8s %-7s %12s %14s %9s %10s %12s\n", "kernel", "mode",
              "threads", "call", "ms/eval", "pairs/s", "speedup", "vs_scalar",
              "max rel dF");

  bool mismatch = false;
  for (const KernelSpec& kernel : kernels) {
    ShortRangeParams p_scalar = params;
    p_scalar.kernel = kernel.kernel;
    p_scalar.simd = ShortRangeParams::SimdChoice::kScalar;
    ShortRangeParams p_native = p_scalar;
    p_native.simd = ShortRangeParams::SimdChoice::kNative;
    const ShortRangeEngine engines[] = {ShortRangeEngine(p_scalar),
                                        ShortRangeEngine(p_native)};
    if (engines[0].force_table() != nullptr) {
      obs::Registry::global().gauge_set(
          "shortrange/table_max_rel_error_energy",
          engines[0].force_table()->max_rel_error_energy());
      obs::Registry::global().gauge_set(
          "shortrange/table_max_rel_error_force",
          engines[0].force_table()->max_rel_error_force());
    }
    // t1 per mode (for the thread-speedup column); scalar best per thread
    // count (for the SIMD-speedup column and the bitwise parity gate).
    double t1[2] = {0.0, 0.0};
    for (unsigned threads = 1; threads <= max_threads; threads *= 2) {
      ThreadPool pool(threads - 1);
      double scalar_best = 0.0;
      std::vector<Vec3> f_scalar;
      for (int m = 0; m < 2; ++m) {
        const ShortRangeEngine& engine = engines[m];
        ShortRangeResult r{};
        const double best = bench::time_best(reps, [&] {
          wb.system.forces.assign(n, Vec3{});
          r = engine.compute(wb.system, wb.topology, &pool);
        });
        const std::vector<Vec3> forces = wb.system.forces;
        // First call of a fresh engine: the list build plus one eval.
        const double first = bench::time_best(reps, [&] {
          const ShortRangeEngine fresh(engine.params());
          wb.system.forces.assign(n, Vec3{});
          fresh.compute(wb.system, wb.topology, &pool);
        });
        // The aged list against a fresh one.
        aging.forces.assign(n, Vec3{});
        engine.compute(aging, wb.topology, &pool);
        const std::size_t builds = engine.list_builds();
        displaced.forces.assign(n, Vec3{});
        const ShortRangeResult aged = engine.compute(displaced, wb.topology, &pool);
        const std::vector<Vec3> f_aged = displaced.forces;
        displaced.forces.assign(n, Vec3{});
        const ShortRangeResult fresh =
            ShortRangeEngine(engine.params()).compute(displaced, wb.topology, &pool);
        const bool age_ok = engine.list_builds() == builds &&
                            aged.pair_count == fresh.pair_count &&
                            aged.energy_coulomb == fresh.energy_coulomb &&
                            aged.energy_lj == fresh.energy_lj &&
                            bitwise_equal(f_aged, displaced.forces);
        wb.system.forces = forces;
        if (threads == 1) t1[m] = best;
        if (m == 0) {
          scalar_best = best;
          f_scalar = wb.system.forces;
        }
        const double deviation = force_deviation(wb.system.forces, f_serial);
        const double pairs_per_s = static_cast<double>(r.pair_count) / best;
        const double vs_scalar = scalar_best / best;
        const char* mode_name = simd::mode_name(engine.simd_mode());
        const bool parity_ok = m == 0 || bitwise_equal(wb.system.forces, f_scalar);
        // Two rows: steady state (the list reused) and a fresh engine's
        // first call (list build + eval).
        std::printf("%-10s %-7s %8u %-7s %12.2f %14.3e %9.2f %10.2f %12.2e%s%s%s\n",
                    kernel.name, mode_name, threads, "steady", best * 1e3,
                    pairs_per_s, t1[m] / best, vs_scalar, deviation,
                    deviation > kernel.tolerance ? "  ** MISMATCH **" : "",
                    parity_ok ? "" : "  ** SIMD PARITY BROKEN **",
                    age_ok ? "" : "  ** AGED LIST DIFFERS **");
        std::printf("%-10s %-7s %8u %-7s %12.2f\n", kernel.name, mode_name, threads,
                    "first", first * 1e3);
        const std::string prefix = std::string("shortrange/") + kernel.name +
                                   "/" + mode_name + "/t" +
                                   std::to_string(threads);
        obs::Registry::global().gauge_set(prefix + "/seconds_per_eval", best);
        obs::Registry::global().gauge_set(prefix + "/first_call_seconds_per_eval", first);
        obs::Registry::global().gauge_set(prefix + "/pairs_per_s", pairs_per_s);
        obs::Registry::global().gauge_set(prefix + "/speedup", t1[m] / best);
        obs::Registry::global().gauge_set(prefix + "/speedup_vs_scalar",
                                          vs_scalar);
        if (deviation > kernel.tolerance) mismatch = true;
        if (!parity_ok) mismatch = true;
        if (!age_ok) mismatch = true;
        if (r.pair_count != ref.pair_count) {
          std::printf("  ** pair count mismatch: %zu vs serial %zu **\n",
                      r.pair_count, ref.pair_count);
          mismatch = true;
        }
      }
    }
  }

  // --- isolated vectorized-kernel micro (single thread) --------------------
  // The engine sweep above folds the list build, the position copy and the
  // thread reduction into every timing.  These rows time the vectorized
  // kernels by themselves: the short-range row kernel (filter, pair math and
  // force scatter) on a synthetic list with the water box's cutoff and
  // buffer, and the separable axis convolution that the TME long-range pass
  // runs on the same step.  The speedup_vs_scalar
  // gauges here are the headline scalar-vs-native kernel numbers.
  bench::print_header("isolated kernel micro: scalar vs native");
  std::printf("%-28s %10s %10s %9s\n", "path", "scalar ms", "native ms",
              "speedup");
  {
    const double micro_cutoff = params.cutoff;
    const ForceTable micro_table(params.alpha, 0.1, micro_cutoff, 4096);
    Rng rng(20210817);
    const bench::SyntheticRows micro_rows(200000, 100,
                                          micro_cutoff + ShortRangeEngine::kListBuffer, rng);
    struct MicroRow {
      std::string path;
      double scalar_s = 0.0;
      double native_s = 0.0;
      bool parity_ok = true;
    };
    auto emit_micro = [&](const MicroRow& row) {
      const double speedup =
          row.native_s > 0.0 ? row.scalar_s / row.native_s : 0.0;
      std::printf("%-28s %10.3f %10.3f %8.2fx%s\n", row.path.c_str(),
                  row.scalar_s * 1e3, row.native_s * 1e3, speedup,
                  row.parity_ok ? "" : "  ** SIMD PARITY BROKEN **");
      const std::string prefix = "shortrange/kernel_micro/" + row.path;
      obs::Registry::global().gauge_set(prefix + "/scalar_seconds_per_eval",
                                        row.scalar_s);
      obs::Registry::global().gauge_set(prefix + "/native_seconds_per_eval",
                                        row.native_s);
      obs::Registry::global().gauge_set(prefix + "/speedup_vs_scalar", speedup);
      if (!row.parity_ok) mismatch = true;
    };
    const PairKernelConfig micro_cfgs[] = {{params.alpha, &micro_table},
                                           {params.alpha, nullptr}};
    const char* micro_names[] = {"pair_tabulated", "pair_analytic"};
    for (int c = 0; c < 2; ++c) {
      const bench::RowKernelTiming t =
          bench::time_row_kernel(micro_rows, micro_cfgs[c], micro_cutoff, reps);
      emit_micro({micro_names[c], t.scalar_s, t.native_s, t.parity_ok});
    }

    // Gaussian axis convolution on a 64³ grid (the TME per-axis pass).
    const GridDims dims{64, 64, 64};
    Grid3d src(dims);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src.values()[i] = rng.uniform(-1.0, 1.0);
    }
    Kernel1d gauss;
    gauss.cutoff = 8;
    gauss.taps.resize(17);
    for (int t = -8; t <= 8; ++t) {
      gauss.taps[static_cast<std::size_t>(t + 8)] = std::exp(-0.08 * t * t);
    }
    const ConvAxis conv_axes[] = {ConvAxis::kX, ConvAxis::kY, ConvAxis::kZ};
    const char* conv_names[] = {"conv_axis_x", "conv_axis_y", "conv_axis_z"};
    for (int a = 0; a < 3; ++a) {
      MicroRow row;
      row.path = conv_names[a];
      Grid3d out_scalar(dims), out_native(dims);
      for (int m = 0; m < 2; ++m) {
        const simd::Mode mode =
            m == 0 ? simd::Mode::kScalar : simd::Mode::kNative;
        Grid3d& out = m == 0 ? out_scalar : out_native;
        const double best = bench::time_best(
            reps, [&] { convolve_axis(src, gauss, conv_axes[a], out, mode); });
        (m == 0 ? row.scalar_s : row.native_s) = best;
      }
      row.parity_ok =
          std::memcmp(out_scalar.values().data(), out_native.values().data(),
                      out_scalar.size() * sizeof(double)) == 0;
      emit_micro(row);
    }
  }

  bench::emit_metrics("shortrange");
  bench::finish_trace(trace_path);
  if (mismatch) {
    std::printf(
        "FAILED: forces deviate beyond tolerance, SIMD parity broke, or an aged "
        "pair list changed the bits\n");
    return 1;
  }
  return 0;
}
