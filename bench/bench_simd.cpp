// SIMD kernel micro-sweep: every vectorized hot path (short-range row kernel,
// B-spline spreading and gathering, per-axis separable convolution) timed in
// both TME_SIMD modes from one process, with the parity contract asserted on
// every element: row kernel (forces and energies), spreading, gathering (back interpolation) and
// axis convolutions must be BITWISE identical between the scalar twin and the
// native-width kernel.
// Exits non-zero on any parity violation; timing gauges are volatile
// (speedup / seconds_per_eval) and never gate the regression check.  The
// element counters gate: they are deterministic for a fixed configuration.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ewald/charge_assignment.hpp"
#include "grid/separable_conv.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

#include "common.hpp"

namespace {

using namespace tme;

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double max_rel_dev(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

struct Row {
  std::string path;
  double scalar_s = 0.0;
  double native_s = 0.0;
  double elements = 0.0;  // work items per eval, for the per-element rate
  bool parity_ok = true;
  double deviation = 0.0;  // 0 for bitwise-exact paths
};

void report(const Row& row) {
  const double speedup = row.native_s > 0.0 ? row.scalar_s / row.native_s : 0.0;
  std::printf("%-18s %10.3f %10.3f %8.2fx %11.1e %s\n", row.path.c_str(),
              row.scalar_s * 1e3, row.native_s * 1e3, speedup, row.deviation,
              row.parity_ok ? "ok" : "** PARITY BROKEN **");
  const std::string prefix = "simd/" + row.path;
  auto& reg = obs::Registry::global();
  reg.gauge_set(prefix + "/scalar_seconds_per_eval", row.scalar_s);
  reg.gauge_set(prefix + "/native_seconds_per_eval", row.native_s);
  reg.gauge_set(prefix + "/speedup_vs_scalar", speedup);
  reg.counter(prefix + "/elements")
      .add(static_cast<std::uint64_t>(row.elements));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);
  const int reps = args.get_int("reps", 5);
  const std::size_t pairs =
      static_cast<std::size_t>(args.get_int("pairs", 200000));
  const std::size_t grid_n = static_cast<std::size_t>(args.get_int("grid", 64));
  const std::size_t particles =
      static_cast<std::size_t>(args.get_int("particles", 20000));
  const int conv_cutoff = args.get_int("conv-cutoff", 8);

  bench::print_header("bench_simd: scalar vs native kernel instantiations");
  std::printf("isa %s  native width %d  fma fused %s\n", simd::active_isa(),
              simd::kNativeWidth, simd::kFmaFused ? "yes" : "no");
  std::printf("%-18s %10s %10s %9s %11s\n", "path", "scalar ms", "native ms",
              "speedup", "deviation");

  obs::Registry::global().reset();
  bool all_ok = true;
  Rng rng(20210817);  // fixed seed: counters must be deterministic

  // --- short-range row kernel (tabulated and analytic Coulomb) ------------
  {
    const double cutoff = 1.2, alpha = 3.0;
    const ForceTable table(alpha, 0.1, cutoff, 4096);
    const bench::SyntheticRows rows(pairs, 100, cutoff + 0.1, rng);
    struct KernelCase {
      const char* name;
      PairKernelConfig cfg;
    };
    const KernelCase cases[] = {{"pair_tabulated", {alpha, &table}},
                                {"pair_analytic", {alpha, nullptr}}};
    for (const KernelCase& kc : cases) {
      const bench::RowKernelTiming t = bench::time_row_kernel(rows, kc.cfg, cutoff, reps);
      Row row;
      row.path = kc.name;
      row.elements = static_cast<double>(pairs);
      row.scalar_s = t.scalar_s;
      row.native_s = t.native_s;
      row.parity_ok = t.parity_ok;
      report(row);
      all_ok = all_ok && row.parity_ok;
    }
  }

  // --- B-spline spreading and gathering ------------------------------------
  {
    Box box;
    box.lengths = {4.0, 4.0, 4.0};
    const GridDims dims{grid_n, grid_n, grid_n};
    std::vector<Vec3> pos(particles);
    std::vector<double> q(particles);
    for (std::size_t i = 0; i < particles; ++i) {
      pos[i] = {rng.uniform(0.0, box.lengths.x), rng.uniform(0.0, box.lengths.y),
                rng.uniform(0.0, box.lengths.z)};
      q[i] = rng.uniform(-1.0, 1.0);
    }
    ChargeAssigner assigner(box, dims, 6);
    ThreadPool serial(0);  // single-thread: the SIMD effect, not threading

    Row spread;
    spread.path = "spread";
    spread.elements = static_cast<double>(particles);
    Grid3d grid_scalar(dims), grid_native(dims);
    for (int m = 0; m < 2; ++m) {
      assigner.set_simd_mode(m == 0 ? simd::Mode::kScalar : simd::Mode::kNative);
      Grid3d grid(dims);
      const double best = bench::time_best(
          reps, [&] { grid = assigner.assign(pos, q, &serial); });
      (m == 0 ? spread.scalar_s : spread.native_s) = best;
      (m == 0 ? grid_scalar : grid_native) = grid;
    }
    spread.parity_ok = bitwise_equal(grid_scalar.values(), grid_native.values());
    report(spread);
    all_ok = all_ok && spread.parity_ok;

    Row gather;
    gather.path = "gather";
    gather.elements = static_cast<double>(particles);
    std::vector<double> phi_scalar, phi_native;
    for (int m = 0; m < 2; ++m) {
      assigner.set_simd_mode(m == 0 ? simd::Mode::kScalar : simd::Mode::kNative);
      std::vector<Vec3> forces(particles, Vec3{});
      std::vector<double> phi;
      const double best = bench::time_best(reps, [&] {
        forces.assign(particles, Vec3{});
        assigner.back_interpolate(grid_scalar, pos, q, &forces, &phi);
      });
      (m == 0 ? gather.scalar_s : gather.native_s) = best;
      (m == 0 ? phi_scalar : phi_native) = phi;
    }
    gather.deviation = max_rel_dev(phi_native, phi_scalar);
    gather.parity_ok = bitwise_equal(phi_native, phi_scalar);
    report(gather);
    all_ok = all_ok && gather.parity_ok;

    // --- per-axis separable convolutions -----------------------------------
    Kernel1d kernel;
    kernel.cutoff = conv_cutoff;
    kernel.taps.resize(static_cast<std::size_t>(2 * conv_cutoff + 1));
    for (int mtap = -conv_cutoff; mtap <= conv_cutoff; ++mtap) {
      kernel.taps[static_cast<std::size_t>(mtap + conv_cutoff)] =
          std::exp(-0.08 * mtap * mtap);
    }
    const ConvAxis axes[] = {ConvAxis::kX, ConvAxis::kY, ConvAxis::kZ};
    const char* axis_names[] = {"conv_x", "conv_y", "conv_z"};
    for (int a = 0; a < 3; ++a) {
      Row conv;
      conv.path = axis_names[a];
      conv.elements = static_cast<double>(grid_scalar.size());
      Grid3d out_scalar(dims), out_native(dims);
      for (int m = 0; m < 2; ++m) {
        const simd::Mode mode = m == 0 ? simd::Mode::kScalar : simd::Mode::kNative;
        Grid3d& out = m == 0 ? out_scalar : out_native;
        const double best = bench::time_best(reps, [&] {
          convolve_axis(grid_scalar, kernel, axes[a], out, mode);
        });
        (m == 0 ? conv.scalar_s : conv.native_s) = best;
      }
      conv.parity_ok = bitwise_equal(out_scalar.values(), out_native.values());
      report(conv);
      all_ok = all_ok && conv.parity_ok;
    }
  }

  bench::emit_metrics("simd");
  if (!all_ok) {
    std::printf("FAILED: scalar/native kernel parity violated\n");
    return 1;
  }
  return 0;
}
