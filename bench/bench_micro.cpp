// Google-benchmark microbenchmarks of the numerical kernels: B-spline
// evaluation (the LRU inner loop), FFT sizes the hardware uses, separable
// vs dense convolution and restriction/prolongation (the GCU workload),
// charge assignment and back interpolation throughput, the fleet's per-node
// grid tasks and the CRC-32 every frame, checkpoint and context seal runs.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/gaussian_fit.hpp"
#include "core/grid_kernel.hpp"
#include "ewald/charge_assignment.hpp"
#include "fft/fft3d.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "par/node_kernels.hpp"
#include "spline/bspline.hpp"
#include "spline/two_scale.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace tme;

void BM_BsplineWeights(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  std::vector<double> w(static_cast<std::size_t>(p)), d(w);
  Rng rng(1);
  double u = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bspline_weights_central(p, u, w, d));
    u += 0.37;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BsplineWeights)->Arg(4)->Arg(6)->Arg(8);

void BM_Fft3d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Fft3d fft(n, n, n);
  Rng rng(2);
  std::vector<std::complex<double>> data(fft.size());
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), 0.0};
  for (auto _ : state) {
    fft.forward(data);
    fft.inverse(data);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(fft.size()));
}
BENCHMARK(BM_Fft3d)->Arg(16)->Arg(32)->Arg(64);

void BM_SeparableConvolution(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto terms = fit_shell_gaussians(2.2, 4);
  const auto kernels =
      build_level_kernels(terms, 6, {n, n, n}, {0.31, 0.31, 0.31}, 8);
  Grid3d q(n, n, n);
  Rng rng(3);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  Grid3d out(q.dims());
  for (auto _ : state) {
    out.fill(0.0);
    convolve_tensor(q, kernels, 1.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(q.size()));
}
BENCHMARK(BM_SeparableConvolution)->Arg(16)->Arg(32);

// Grid transfer at order 6 between a fine n^3 grid and its (n/2)^3 coarse
// level; items are fine grid points.
void BM_RestrictGrid(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Grid3d fine(n, n, n);
  Rng rng(7);
  for (std::size_t i = 0; i < fine.size(); ++i) fine[i] = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(restrict_grid(fine, 6));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(fine.size()));
}
BENCHMARK(BM_RestrictGrid)->Arg(16)->Arg(32);

void BM_ProlongGrid(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Grid3d coarse(n / 2, n / 2, n / 2);
  Rng rng(8);
  for (std::size_t i = 0; i < coarse.size(); ++i) coarse[i] = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prolong_grid(coarse, 6));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(8 * coarse.size()));
}
BENCHMARK(BM_ProlongGrid)->Arg(16)->Arg(32);

void BM_DenseConvolution(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto terms = fit_shell_gaussians(2.2, 4);
  const auto kernels =
      build_level_kernels(terms, 6, {n, n, n}, {0.31, 0.31, 0.31}, 8);
  const auto cube = dense_kernel_cube(kernels, 8);
  Grid3d q(n, n, n);
  Rng rng(4);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  Grid3d out(q.dims());
  for (auto _ : state) {
    convolve_dense3d(q, cube, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(q.size()));
}
BENCHMARK(BM_DenseConvolution)->Arg(16);

void BM_ChargeAssignment(benchmark::State& state) {
  const std::size_t atoms = static_cast<std::size_t>(state.range(0));
  const Box box{{6.0, 6.0, 6.0}};
  const ChargeAssigner ca(box, {32, 32, 32}, 6);
  Rng rng(5);
  std::vector<Vec3> pos(atoms);
  std::vector<double> q(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    pos[i] = {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.assign(pos, q));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(atoms));
}
BENCHMARK(BM_ChargeAssignment)->Arg(1000)->Arg(10000);

void BM_BackInterpolation(benchmark::State& state) {
  const std::size_t atoms = static_cast<std::size_t>(state.range(0));
  const Box box{{6.0, 6.0, 6.0}};
  const ChargeAssigner ca(box, {32, 32, 32}, 6);
  Rng rng(6);
  std::vector<Vec3> pos(atoms);
  std::vector<double> q(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    pos[i] = {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  const Grid3d grid = ca.assign(pos, q);
  std::vector<Vec3> forces(atoms);
  for (auto _ : state) {
    forces.assign(atoms, Vec3{});
    benchmark::DoNotOptimize(ca.back_interpolate(grid, pos, q, &forces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(atoms));
}
BENCHMARK(BM_BackInterpolation)->Arg(1000)->Arg(10000);

// One fleet grid task as a worker runs it, on the water-tme-fleet geometry
// (32^3 finest grid, p = 6, g_c = 8, 2x2x1 torus): the fine block is
// 16x16x32 and the coarse block 8x8x16.  Arg 0 picks the task: 0 restricts
// a fine halo into a coarse block, 1 prolongs a coarse halo into a fine
// block, 2-4 convolve a fine block along x/y/z, 5-7 a coarse block.  Items
// are output cells.
void BM_NodeGridTask(benchmark::State& state) {
  const int task = static_cast<int>(state.range(0));
  const int p = 6, half_p = 3;
  const long gc = 8;
  const GridDims fine{16, 16, 32}, coarse{8, 8, 16};
  const std::vector<double> j = two_scale_coefficients(p);
  const auto terms = fit_shell_gaussians(2.2, 4);
  Rng rng(9);
  par::ExtendedBlock halo;
  auto fill = [&] {
    for (double& v : halo.data) v = rng.uniform(-1.0, 1.0);
  };
  GridDims out = task == 0 || task >= 5 ? coarse : fine;
  if (task == 0) {
    halo.reset(-half_p, -half_p, -half_p, 2 * 8 + p, 2 * 8 + p, 2 * 16 + p);
  } else if (task == 1) {
    halo.reset((0 - half_p - 1) / 2, (0 - half_p - 1) / 2, (0 - half_p - 1) / 2,
               (16 + p) / 2 + 2, (16 + p) / 2 + 2, (32 + p) / 2 + 2);
  } else {
    const int axis = (task - 2) % 3;
    halo.reset(axis == 0 ? -gc : 0, axis == 1 ? -gc : 0, axis == 2 ? -gc : 0,
               out.nx + (axis == 0 ? 2 * gc : 0), out.ny + (axis == 1 ? 2 * gc : 0),
               out.nz + (axis == 2 ? 2 * gc : 0));
  }
  fill();
  const std::size_t n_level = task >= 5 ? 16 : 32;
  const auto kernels = build_level_kernels(terms, p, {n_level, n_level, n_level},
                                           {0.1, 0.1, 0.1}, static_cast<int>(gc));
  static const char* const kNames[] = {"restrict",  "prolong",   "conv_fine_x",
                                       "conv_fine_y", "conv_fine_z", "conv_coarse_x",
                                       "conv_coarse_y", "conv_coarse_z"};
  state.SetLabel(kNames[task]);
  for (auto _ : state) {
    if (task == 0) {
      benchmark::DoNotOptimize(par::restrict_block(halo, 0, 0, 0, out, p, j));
    } else if (task == 1) {
      benchmark::DoNotOptimize(par::prolong_block(halo, 0, 0, 0, out, p, j));
    } else {
      const int axis = (task - 2) % 3;
      const Kernel1d& k =
          axis == 0 ? kernels[0].kx : (axis == 1 ? kernels[0].ky : kernels[0].kz);
      benchmark::DoNotOptimize(par::convolve_block_axis(halo, 0, 0, 0, out, axis, gc,
                                                        n_level, k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(out.total()));
}
BENCHMARK(BM_NodeGridTask)->DenseRange(0, 7);

// CRC-32 over a 4 KiB (small frame) and 1 MiB (grid payload) buffer.
void BM_Crc32(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> buf(n);
  Rng rng(10);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
