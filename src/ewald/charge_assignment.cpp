#include "ewald/charge_assignment.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "spline/bspline.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace tme {

namespace {

// Accumulate one x-line of the P×P×P stencil into the grid:
//   grid_row[(ix0 + k) mod nx] = fma(qyz, wx[k], grid_row[(ix0 + k) mod nx]).
// When the x-window stays inside [0, nx) the stores are contiguous and run W
// elements at a time; the wrapped fallback applies the identical per-element
// fma, so both paths — and both W instantiations — are bitwise interchangeable.
template <int W>
void spread_line(double* grid_row, std::size_t ix0, std::size_t nx, int p,
                 double qyz, const double* wx) {
  using V = simd::vec<double, W>;
  if (ix0 + static_cast<std::size_t>(p) <= nx) {
    double* g = grid_row + ix0;
    const V qv = V::broadcast(qyz);
    int k = 0;
    for (; k + W <= p; k += W) {
      V::fma(qv, V::load(wx + k), V::load(g + k)).store(g + k);
    }
    if (k < p) {
      const int tail = p - k;
      V::fma(qv, V::load_partial(wx + k, tail), V::load_partial(g + k, tail))
          .store_partial(g + k, tail);
    }
  } else {
    std::size_t ix = ix0;
    for (int k = 0; k < p; ++k) {
      double& cell = grid_row[ix];
      cell = simd::fma1(qyz, wx[k], cell);
      if (++ix == nx) ix = 0;
    }
  }
}

// Back-interpolation stencil of one atom.  The p×p x-rows of the potential
// are accumulated element-wise (rows in (kz, ky) order) into three x-vectors
//   a[k] = sum vy vz row[k],  b[k] = sum gy vz row[k],  c[k] = sum vy gz row[k],
// which four fixed-order fma chains then dot against wx/dx:
//   phi = a.wx,  dphi/du = (a.dx, b.wx, c.wx).
// Every step is element-wise or scalar, so the result is bitwise invariant
// under W.  `ix0`, `iy0`, `iz0` are the wrapped stencil corner.  Forced
// inline: called out of line, the stencil made back interpolation about 20%
// slower (GCC 12, AVX-512, p = 6).
template <int W>
[[gnu::always_inline]] inline void interpolate_stencil(
    const double* pdata, const GridDims& dims, std::size_t ix0, std::size_t iy0,
    std::size_t iz0, int p, const double* wx, const double* dx, const double* wy,
    const double* dy, const double* wz, const double* dz, double& phi, Vec3& grad) {
  using V = simd::vec<double, W>;
  constexpr int kChunks = (kMaxBsplineOrder + W - 1) / W;
  const int chunks = (p + W - 1) / W;
  const int tail = p - (chunks - 1) * W;
  const bool contiguous = ix0 + static_cast<std::size_t>(p) <= dims.nx;
  V a[kChunks] = {}, b[kChunks] = {}, c[kChunks] = {};
  double wrapped[kMaxBsplineOrder] = {};
  std::size_t iz = iz0;
  for (int kz = 0; kz < p; ++kz) {
    std::size_t iy = iy0;
    for (int ky = 0; ky < p; ++ky) {
      const double* row = pdata + (iz * dims.ny + iy) * dims.nx;
      const double* line = row + ix0;
      if (!contiguous) {
        std::size_t ix = ix0;
        for (int k = 0; k < p; ++k) {
          wrapped[k] = row[ix];
          if (++ix == dims.nx) ix = 0;
        }
        line = wrapped;
      }
      const V sa = V::broadcast(wy[ky] * wz[kz]);
      const V sb = V::broadcast(dy[ky] * wz[kz]);
      const V sc = V::broadcast(wy[ky] * dz[kz]);
      for (int ch = 0; ch < chunks; ++ch) {
        const V r = ch + 1 < chunks ? V::load(line + ch * W)
                                    : V::load_partial(line + ch * W, tail);
        a[ch] = V::fma(sa, r, a[ch]);
        b[ch] = V::fma(sb, r, b[ch]);
        c[ch] = V::fma(sc, r, c[ch]);
      }
      if (++iy == dims.ny) iy = 0;
    }
    if (++iz == dims.nz) iz = 0;
  }
  double av[kChunks * W] = {}, bv[kChunks * W] = {}, cv[kChunks * W] = {};
  for (int ch = 0; ch < chunks; ++ch) {
    a[ch].store(av + ch * W);
    b[ch].store(bv + ch * W);
    c[ch].store(cv + ch * W);
  }
  phi = 0.0;
  grad = Vec3{};
  for (int k = 0; k < p; ++k) {
    phi = simd::fma1(av[k], wx[k], phi);
    grad.x = simd::fma1(av[k], dx[k], grad.x);
    grad.y = simd::fma1(bv[k], wx[k], grad.y);
    grad.z = simd::fma1(cv[k], wx[k], grad.z);
  }
}

}  // namespace

void spread_atom(double* grid, const GridDims& dims, std::size_t ix0,
                 std::size_t iy0, std::size_t iz0, int p, double q,
                 const double* wx, const double* wy, const double* wz,
                 simd::Mode mode) {
  const bool native = mode == simd::Mode::kNative;
  const auto [nx, ny, nz] = dims;
  // The corner is wrapped once; the row indices then step with a
  // compare-and-reset.
  std::size_t iz = iz0;
  for (int kz = 0; kz < p; ++kz) {
    const double qz = q * wz[kz];
    std::size_t iy = iy0;
    for (int ky = 0; ky < p; ++ky) {
      const double qyz = qz * wy[ky];
      double* row = grid + (iz * ny + iy) * nx;
      if (native) {
        spread_line<simd::kNativeWidth>(row, ix0, nx, p, qyz, wx);
      } else {
        spread_line<1>(row, ix0, nx, p, qyz, wx);
      }
      if (++iy == ny) iy = 0;
    }
    if (++iz == nz) iz = 0;
  }
}

void interpolate_atom(const double* grid, const GridDims& dims, std::size_t ix0,
                      std::size_t iy0, std::size_t iz0, int p, const double* wx,
                      const double* dx, const double* wy, const double* dy,
                      const double* wz, const double* dz, simd::Mode mode,
                      double& phi, Vec3& grad) {
  if (mode == simd::Mode::kNative) {
    interpolate_stencil<simd::kNativeWidth>(grid, dims, ix0, iy0, iz0, p, wx, dx,
                                            wy, dy, wz, dz, phi, grad);
  } else {
    interpolate_stencil<1>(grid, dims, ix0, iy0, iz0, p, wx, dx, wy, dy, wz, dz,
                           phi, grad);
  }
}

ChargeAssigner::ChargeAssigner(const Box& box, GridDims dims, int order)
    : box_(box), dims_(dims), p_(order) {
  if (order < 2 || order % 2 != 0 || order > kMaxBsplineOrder) {
    throw std::invalid_argument(
        "ChargeAssigner: order must be even and in [2, kMaxBsplineOrder]");
  }
  if (dims.total() == 0) throw std::invalid_argument("ChargeAssigner: empty grid");
  h_ = {box.lengths.x / static_cast<double>(dims.nx),
        box.lengths.y / static_cast<double>(dims.ny),
        box.lengths.z / static_cast<double>(dims.nz)};
}

void ChargeAssigner::spread_range(Grid3d& grid, std::span<const Vec3> positions,
                                  std::span<const double> charges,
                                  std::size_t first, std::size_t last) const {
  for_each_atom_weights(positions, box_, h_, p_, false, simd_mode_, first, last,
                        [&](std::size_t i, const AtomWeights& aw) {
                          spread_atom(grid.data(), dims_, Grid3d::wrap(aw.base[0], dims_.nx),
                                      Grid3d::wrap(aw.base[1], dims_.ny),
                                      Grid3d::wrap(aw.base[2], dims_.nz), p_, charges[i],
                                      aw.w[0], aw.w[1], aw.w[2], simd_mode_);
                        });
}

Grid3d ChargeAssigner::assign(std::span<const Vec3> positions,
                              std::span<const double> charges,
                              ThreadPool* pool_ptr) const {
  if (positions.size() != charges.size()) {
    throw std::invalid_argument("ChargeAssigner::assign: size mismatch");
  }
  TME_COUNTER_ADD("charge_assignment/assign_calls", 1);
  Grid3d grid(dims_);
  const std::size_t n = positions.size();
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();
  // The hardware accumulates through the global memory's atomic-add write
  // mode; in software each batch scatters into a private scratch grid and
  // the grids are summed point-wise in fixed batch order (deterministic per
  // pool size).  The scratch count is capped to bound the extra memory on
  // wide machines.
  constexpr std::size_t kMaxScratchGrids = 16;
  const std::size_t nb = std::min<std::size_t>(
      {ThreadPool::in_parallel_region() ? std::size_t{1} : pool.concurrency(),
       std::max<std::size_t>(n, 1), kMaxScratchGrids});
  if (nb <= 1) {
    spread_range(grid, positions, charges, 0, n);
    return grid;
  }
  const std::size_t chunk = (n + nb - 1) / nb;
  std::vector<Grid3d> scratch(nb);
  parallel_for(pool, 0, nb, [&](std::size_t b) {
    scratch[b] = Grid3d(dims_);
    spread_range(scratch[b], positions, charges, b * chunk,
                 std::min(b * chunk + chunk, n));
  });
  parallel_for(pool, 0, grid.size(), [&](std::size_t g) {
    double acc = 0.0;
    for (std::size_t b = 0; b < nb; ++b) acc += scratch[b][g];
    grid[g] = acc;
  });
  return grid;
}

double ChargeAssigner::back_interpolate(const Grid3d& potential,
                                        std::span<const Vec3> positions,
                                        std::span<const double> charges,
                                        std::vector<Vec3>* forces,
                                        std::vector<double>* phi_out,
                                        ThreadPool* pool_ptr) const {
  if (!(potential.dims() == dims_)) {
    throw std::invalid_argument("ChargeAssigner::back_interpolate: grid mismatch");
  }
  if (positions.size() != charges.size()) {
    throw std::invalid_argument("ChargeAssigner::back_interpolate: size mismatch");
  }
  if (forces != nullptr && forces->size() != positions.size()) {
    throw std::invalid_argument("ChargeAssigner::back_interpolate: forces size");
  }
  if (phi_out != nullptr) phi_out->assign(positions.size(), 0.0);

  const double* pdata = potential.data();
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();
  // Per-range partial sums, added in range order afterwards: the energy is
  // then the same on every run at a given pool size, not dependent on which
  // range finished first.
  std::mutex sum_mutex;
  std::vector<std::pair<std::size_t, double>> partials;  // (range begin, sum)
  parallel_for_ranges(pool, 0, positions.size(), [&](std::size_t begin, std::size_t end) {
    double local_sum = 0.0;
    for_each_atom_weights(
        positions, box_, h_, p_, true, simd_mode_, begin, end,
        [&](std::size_t i, const AtomWeights& aw) {
          double phi = 0.0;
          Vec3 grad{};  // d phi / d u (grid units)
          interpolate_atom(pdata, dims_, Grid3d::wrap(aw.base[0], dims_.nx),
                           Grid3d::wrap(aw.base[1], dims_.ny),
                           Grid3d::wrap(aw.base[2], dims_.nz), p_, aw.w[0], aw.d[0],
                           aw.w[1], aw.d[1], aw.w[2], aw.d[2], simd_mode_, phi, grad);
          if (phi_out != nullptr) (*phi_out)[i] = phi;
          local_sum += charges[i] * phi;
          if (forces != nullptr) {
            const double q = charges[i];
            (*forces)[i] += {-q * grad.x / h_.x, -q * grad.y / h_.y, -q * grad.z / h_.z};
          }
        });
    const std::lock_guard lock(sum_mutex);
    partials.emplace_back(begin, local_sum);
  });
  std::sort(partials.begin(), partials.end());
  double total = 0.0;
  for (const auto& [begin, sum] : partials) total += sum;
  return total;
}

}  // namespace tme
