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
//   grid_row[wrap(mx0 + k)] = fma(qyz, wx[k], grid_row[wrap(mx0 + k)]).
// When the x-window stays inside [0, nx) the stores are contiguous and run W
// elements at a time; the wrapped fallback applies the identical per-element
// fma, so both paths — and both W instantiations — are bitwise interchangeable.
template <int W>
void spread_line(double* grid_row, long mx0, std::size_t nx, int p, double qyz,
                 const double* wx) {
  using V = simd::vec<double, W>;
  const std::size_t ix0 = Grid3d::wrap(mx0, nx);
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
    for (int k = 0; k < p; ++k) {
      double& cell = grid_row[Grid3d::wrap(mx0 + k, nx)];
      cell = simd::fma1(qyz, wx[k], cell);
    }
  }
}

// Dot the x-line of grid values against the value and derivative weights:
//   line_v = sum_k pm[k] * wx[k],  line_d = sum_k pm[k] * dx[k].
// Lane partials are combined with vec::reduce_add's fixed tree, so W > 1
// differs from the scalar twin by reassociation rounding only (the gather
// relaxation documented in util/simd.hpp).
template <int W>
void gather_line(const double* pm, const double* wx, const double* dx, int p,
                 double& line_v, double& line_d) {
  using V = simd::vec<double, W>;
  V acc_v = V::zero();
  V acc_d = V::zero();
  int k = 0;
  for (; k + W <= p; k += W) {
    const V pv = V::load(pm + k);
    acc_v = V::fma(pv, V::load(wx + k), acc_v);
    acc_d = V::fma(pv, V::load(dx + k), acc_d);
  }
  if (k < p) {
    const int tail = p - k;
    const V pv = V::load_partial(pm + k, tail);
    acc_v = V::fma(pv, V::load_partial(wx + k, tail), acc_v);
    acc_d = V::fma(pv, V::load_partial(dx + k, tail), acc_d);
  }
  line_v = acc_v.reduce_add();
  line_d = acc_d.reduce_add();
}

// Wrapped fallback for gather_line — same fma chain as the W = 1 path.
void gather_line_wrapped(const double* row, long mx0, std::size_t nx,
                         const double* wx, const double* dx, int p,
                         double& line_v, double& line_d) {
  double acc_v = 0.0, acc_d = 0.0;
  for (int k = 0; k < p; ++k) {
    const double pm = row[Grid3d::wrap(mx0 + k, nx)];
    acc_v = simd::fma1(pm, wx[k], acc_v);
    acc_d = simd::fma1(pm, dx[k], acc_d);
  }
  line_v = acc_v;
  line_d = acc_d;
}

}  // namespace

ChargeAssigner::ChargeAssigner(const Box& box, GridDims dims, int order)
    : box_(box), dims_(dims), p_(order) {
  if (order < 2) throw std::invalid_argument("ChargeAssigner: order must be >= 2");
  if (dims.total() == 0) throw std::invalid_argument("ChargeAssigner: empty grid");
  h_ = {box.lengths.x / static_cast<double>(dims.nx),
        box.lengths.y / static_cast<double>(dims.ny),
        box.lengths.z / static_cast<double>(dims.nz)};
}

void ChargeAssigner::spread_range(Grid3d& grid, std::span<const Vec3> positions,
                                  std::span<const double> charges,
                                  std::size_t first, std::size_t last) const {
  const int p = p_;
  const int width = simd::lanes(simd_mode_);
  double* gdata = grid.data();
  std::vector<double> wx(static_cast<std::size_t>(p)), wy(wx), wz(wx);
  for (std::size_t i = first; i < last; ++i) {
    const Vec3 u = hadamard_div(box_.wrap(positions[i]), h_);
    const long mx0 = bspline_weights_central(p, u.x, wx, {});
    const long my0 = bspline_weights_central(p, u.y, wy, {});
    const long mz0 = bspline_weights_central(p, u.z, wz, {});
    const double q = charges[i];
    for (int kz = 0; kz < p; ++kz) {
      const double qz = q * wz[static_cast<std::size_t>(kz)];
      const std::size_t iz = Grid3d::wrap(mz0 + kz, dims_.nz);
      for (int ky = 0; ky < p; ++ky) {
        const double qyz = qz * wy[static_cast<std::size_t>(ky)];
        const std::size_t iy = Grid3d::wrap(my0 + ky, dims_.ny);
        double* row = gdata + (iz * dims_.ny + iy) * dims_.nx;
        if (width > 1) {
          spread_line<simd::kNativeWidth>(row, mx0, dims_.nx, p, qyz, wx.data());
        } else {
          spread_line<1>(row, mx0, dims_.nx, p, qyz, wx.data());
        }
      }
    }
  }
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
                                        std::vector<double>* phi_out) const {
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

  const int p = p_;
  const int width = simd::lanes(simd_mode_);
  const double* pdata = potential.data();
  // Per-range partial sums, added in range order afterwards: the energy is
  // then the same on every run at a given pool size, not dependent on which
  // range finished first.
  std::mutex sum_mutex;
  std::vector<std::pair<std::size_t, double>> partials;  // (range begin, sum)
  parallel_for_ranges(0, positions.size(), [&](std::size_t begin, std::size_t end) {
    std::vector<double> wx(static_cast<std::size_t>(p)), wy(wx), wz(wx);
    std::vector<double> dx(wx), dy(wx), dz(wx);
    double local_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 u = hadamard_div(box_.wrap(positions[i]), h_);
      const long mx0 = bspline_weights_central(p, u.x, wx, dx);
      const long my0 = bspline_weights_central(p, u.y, wy, dy);
      const long mz0 = bspline_weights_central(p, u.z, wz, dz);
      double phi = 0.0;
      Vec3 grad{};  // d phi / d u (grid units)
      const std::size_t ix0 = Grid3d::wrap(mx0, dims_.nx);
      const bool contiguous = ix0 + static_cast<std::size_t>(p) <= dims_.nx;
      for (int kz = 0; kz < p; ++kz) {
        const std::size_t iz = Grid3d::wrap(mz0 + kz, dims_.nz);
        const double vz = wz[static_cast<std::size_t>(kz)];
        const double gz = dz[static_cast<std::size_t>(kz)];
        for (int ky = 0; ky < p; ++ky) {
          const std::size_t iy = Grid3d::wrap(my0 + ky, dims_.ny);
          const double vy = wy[static_cast<std::size_t>(ky)];
          const double gy = dy[static_cast<std::size_t>(ky)];
          const double* row = pdata + (iz * dims_.ny + iy) * dims_.nx;
          double line_v = 0.0, line_d = 0.0;
          if (!contiguous) {
            gather_line_wrapped(row, mx0, dims_.nx, wx.data(), dx.data(), p,
                                line_v, line_d);
          } else if (width > 1) {
            gather_line<simd::kNativeWidth>(row + ix0, wx.data(), dx.data(), p,
                                            line_v, line_d);
          } else {
            gather_line<1>(row + ix0, wx.data(), dx.data(), p, line_v, line_d);
          }
          phi += line_v * vy * vz;
          grad.x += line_d * vy * vz;
          grad.y += line_v * gy * vz;
          grad.z += line_v * vy * gz;
        }
      }
      if (phi_out != nullptr) (*phi_out)[i] = phi;
      local_sum += charges[i] * phi;
      if (forces != nullptr) {
        const double q = charges[i];
        (*forces)[i] += {-q * grad.x / h_.x, -q * grad.y / h_.y, -q * grad.z / h_.z};
      }
    }
    const std::lock_guard lock(sum_mutex);
    partials.emplace_back(begin, local_sum);
  });
  std::sort(partials.begin(), partials.end());
  double total = 0.0;
  for (const auto& [begin, sum] : partials) total += sum;
  return total;
}

}  // namespace tme
