#include "grid/transfer.hpp"

#include <vector>

#include "spline/two_scale.hpp"
#include "util/parallel.hpp"

namespace tme {

namespace {

// The x, y and z passes from `in` to a grid of extents `o`; make_taps(n_out,
// n_in) tabulates one axis over the period n_in.
template <typename MakeTaps>
Grid3d transfer(const Grid3d& in, GridDims o, const MakeTaps& make_taps,
                simd::Mode mode, ThreadPool& pool) {
  const GridDims i = in.dims();
  Grid3d tmp_x(GridDims{o.nx, i.ny, i.nz});
  taps_pass_x(in.data(), i.nx, i.ny * i.nz, make_taps(o.nx, i.nx), tmp_x.data(), mode,
              pool);
  Grid3d tmp_y(GridDims{o.nx, o.ny, i.nz});
  taps_pass_yz(tmp_x.data(), tmp_x.dims(), 1, make_taps(o.ny, i.ny), tmp_y.data(), mode,
               pool);
  Grid3d out(o);
  taps_pass_yz(tmp_y.data(), tmp_y.dims(), 2, make_taps(o.nz, i.nz), out.data(), mode,
               pool);
  return out;
}

auto wrap_into(std::size_t n_in) {
  return [n_in](long g) { return Grid3d::wrap(g, n_in); };
}

}  // namespace

Grid3d restrict_grid(const Grid3d& fine, int p) {
  return restrict_grid(fine, p, simd::mode_from_env(), global_pool());
}

Grid3d restrict_grid(const Grid3d& fine, int p, simd::Mode mode, ThreadPool& pool) {
  const std::vector<double> j = two_scale_coefficients(p);
  return transfer(
      fine, fine.dims().halved(),
      [&](std::size_t n_out, std::size_t n_in) {
        return restriction_taps(j, 0, n_out, wrap_into(n_in));
      },
      mode, pool);
}

Grid3d prolong_grid(const Grid3d& coarse, int p) {
  return prolong_grid(coarse, p, simd::mode_from_env(), global_pool());
}

Grid3d prolong_grid(const Grid3d& coarse, int p, simd::Mode mode, ThreadPool& pool) {
  const std::vector<double> j = two_scale_coefficients(p);
  const GridDims c = coarse.dims();
  return transfer(
      coarse, GridDims{2 * c.nx, 2 * c.ny, 2 * c.nz},
      [&](std::size_t n_out, std::size_t n_in) {
        return prolongation_taps(j, 0, n_out, wrap_into(n_in));
      },
      mode, pool);
}

}  // namespace tme
