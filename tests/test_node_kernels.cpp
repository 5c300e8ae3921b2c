// The fleet's per-node kernels (par/node_kernels) against the inline
// operators they distribute: restriction, prolongation and the axis
// convolutions bit for bit over periodic halos, CA/BI against
// ChargeAssigner, all of them in both SIMD modes.
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/gaussian_fit.hpp"
#include "core/grid_kernel.hpp"
#include "ewald/charge_assignment.hpp"
#include "grid/separable_conv.hpp"
#include "grid/transfer.hpp"
#include "par/decomposition.hpp"
#include "par/halo.hpp"
#include "par/node_kernels.hpp"
#include "par/par_tme.hpp"
#include "spline/bspline.hpp"
#include "spline/two_scale.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tme::par {
namespace {

constexpr simd::Mode kModes[] = {simd::Mode::kScalar, simd::Mode::kNative};

Grid3d random_grid(GridDims dims, std::uint64_t seed) {
  Grid3d g(dims);
  Rng rng(seed);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
  return g;
}

// The periodic halo of `g` with the given origin and extents.
ExtendedBlock periodic_halo(const Grid3d& g, long x0, long y0, long z0, std::size_t ex,
                            std::size_t ey, std::size_t ez) {
  ExtendedBlock h;
  h.reset(x0, y0, z0, ex, ey, ez);
  for (long z = z0; z < z0 + static_cast<long>(ez); ++z) {
    for (long y = y0; y < y0 + static_cast<long>(ey); ++y) {
      for (long x = x0; x < x0 + static_cast<long>(ex); ++x) {
        h.at(x, y, z) = g.at_wrapped(x, y, z);
      }
    }
  }
  return h;
}

// Cells [o, o + n) of `g` per axis, bitwise against `block`.
void expect_block_of(const Grid3d& block, const Grid3d& g, std::size_t ox,
                     std::size_t oy, std::size_t oz, const char* what) {
  const GridDims d = block.dims();
  for (std::size_t z = 0; z < d.nz; ++z) {
    for (std::size_t y = 0; y < d.ny; ++y) {
      for (std::size_t x = 0; x < d.nx; ++x) {
        const double a = block.at(x, y, z);
        const double b = g.at(ox + x, oy + y, oz + z);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
            << what << " cell (" << x << "," << y << "," << z << ") of block at ("
            << ox << "," << oy << "," << oz << "): " << a << " vs " << b;
      }
    }
  }
}

// Block layouts: the fleet's 2x2x1 split of a 32x32x32 fine level, a 4x2x2
// split, and one block holding the whole level (its halo is wider than the
// period on every axis).
struct Layout {
  GridDims fine;
  TorusTopology topo;
};
std::vector<Layout> layouts() {
  return {{{32, 32, 32}, TorusTopology(2, 2, 1)},
          {{16, 16, 32}, TorusTopology(4, 2, 2)},
          {{8, 8, 8}, TorusTopology(1, 1, 1)}};
}

TEST(NodeKernels, RestrictBlockEqualsRestrictGridBitwise) {
  ThreadPool pool(1);
  for (const Layout& l : layouts()) {
    for (const int p : {4, 6}) {
      const int half_p = p / 2;
      const std::vector<double> j = two_scale_coefficients(p);
      const Grid3d fine = random_grid(l.fine, 51);
      const GridDecomposition coarse_d(l.fine.halved(), l.topo);
      for (const simd::Mode mode : kModes) {
        const Grid3d whole = restrict_grid(fine, p, mode, pool);
        for (std::size_t n = 0; n < l.topo.node_count(); ++n) {
          const NodeCoord c = l.topo.coord(n);
          const GridDims out = coarse_d.local();
          const long ox = static_cast<long>(coarse_d.origin_x(c));
          const long oy = static_cast<long>(coarse_d.origin_y(c));
          const long oz = static_cast<long>(coarse_d.origin_z(c));
          const ExtendedBlock halo =
              periodic_halo(fine, 2 * ox - half_p, 2 * oy - half_p, 2 * oz - half_p,
                            2 * out.nx + p, 2 * out.ny + p, 2 * out.nz + p);
          expect_block_of(restrict_block(halo, ox, oy, oz, out, p, j, mode), whole,
                          coarse_d.origin_x(c), coarse_d.origin_y(c),
                          coarse_d.origin_z(c), "restrict");
        }
      }
    }
  }
}

TEST(NodeKernels, ProlongBlockEqualsProlongGridBitwise) {
  ThreadPool pool(1);
  for (const Layout& l : layouts()) {
    for (const int p : {4, 6}) {
      const int half_p = p / 2;
      const std::vector<double> j = two_scale_coefficients(p);
      const Grid3d coarse = random_grid(l.fine.halved(), 52);
      const GridDecomposition fine_d(l.fine, l.topo);
      for (const simd::Mode mode : kModes) {
        const Grid3d whole = prolong_grid(coarse, p, mode, pool);
        for (std::size_t n = 0; n < l.topo.node_count(); ++n) {
          const NodeCoord c = l.topo.coord(n);
          const GridDims out = fine_d.local();
          const long o[3] = {static_cast<long>(fine_d.origin_x(c)),
                             static_cast<long>(fine_d.origin_y(c)),
                             static_cast<long>(fine_d.origin_z(c))};
          // ParallelTme's prolongation halo: coarse cells from
          // (o - p/2 - 1) / 2 over (n + p) / 2 + 2.
          const ExtendedBlock halo = periodic_halo(
              coarse, (o[0] - half_p - 1) / 2, (o[1] - half_p - 1) / 2,
              (o[2] - half_p - 1) / 2, (out.nx + static_cast<std::size_t>(p)) / 2 + 2,
              (out.ny + static_cast<std::size_t>(p)) / 2 + 2,
              (out.nz + static_cast<std::size_t>(p)) / 2 + 2);
          expect_block_of(prolong_block(halo, o[0], o[1], o[2], out, p, j, mode), whole,
                          fine_d.origin_x(c), fine_d.origin_y(c), fine_d.origin_z(c),
                          "prolong");
        }
      }
    }
  }
}

TEST(NodeKernels, ConvolveBlockAxisEqualsConvolveAxisBitwise) {
  const auto terms = fit_shell_gaussians(2.2, 4);
  for (const Layout& l : {Layout{{32, 32, 32}, TorusTopology(2, 2, 1)},
                          Layout{{16, 16, 16}, TorusTopology(2, 2, 1)},
                          Layout{{16, 16, 16}, TorusTopology(4, 4, 2)}}) {
    const int gc = 8;
    const auto kernels = build_level_kernels(terms, 6, l.fine, {0.2, 0.2, 0.2}, gc);
    const Grid3d in = random_grid(l.fine, 53);
    const GridDecomposition d(l.fine, l.topo);
    const GridDims& local = d.local();
    for (int axis = 0; axis < 3; ++axis) {
      const Kernel1d& k = axis == 0 ? kernels[1].kx : (axis == 1 ? kernels[1].ky : kernels[1].kz);
      const std::size_t n_axis = axis == 0 ? l.fine.nx : (axis == 1 ? l.fine.ny : l.fine.nz);
      const long reach = std::min<long>(gc, static_cast<long>(n_axis));
      for (const simd::Mode mode : kModes) {
        Grid3d whole(l.fine);
        convolve_axis(in, k, static_cast<ConvAxis>(axis), whole, mode);
        for (std::size_t n = 0; n < l.topo.node_count(); ++n) {
          const NodeCoord c = l.topo.coord(n);
          long o[3] = {static_cast<long>(d.origin_x(c)), static_cast<long>(d.origin_y(c)),
                       static_cast<long>(d.origin_z(c))};
          std::size_t e[3] = {local.nx, local.ny, local.nz};
          long h0[3] = {o[0], o[1], o[2]};
          h0[axis] -= reach;
          e[axis] += 2 * static_cast<std::size_t>(reach);
          const ExtendedBlock halo = periodic_halo(in, h0[0], h0[1], h0[2], e[0], e[1], e[2]);
          expect_block_of(convolve_block_axis(halo, o[0], o[1], o[2], local, axis, reach,
                                              n_axis, k, mode),
                          whole, d.origin_x(c), d.origin_y(c), d.origin_z(c), "convolve");
        }
      }
    }
  }
}

TEST(NodeKernels, GridKernelsRejectAHaloThatMissesTheStencil) {
  const std::vector<double> j = two_scale_coefficients(6);
  ExtendedBlock halo;
  halo.reset(0, 0, 0, 8, 8, 8);  // no sleeve below the block
  EXPECT_THROW(restrict_block(halo, 0, 0, 0, {4, 4, 4}, 6, j), std::invalid_argument);
  EXPECT_THROW(prolong_block(halo, 0, 0, 0, {8, 8, 8}, 6, j), std::invalid_argument);
  Kernel1d k;
  k.cutoff = 2;
  k.taps = {0.1, 0.2, 0.4, 0.2, 0.1};
  EXPECT_THROW(convolve_block_axis(halo, 0, 0, 0, {8, 8, 8}, 1, 2, 16, k),
               std::invalid_argument);
}

// Atoms of a random neutral system, split over the nodes of `topo` as
// ParallelTme splits them.
struct Atoms {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};
Atoms random_atoms(std::size_t n, double length, std::uint64_t seed) {
  Atoms a;
  a.box.lengths = {length, length * 1.1, length * 0.9};
  Rng rng(seed);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    a.positions.push_back({rng.uniform(-1.0, 1.0 + length), rng.uniform(0.0, 1.1 * length),
                           rng.uniform(0.0, 0.9 * length)});
    a.charges.push_back(rng.uniform(-1.0, 1.0));
    total += a.charges.back();
  }
  for (double& q : a.charges) q -= total / static_cast<double>(n);
  return a;
}

TEST(NodeKernels, ChargeSpreadAndBackInterpolationMatchChargeAssigner) {
  const int p = 6;
  const int sleeve = p / 2 + 1;
  const GridDims global{32, 32, 16};
  const TorusTopology topo(2, 2, 1);
  const Atoms a = random_atoms(500, 3.0, 54);
  const GridDecomposition d(global, topo);
  const Vec3 h{a.box.lengths.x / 32.0, a.box.lengths.y / 32.0, a.box.lengths.z / 16.0};
  const std::vector<std::size_t> owner = assign_atoms_to_nodes(a.box, a.positions, topo);

  // CA: spread per node, fold the sleeves into the distributed grid.
  DistributedGrid q(d);
  std::vector<std::vector<std::size_t>> mine(topo.node_count());
  for (std::size_t i = 0; i < owner.size(); ++i) mine[owner[i]].push_back(i);
  auto subset = [&](std::size_t n) {
    Atoms s;
    s.box = a.box;
    for (const std::size_t i : mine[n]) {
      s.positions.push_back(a.positions[i]);
      s.charges.push_back(a.charges[i]);
    }
    return s;
  };
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeCoord c = topo.coord(n);
    const Atoms s = subset(n);
    const ExtendedBlock buf = ca_spread_block(
        s.positions, s.charges, a.box, h, p, static_cast<long>(d.origin_x(c)) - sleeve,
        static_cast<long>(d.origin_y(c)) - sleeve, static_cast<long>(d.origin_z(c)) - sleeve,
        d.local().nx + 2 * sleeve, d.local().ny + 2 * sleeve, d.local().nz + 2 * sleeve,
        global);
    export_sleeves(q, d, c, buf, "CA", nullptr);
  }
  const Grid3d spread = q.assemble();
  for (const simd::Mode mode : kModes) {
    ChargeAssigner ca(a.box, global, p);
    ca.set_simd_mode(mode);
    ThreadPool serial(0);
    const Grid3d ref = ca.assign(a.positions, a.charges, &serial);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(spread[i], ref[i], 1e-14 * ref.max_abs()) << "cell " << i;
    }
  }

  // BI: each atom's force from its node's potential halo is ChargeAssigner's
  // stencil over the same values, so it matches bit for bit.
  const Grid3d phi = random_grid(global, 55);
  const DistributedGrid phi_d = DistributedGrid::distribute(phi, d);
  std::vector<Vec3> forces(a.positions.size());
  double q_phi = 0.0;
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeCoord c = topo.coord(n);
    ExtendedBlock halo;
    halo.reset(static_cast<long>(d.origin_x(c)) - sleeve,
               static_cast<long>(d.origin_y(c)) - sleeve,
               static_cast<long>(d.origin_z(c)) - sleeve, d.local().nx + 2 * sleeve,
               d.local().ny + 2 * sleeve, d.local().nz + 2 * sleeve);
    import_halo(phi_d, d, c, halo, "BI", nullptr);
    const Atoms s = subset(n);
    const BiBlockResult r =
        bi_interpolate_block(halo, s.positions, s.charges, a.box, h, p, global);
    for (std::size_t k = 0; k < mine[n].size(); ++k) forces[mine[n][k]] = r.forces[k];
    q_phi += r.q_phi;
  }
  for (const simd::Mode mode : kModes) {
    ChargeAssigner ca(a.box, global, p);
    ca.set_simd_mode(mode);
    std::vector<Vec3> ref(a.positions.size());
    std::vector<double> phi_i;
    const double ref_q_phi = ca.back_interpolate(phi, a.positions, a.charges, &ref, &phi_i);
    // q_phi is summed per node, then over nodes: bound the reordering by
    // the sum of magnitudes.
    double magnitude = 0.0;
    for (std::size_t i = 0; i < phi_i.size(); ++i) magnitude += std::abs(a.charges[i] * phi_i[i]);
    EXPECT_NEAR(q_phi, ref_q_phi, 1e-14 * magnitude);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        ASSERT_EQ(forces[i][k], ref[i][k]) << "atom " << i << " axis " << k;
      }
    }
  }
}

TEST(NodeKernels, AtomOutsideTheSleeveThrows) {
  const Box box{{3.0, 3.0, 3.0}};
  const Vec3 h{3.0 / 16.0, 3.0 / 16.0, 3.0 / 16.0};
  const GridDims global{16, 16, 16};
  // Block [0, 8)^3 with a 4-cell sleeve; an atom in the middle of the
  // opposite octant has support nowhere near it.
  const std::vector<Vec3> far{{2.2, 2.2, 2.2}};
  const std::vector<double> q{1.0};
  EXPECT_THROW(ca_spread_block(far, q, box, h, 6, -4, -4, -4, 16, 16, 16, global),
               std::logic_error);
  ExtendedBlock halo;
  halo.reset(-4, -4, -4, 16, 16, 16);
  EXPECT_THROW(bi_interpolate_block(halo, far, q, box, h, 6, global), std::logic_error);
  // Inside the block it is fine, at any order the stencil arrays hold.
  const std::vector<Vec3> near{{0.7, 0.7, 0.7}};
  EXPECT_NO_THROW(ca_spread_block(near, q, box, h, 6, -4, -4, -4, 16, 16, 16, global));
  EXPECT_THROW(ca_spread_block(near, q, box, h, kMaxBsplineOrder + 2, -4, -4, -4, 16, 16,
                               16, global),
               std::invalid_argument);
  EXPECT_THROW(bi_interpolate_block(halo, near, q, box, h, kMaxBsplineOrder + 2, global),
               std::invalid_argument);
}

}  // namespace
}  // namespace tme::par
