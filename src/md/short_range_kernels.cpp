#include "md/short_range_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "ewald/splitting.hpp"
#include "util/constants.hpp"

namespace tme {

void PairSums::reset(std::size_t n) {
  fx.assign(n, 0.0);
  fy.assign(n, 0.0);
  fz.assign(n, 0.0);
  energy_coulomb = 0.0;
  energy_lj = 0.0;
  pairs = 0;
}

namespace {

// Tabulated Coulomb energy and force/r of W packed pairs into ec / fc.
// Lanes outside `lanes` are padding and may hold anything.
template <int W>
void tabulated_coulomb(const ForceTable& table, simd::vec<double, W> r2,
                       simd::vec<double, W> qq, unsigned lanes, double* ec, double* fc) {
  using V = simd::vec<double, W>;
  const double* coeff = table.coeff();
  const std::size_t segments = table.segments();
  const V s_min = V::broadcast(table.s_min());
  const V u = (r2 - s_min) * V::broadcast(table.inv_ds());
  // Segment index k and local coordinate t = u - k, identical to the scalar
  // ForceTable::lookup truncation and round-off clamp.  Lanes outside
  // [0, segments) -- below the table (redone analytically below), the
  // round-off at r_max², or NaN -- take the last segment.  u is never -0
  // (r2 - s_min rounds an exact zero to +0), so floor(u) truncates like the
  // scalar cast on the lanes that keep it.
  const V last = V::broadcast(static_cast<double>(segments - 1));
  V k = V::blend(V::cmp_ge(u, V::zero()), V::floor(u), last);
  k = V::blend(V::cmp_lt(u, V::broadcast(static_cast<double>(segments))), k, last);
  const V t = u - k;
  const V at = k * V::broadcast(8.0);  // segment k's coefficients start at 8k
  const V c0 = V::gather_at(coeff + 0, at);
  const V c1 = V::gather_at(coeff + 1, at);
  const V c2 = V::gather_at(coeff + 2, at);
  const V c3 = V::gather_at(coeff + 3, at);
  const V c4 = V::gather_at(coeff + 4, at);
  const V c5 = V::gather_at(coeff + 5, at);
  const V c6 = V::gather_at(coeff + 6, at);
  const V c7 = V::gather_at(coeff + 7, at);
  const V energy = V::fma(V::fma(V::fma(c3, t, c2), t, c1), t, c0);
  const V force = V::fma(V::fma(V::fma(c7, t, c6), t, c5), t, c4);
  (qq * energy).store(ec);
  (qq * force).store(fc);
  // Pairs below the table range fall back to the analytic kernel, like the
  // scalar lookup; both instantiations take the same per-lane path.
  unsigned below = V::mask_bits(V::cmp_lt(r2, s_min)) & lanes;
  while (below != 0) {
    const int l = std::countr_zero(below);
    below &= below - 1;
    const ForceTable::Sample s = table.analytic(r2.extract(l));
    ec[l] = qq.extract(l) * s.energy;
    fc[l] = qq.extract(l) * s.force_over_r;
  }
}

template <int W>
void sweep_impl(const PairRows& in, std::size_t row_begin, std::size_t row_end,
                PairSums& sums) {
  using V = simd::vec<double, W>;
  constexpr unsigned kAllLanes = (1u << W) - 1u;

  // Row-local SoA buffers of the packed pairs.  A row's compress() may write
  // W slots past its last kept pair and its last vector reads W past it, so
  // they hold the longest row plus W.
  std::size_t longest = 0;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    longest = std::max(longest, in.row_start[i + 1] - in.row_start[i]);
  }
  const std::size_t cap = longest + W;
  std::vector<double> bdx(cap), bdy(cap), bdz(cap), br2(cap), bec(cap), bfc(cap);
  std::vector<std::uint32_t> bj(cap);

  // min_image(d, L) = d - L * nearbyint(d / L), one fused step, with the
  // division replaced by a product with 1/L.  The two agree on every pair
  // that is kept.  d·(1/L) is within a few ulps of d/L, so the two
  // roundings to an integer can differ only when d/L lies within about
  // |d/L|·2^-51 of a half-integer.  A pair inside the cutoff has
  // |d - nL| < r_c < L/2 for its image n, so d/L lies at least
  // (L/2 - r_c)/L from every half-integer, and both forms pick that n.  Where
  // they could differ the pair is L/2 apart, up to that rounding, under
  // either image and is dropped either way.  This needs r_c below L/2 by more
  // than the rounding on every axis, which the engine checks.
  const V neg_len[3] = {V::broadcast(-in.box.x), V::broadcast(-in.box.y),
                        V::broadcast(-in.box.z)};
  const V inv_len[3] = {V::broadcast(1.0 / in.box.x), V::broadcast(1.0 / in.box.y),
                        V::broadcast(1.0 / in.box.z)};
  auto image = [&](V d, int axis) {
    return V::fma(neg_len[axis], V::nearbyint(d * inv_len[axis]), d);
  };
  const V cutoff2 = V::broadcast(in.cutoff2);
  const V tiny = V::broadcast(std::numeric_limits<double>::denorm_min());
  const V one = V::broadcast(1.0);
  const V twelve = V::broadcast(12.0);
  const V six = V::broadcast(6.0);

  double* const fx = sums.fx.data();
  double* const fy = sums.fy.data();
  double* const fz = sums.fz.data();
  double e_coul = sums.energy_coulomb;
  double e_lj = sums.energy_lj;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    // --- filter: the row's columns inside the cutoff, left-packed in column
    // order.  Lanes are independent, so a pair's bits do not depend on which
    // columns share its vector.
    const V xi = V::broadcast(in.x[i]);
    const V yi = V::broadcast(in.y[i]);
    const V zi = V::broadcast(in.z[i]);
    const std::size_t e_end = in.row_start[i + 1];
    std::size_t np = 0;
    for (std::size_t e = in.row_start[i]; e < e_end; e += W) {
      const std::uint32_t* const c = in.cols + e;
      const V dx = image(xi - V::gather(in.x, c), 0);
      const V dy = image(yi - V::gather(in.y, c), 1);
      const V dz = image(zi - V::gather(in.z, c), 2);
      const V r2 = V::fma(dz, dz, V::fma(dy, dy, dx * dx));
      // Skip r2 >= cutoff² and r2 == 0; a NaN r2 is kept, so a non-finite
      // position shows up in the forces.
      const std::size_t left = e_end - e;
      unsigned keep = left >= W ? kAllLanes : (1u << left) - 1u;
      keep &= ~V::mask_bits(V::cmp_ge(r2, cutoff2));
      keep &= ~V::mask_bits(V::cmp_lt(r2, tiny));
      simd::compress(dx, keep, bdx.data() + np);
      simd::compress(dy, keep, bdy.data() + np);
      simd::compress(dz, keep, bdz.data() + np);
      simd::compress(r2, keep, br2.data() + np);
      simd::compress_index<W>(c, keep, bj.data() + np);
      np += static_cast<std::size_t>(std::popcount(keep));
    }
    if (np == 0) continue;
    // Benign padding for the last vector: r2 = 1 keeps the table lookup and
    // the LJ division well defined, and the row atom is a valid index.
    for (int l = 0; l < W; ++l) {
      bdx[np + l] = 0.0;
      bdy[np + l] = 0.0;
      bdz[np + l] = 0.0;
      br2[np + l] = 1.0;
      bj[np + l] = static_cast<std::uint32_t>(i);
    }

    // --- Coulomb energy and force/r of the packed pairs into bec / bfc.  The
    // analytic erfc has no portable vector form, so it runs pair by pair in
    // both modes, in one pass over the row; the table runs W pairs at a time
    // in the loop below.
    const ForceTable* const table = in.kernel.table;
    const double qi = constants::kCoulomb * in.charge[i];
    if (table == nullptr) {
      for (std::size_t p = 0; p < np; ++p) {
        const double qq = qi * in.charge[bj[p]];
        if (qq != 0.0) {
          const double r = std::sqrt(br2[p]);
          bec[p] = qq * g_short(r, in.kernel.alpha);
          bfc[p] = -qq * g_short_derivative(r, in.kernel.alpha) / r;
        } else {
          bec[p] = 0.0;
          bfc[p] = 0.0;
        }
      }
    }

    // --- evaluate the packed pairs W at a time.
    const std::size_t mix_row = in.type_of[i] * in.ntypes;
    const double* const c6_i = in.c6 + mix_row;
    const double* const c12_i = in.c12 + mix_row;
    const double* const shift_i = in.e_shift + mix_row;
    double fxi = fx[i], fyi = fy[i], fzi = fz[i];
    for (std::size_t k = 0; k < np; k += W) {
      const std::uint32_t* const j = bj.data() + k;
      const unsigned lanes = np - k >= W ? kAllLanes : (1u << (np - k)) - 1u;
      const V r2 = V::load(br2.data() + k);
      if (table != nullptr) {
        const V qq = V::broadcast(qi) * V::gather(in.charge, j);
        tabulated_coulomb<W>(*table, r2, qq, lanes, bec.data() + k, bfc.data() + k);
      }

      // Lennard-Jones from the precombined mixing parameters.
      alignas(64) std::uint32_t type_j[W];
      simd::gather_index<W>(in.type_of, j, type_j);
      const V c6 = V::gather(c6_i, type_j);
      const V c12 = V::gather(c12_i, type_j);
      const V inv_r2 = one / r2;
      const V inv_r6 = inv_r2 * inv_r2 * inv_r2;
      const V elj = (c12 * inv_r6 - c6) * inv_r6 - V::gather(shift_i, type_j);
      const V flj = (twelve * c12 * inv_r6 - six * c6) * inv_r6 * inv_r2;
      const V f = V::load(bfc.data() + k) + flj;

      // -f·d onto the column atoms, all lanes at once.
      const V dx = V::load(bdx.data() + k);
      const V dy = V::load(bdy.data() + k);
      const V dz = V::load(bdz.data() + k);
      simd::scatter(V::fnma(f, dx, V::gather(fx, j)), fx, j, lanes);
      simd::scatter(V::fnma(f, dy, V::gather(fy, j)), fy, j, lanes);
      simd::scatter(V::fnma(f, dz, V::gather(fz, j)), fz, j, lanes);

      // +f·d onto the row atom and the energies, one pair at a time in
      // column order.
      alignas(64) double f_arr[W];
      alignas(64) double elj_arr[W];
      f.store(f_arr);
      elj.store(elj_arr);
      auto accumulate = [&](int l) {
        e_coul += bec[k + l];
        e_lj += elj_arr[l];
        fxi = simd::fma1(f_arr[l], bdx[k + l], fxi);
        fyi = simd::fma1(f_arr[l], bdy[k + l], fyi);
        fzi = simd::fma1(f_arr[l], bdz[k + l], fzi);
      };
      if (lanes == kAllLanes) {
        for (int l = 0; l < W; ++l) accumulate(l);
      } else {
        const int count = std::popcount(lanes);
        for (int l = 0; l < count; ++l) accumulate(l);
      }
    }
    fx[i] = fxi;
    fy[i] = fyi;
    fz[i] = fzi;
    sums.pairs += np;
  }
  sums.energy_coulomb = e_coul;
  sums.energy_lj = e_lj;
}

}  // namespace

void sweep_rows(const PairRows& rows, std::size_t row_begin, std::size_t row_end,
                PairSums& sums, simd::Mode mode) {
  if (mode == simd::Mode::kNative) {
    sweep_impl<simd::kNativeWidth>(rows, row_begin, row_end, sums);
  } else {
    sweep_impl<1>(rows, row_begin, row_end, sums);
  }
}

}  // namespace tme
