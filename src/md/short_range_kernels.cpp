#include "md/short_range_kernels.hpp"

#include "ewald/splitting.hpp"

namespace tme {

void PairBatch::clear() {
  count_ = 0;
  padded_ = 0;
}

void PairBatch::reserve(std::size_t n) {
  if (n <= dx.size()) return;
  for (auto* v : {&dx, &dy, &dz, &r2, &qq, &c6, &c12, &e_shift}) v->resize(n);
  ia.resize(n);
  ib.resize(n);
}

void PairBatch::finalize(int width) {
  const std::size_t w = static_cast<std::size_t>(width);
  padded_ = ((count_ + w - 1) / w) * w;
  reserve(padded_);
  // Benign pad pairs: r2 = 1 keeps divisions and the table's segment clamp
  // well-defined; zero charge/LJ parameters make every pad output exactly 0.
  for (std::size_t k = count_; k < padded_; ++k) {
    r2[k] = 1.0;
    qq[k] = 0.0;
    c6[k] = 0.0;
    c12[k] = 0.0;
    e_shift[k] = 0.0;
  }
  e_coul.assign(padded_, 0.0);
  e_lj.assign(padded_, 0.0);
  f_over_r.assign(padded_, 0.0);
}

namespace {

template <int W>
void eval_impl(PairBatch& b, const PairKernelConfig& cfg) {
  using V = simd::vec<double, W>;
  const std::size_t np = b.e_coul.size();  // padded pair count

  // --- Coulomb: f_over_r and e_coul first (the LJ pass accumulates on top,
  // matching the serial kernel's per-pair order coulomb-then-LJ).
  if (cfg.table != nullptr) {
    const ForceTable& table = *cfg.table;
    const double* coeff = table.coeff();
    const std::size_t segments = table.segments();
    const V s_min = V::broadcast(table.s_min());
    const V inv_ds = V::broadcast(table.inv_ds());
    for (std::size_t i = 0; i < np; i += W) {
      const V r2v = V::load(&b.r2[i]);
      const V u = (r2v - s_min) * inv_ds;
      // Per-lane segment index and local coordinate — identical to the
      // scalar ForceTable::lookup truncation and round-off clamp.
      alignas(64) double u_arr[W];
      alignas(64) double t_arr[W];
      alignas(64) std::int64_t idx[W];
      u.store(u_arr);
      // Lanes outside [0, segments) -- below the table (redone analytically
      // below), the round-off at r_max², or NaN -- take the last segment
      // without reaching the float-to-integer cast.
      for (int l = 0; l < W; ++l) {
        const bool inside = u_arr[l] >= 0.0 && u_arr[l] < static_cast<double>(segments);
        const std::size_t k = inside ? static_cast<std::size_t>(u_arr[l]) : segments - 1;
        t_arr[l] = u_arr[l] - static_cast<double>(k);
        idx[l] = static_cast<std::int64_t>(8 * k);
      }
      const V t = V::load(t_arr);
      const V c0 = V::gather(coeff + 0, idx);
      const V c1 = V::gather(coeff + 1, idx);
      const V c2 = V::gather(coeff + 2, idx);
      const V c3 = V::gather(coeff + 3, idx);
      const V c4 = V::gather(coeff + 4, idx);
      const V c5 = V::gather(coeff + 5, idx);
      const V c6 = V::gather(coeff + 6, idx);
      const V c7 = V::gather(coeff + 7, idx);
      const V energy = V::fma(V::fma(V::fma(c3, t, c2), t, c1), t, c0);
      const V force = V::fma(V::fma(V::fma(c7, t, c6), t, c5), t, c4);
      const V qqv = V::load(&b.qq[i]);
      (qqv * energy).store(&b.e_coul[i]);
      (qqv * force).store(&b.f_over_r[i]);
      // Pairs below the table range fall back to the analytic kernel, like
      // the scalar lookup; both instantiations take the same per-lane path.
      unsigned bits = V::mask_bits(V::cmp_lt(r2v, s_min));
      while (bits != 0) {
        const int l = __builtin_ctz(bits);
        bits &= bits - 1;
        const ForceTable::Sample s = table.analytic(b.r2[i + l]);
        b.e_coul[i + l] = b.qq[i + l] * s.energy;
        b.f_over_r[i + l] = b.qq[i + l] * s.force_over_r;
      }
    }
  } else {
    // Analytic erfc/sqrt: scalar per pair in both modes (no portable vector
    // erfc); the LJ term below still vectorizes.
    const double alpha = cfg.alpha;
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double qq = b.qq[i];
      if (qq != 0.0) {
        const double r = std::sqrt(b.r2[i]);
        b.e_coul[i] = qq * g_short(r, alpha);
        b.f_over_r[i] = -qq * g_short_derivative(r, alpha) / r;
      } else {
        b.e_coul[i] = 0.0;
        b.f_over_r[i] = 0.0;
      }
    }
  }

  // --- Lennard-Jones from the precombined mixing parameters.
  const V one = V::broadcast(1.0);
  const V twelve = V::broadcast(12.0);
  const V six = V::broadcast(6.0);
  for (std::size_t i = 0; i < np; i += W) {
    const V r2v = V::load(&b.r2[i]);
    const V c6v = V::load(&b.c6[i]);
    const V c12v = V::load(&b.c12[i]);
    const V inv_r2 = one / r2v;
    const V inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const V elj = (c12v * inv_r6 - c6v) * inv_r6 - V::load(&b.e_shift[i]);
    const V flj = (twelve * c12v * inv_r6 - six * c6v) * inv_r6 * inv_r2;
    elj.store(&b.e_lj[i]);
    (V::load(&b.f_over_r[i]) + flj).store(&b.f_over_r[i]);
  }
}

}  // namespace

void evaluate_pair_batch(PairBatch& batch, const PairKernelConfig& config,
                         simd::Mode mode) {
  if (mode == simd::Mode::kNative) {
    eval_impl<simd::kNativeWidth>(batch, config);
  } else {
    eval_impl<1>(batch, config);
  }
}

}  // namespace tme
