// Tabulated short-range pair kernel — the software analogue of the
// table-lookup function evaluators in MDGRAPE-4A's nonbond force pipelines
// (paper Sec. II): the pipeline never evaluates erfc or sqrt per pair;
// instead it indexes a segmented-polynomial table by r² and evaluates a
// low-order polynomial in the segment-local coordinate.
//
// This class tabulates the two quantities the pair loop needs,
//
//   energy(r²)       = g_S(r; alpha)            = erfc(alpha r)/r
//   force_over_r(r²) = -g_S'(r; alpha)/r        (so F = qq * force_over_r * d)
//
// as cubic Hermite segments uniform in s = r² over [r_min², r_max²].  Fitting
// in r² removes the per-pair sqrt entirely.  Below r_min the table falls back
// to the analytic kernel (the divergence near r = 0 would need unreasonably
// many segments; non-excluded pairs essentially never get that close).  The
// constructor measures the interpolation error against the analytic kernel
// over every segment and exposes the observed bounds, following the
// Deserno–Holm methodology of validating interpolated kernels against the
// analytic ones (see PAPERS.md).
#pragma once

#include <cstddef>
#include <vector>

namespace tme {

class ForceTable {
 public:
  struct Sample {
    double energy = 0.0;        // g_S(r)
    double force_over_r = 0.0;  // -g_S'(r)/r
  };

  // Tabulates over r in [r_min, r_max] with `segments` uniform-in-r² cubic
  // Hermite pieces.  Requires 0 < r_min < r_max, alpha > 0, segments >= 2.
  ForceTable(double alpha, double r_min, double r_max,
             std::size_t segments = 4096);

  // Table lookup with analytic fallback outside [r_min², r_max²) (and for a
  // NaN r2, which never reaches the index cast).  Requires r2 > 0.
  Sample lookup(double r2) const {
    if (!(r2 >= s_min_ && r2 < s_max_)) return analytic(r2);
    const double u = (r2 - s_min_) * inv_ds_;
    std::size_t k = static_cast<std::size_t>(u);
    if (k >= segments_) k = segments_ - 1;  // round-off guard at s_max
    const double t = u - static_cast<double>(k);
    const double* c = coeff_.data() + 8 * k;
    return {((c[3] * t + c[2]) * t + c[1]) * t + c[0],
            ((c[7] * t + c[6]) * t + c[5]) * t + c[4]};
  }

  // The analytic kernel pair (used as fallback and as accuracy reference).
  Sample analytic(double r2) const;

  double alpha() const { return alpha_; }
  double r_min() const { return r_min_; }
  double r_max() const { return r_max_; }
  std::size_t segments() const { return segments_; }

  // Raw table geometry and coefficient storage for the vectorized batch
  // kernel (md/short_range_kernels.cpp), which replicates lookup() across
  // SIMD lanes: segment k's 8 coefficients live at coeff() + 8k.
  double s_min() const { return s_min_; }
  double s_max() const { return s_max_; }
  double inv_ds() const { return inv_ds_; }
  const double* coeff() const { return coeff_.data(); }

  // Maximum relative error observed against the analytic kernel when
  // sampling the interior of every segment at construction time.
  double max_rel_error_energy() const { return err_energy_; }
  double max_rel_error_force() const { return err_force_; }

 private:
  double alpha_ = 0.0;
  double r_min_ = 0.0, r_max_ = 0.0;
  double s_min_ = 0.0, s_max_ = 0.0, inv_ds_ = 0.0;
  std::size_t segments_ = 0;
  // Per segment: 4 cubic coefficients for energy, then 4 for force_over_r,
  // interleaved so one lookup touches a single cache-line-sized block.
  std::vector<double> coeff_;
  double err_energy_ = 0.0;
  double err_force_ = 0.0;
};

}  // namespace tme
