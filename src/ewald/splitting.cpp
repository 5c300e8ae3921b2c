#include "ewald/splitting.hpp"

#include <cmath>
#include <stdexcept>

#include "ewald/reference_ewald.hpp"
#include "util/constants.hpp"

namespace tme {

namespace {
constexpr double kTwoOverSqrtPi = 1.1283791670955126;  // 2/sqrt(pi)
}

double g_short(double r, double alpha) {
  if (r <= 0.0) throw std::invalid_argument("g_short: r must be positive");
  return std::erfc(alpha * r) / r;
}

double g_long(double r, double alpha) {
  if (r < 0.0) throw std::invalid_argument("g_long: r must be non-negative");
  if (r < 1e-12) {
    // erf(x)/x -> 2/sqrt(pi) * alpha as r -> 0.
    return kTwoOverSqrtPi * alpha;
  }
  return std::erf(alpha * r) / r;
}

double g_shell(double r, double alpha, int level) {
  if (level < 1) throw std::invalid_argument("g_shell: level must be >= 1");
  const double a_hi = alpha / std::ldexp(1.0, level - 1);  // alpha / 2^{l-1}
  const double a_lo = alpha / std::ldexp(1.0, level);      // alpha / 2^l
  return g_long(r, a_hi) - g_long(r, a_lo);
}

double g_short_derivative(double r, double alpha) {
  if (r <= 0.0) throw std::invalid_argument("g_short_derivative: r must be positive");
  const double ar = alpha * r;
  return -std::erfc(ar) / (r * r) - kTwoOverSqrtPi * alpha * std::exp(-ar * ar) / r;
}

double g_short_second_derivative(double r, double alpha) {
  if (r <= 0.0) {
    throw std::invalid_argument("g_short_second_derivative: r must be positive");
  }
  const double ar = alpha * r;
  const double gauss = kTwoOverSqrtPi * alpha * std::exp(-ar * ar);
  return 2.0 * std::erfc(ar) / (r * r * r) + 2.0 * gauss / (r * r) +
         2.0 * alpha * alpha * gauss;
}

double g_long_derivative(double r, double alpha) {
  if (r <= 0.0) throw std::invalid_argument("g_long_derivative: r must be positive");
  const double ar = alpha * r;
  return -std::erf(ar) / (r * r) + kTwoOverSqrtPi * alpha * std::exp(-ar * ar) / r;
}

double alpha_from_tolerance(double r_cut, double rtol) {
  if (r_cut <= 0.0 || rtol <= 0.0 || rtol >= 1.0) {
    throw std::invalid_argument("alpha_from_tolerance: bad arguments");
  }
  // erfc is monotone decreasing; bisect on alpha * r_cut.
  double lo = 0.0, hi = 30.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid) > rtol ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi) / r_cut;
}

int reciprocal_cutoff_from_tolerance(double alpha, double box_length, double rtol) {
  if (alpha <= 0.0 || box_length <= 0.0 || rtol <= 0.0 || rtol >= 1.0) {
    throw std::invalid_argument("reciprocal_cutoff_from_tolerance: bad arguments");
  }
  // exp(-(pi n / (alpha L))^2) <= rtol  =>  n >= alpha L sqrt(-ln rtol) / pi.
  const double n = alpha * box_length * std::sqrt(-std::log(rtol)) / M_PI;
  return static_cast<int>(std::ceil(n));
}

double net_charge_background_energy(double q_total, double alpha, double volume) {
  if (alpha <= 0.0 || volume <= 0.0) {
    throw std::invalid_argument("net_charge_background_energy: bad arguments");
  }
  return -constants::kCoulomb * M_PI * q_total * q_total /
         (2.0 * alpha * alpha * volume);
}

void finish_long_range_energy(CoulombResult& out, std::span<const double> charges,
                              double alpha, double background_alpha,
                              double volume, bool subtract_self) {
  if (subtract_self) {
    double q2 = 0.0;
    for (const double q : charges) q2 += q * q;
    out.energy_self = -constants::kCoulomb * alpha / std::sqrt(M_PI) * q2;
  }
  double q_total = 0.0;
  for (const double q : charges) q_total += q;
  out.energy_background =
      net_charge_background_energy(q_total, background_alpha, volume);
  out.energy = out.energy_reciprocal + out.energy_self + out.energy_background;
}

}  // namespace tme
