// Ewald splitting of the Coulomb kernel (paper Eqs. 1–5).
//
//   1/r = g_S(r; alpha) + g_L(r; alpha)
//   g_S = erfc(alpha r)/r          (short range, direct sum)
//   g_L = erf(alpha r)/r           (long range, mesh)
//
// and the TME's further split of the long-range part into middle shells
//   g_l(r; alpha) = g_L(r; alpha/2^{l-1}) - g_L(r; alpha/2^l),  l = 1..L
// plus the top-level part g_L(r; alpha/2^L).
#pragma once

#include <span>

namespace tme {

struct CoulombResult;

// erfc(alpha r) / r.  Also well-defined in the r -> 0 limit? No: diverges;
// callers guard r > 0.
double g_short(double r, double alpha);

// erf(alpha r) / r, with the exact r -> 0 limit 2 alpha / sqrt(pi).
double g_long(double r, double alpha);

// Middle shell l (paper Eq. 5), with the exact r -> 0 limit.
double g_shell(double r, double alpha, int level);

// d/dr of the kernels — used for analytic pair forces:
//   F = -q_i q_j g'(r) r_hat.
double g_short_derivative(double r, double alpha);
double g_long_derivative(double r, double alpha);

// d²/dr² of g_short — needed by the Hermite segment fits of the tabulated
// pair kernel (ewald/force_table.hpp), which interpolates in r².
double g_short_second_derivative(double r, double alpha);

// Chooses alpha from the GROMACS-style condition erfc(alpha r_c) = rtol
// (bisection; the paper uses rtol = 1e-4).
double alpha_from_tolerance(double r_cut, double rtol);

// Reciprocal-space cutoff n_c from the Kolafa–Perram error factor
// exp(-(pi n_c / (alpha L))^2) <= rtol.
int reciprocal_cutoff_from_tolerance(double alpha, double box_length, double rtol);

// Neutralising-background correction for net-charged cells, in kJ/mol:
//   E_bg = -kC * pi * (sum q)^2 / (2 alpha^2 V).
// Dropping the k = 0 mode of the screened kernel (tinfoil boundary) removes
// not only the divergent 4pi/k^2 background term but also the finite
// -pi/alpha^2 part of its small-k expansion,
//   (4pi/k^2) exp(-k^2/4alpha^2) = 4pi/k^2 - pi/alpha^2 + O(k^2);
// this restores the finite part, making the total energy of a charged cell
// (point charges + uniform neutralising background) alpha-independent.
// Exactly zero for neutral systems.
double net_charge_background_energy(double q_total, double alpha, double volume);

// The energy epilogue every mesh solver shares, once out.energy_reciprocal
// is set: the self term -kC alpha / sqrt(pi) sum q^2 (when subtract_self),
// the net-charge background above at `background_alpha`, and
// out.energy = reciprocal + self + background.  `background_alpha` is the
// splitting of the one grid that drops its k = 0 mode: alpha for SPME, the
// top-level alpha / 2^L for TME and MSM, whose middle-level kernels keep
// their shells' finite DC (those telescope with the top-level term to the
// full -pi / alpha^2 correction).
void finish_long_range_energy(CoulombResult& out, std::span<const double> charges,
                              double alpha, double background_alpha,
                              double volume, bool subtract_self);

}  // namespace tme
