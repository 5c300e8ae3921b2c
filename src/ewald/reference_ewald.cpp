#include "ewald/reference_ewald.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ewald/splitting.hpp"
#include "util/constants.hpp"
#include "util/parallel.hpp"

namespace tme {

double CoulombResult::relative_force_error_against(const CoulombResult& reference) const {
  if (forces.size() != reference.forces.size()) {
    throw std::invalid_argument("relative_force_error_against: size mismatch");
  }
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < forces.size(); ++i) {
    num += norm2(forces[i] - reference.forces[i]);
    den += norm2(reference.forces[i]);
  }
  return std::sqrt(num / den);
}

namespace {

// One range's share of a pair or mode sum.  The ranges finish in any order,
// so their partials are kept and added in range order: the result is then
// the same on every run at a given pool size.
struct RangePartial {
  std::size_t begin = 0;
  std::vector<Vec3> forces;
  double energy = 0.0;
  double virial = 0.0;
};

void add_in_range_order(std::vector<RangePartial>& partials, double& energy,
                        CoulombResult& out) {
  std::sort(partials.begin(), partials.end(),
            [](const RangePartial& a, const RangePartial& b) {
              return a.begin < b.begin;
            });
  for (const RangePartial& part : partials) {
    energy += part.energy;
    out.virial += part.virial;
    for (std::size_t i = 0; i < out.forces.size(); ++i) out.forces[i] += part.forces[i];
  }
}

// Real-space part: erfc-screened pair sum under the minimum-image convention.
// O(N^2) by design — the reference uses r_c up to L/2 where cell lists cannot
// reduce the pair count.
void add_real_space(const Box& box, std::span<const Vec3> pos,
                    std::span<const double> q, double alpha, double r_cut,
                    ThreadPool& pool, CoulombResult& out) {
  const std::size_t n = pos.size();
  const double r_cut2 = r_cut * r_cut;
  std::mutex merge_mutex;
  std::vector<RangePartial> partials;
  parallel_for_ranges(pool, 0, n, [&](std::size_t begin, std::size_t end) {
    std::vector<Vec3> f_local(n);
    double e_local = 0.0, v_local = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const Vec3 d = box.min_image_disp(pos[i], pos[j]);
        const double r2 = norm2(d);
        if (r2 >= r_cut2 || r2 == 0.0) continue;
        const double r = std::sqrt(r2);
        const double qq = constants::kCoulomb * q[i] * q[j];
        e_local += qq * g_short(r, alpha);
        // F_i = -qq g_S'(r) * d/r  acting along the separation.
        const double fr = -qq * g_short_derivative(r, alpha) / r;
        const Vec3 fij = fr * d;
        f_local[i] += fij;
        f_local[j] -= fij;
        // Pair virial r_ij . F_ij.
        v_local += fr * r2;
      }
    }
    const std::lock_guard lock(merge_mutex);
    partials.push_back({begin, std::move(f_local), e_local, v_local});
  });
  add_in_range_order(partials, out.energy_real, out);
}

// Reciprocal part: half-space sum over n with |n| <= n_cut, factor 2 from
// inversion symmetry of real charges.
void add_reciprocal(const Box& box, std::span<const Vec3> pos,
                    std::span<const double> q, double alpha, int n_cut,
                    ThreadPool& pool, CoulombResult& out) {
  const std::size_t n_atoms = pos.size();
  const Vec3 l = box.lengths;
  // Per-atom phase tables e^{2 pi i n x / L} for n = 0..n_cut per axis.
  const std::size_t stride = static_cast<std::size_t>(n_cut) + 1;
  std::vector<std::complex<double>> px(n_atoms * stride), py(n_atoms * stride),
      pz(n_atoms * stride);
  parallel_for(pool, 0, n_atoms, [&](std::size_t i) {
    const Vec3 r = pos[i];
    const std::complex<double> ex{std::cos(2.0 * M_PI * r.x / l.x),
                                  std::sin(2.0 * M_PI * r.x / l.x)};
    const std::complex<double> ey{std::cos(2.0 * M_PI * r.y / l.y),
                                  std::sin(2.0 * M_PI * r.y / l.y)};
    const std::complex<double> ez{std::cos(2.0 * M_PI * r.z / l.z),
                                  std::sin(2.0 * M_PI * r.z / l.z)};
    px[i * stride] = py[i * stride] = pz[i * stride] = {1.0, 0.0};
    for (std::size_t k = 1; k < stride; ++k) {
      px[i * stride + k] = px[i * stride + k - 1] * ex;
      py[i * stride + k] = py[i * stride + k - 1] * ey;
      pz[i * stride + k] = pz[i * stride + k - 1] * ez;
    }
  });

  // Enumerate the half space: nx > 0, or nx == 0 && ny > 0, or
  // nx == ny == 0 && nz > 0.
  struct KVec {
    int nx, ny, nz;
  };
  std::vector<KVec> kvecs;
  const long nc2 = static_cast<long>(n_cut) * n_cut;
  for (int nx = 0; nx <= n_cut; ++nx) {
    for (int ny = (nx == 0 ? 0 : -n_cut); ny <= n_cut; ++ny) {
      for (int nz = ((nx == 0 && ny == 0) ? 1 : -n_cut); nz <= n_cut; ++nz) {
        if (static_cast<long>(nx) * nx + static_cast<long>(ny) * ny +
                static_cast<long>(nz) * nz >
            nc2)
          continue;
        if (nx == 0 && ny == 0 && nz <= 0) continue;
        if (nx == 0 && ny < 0) continue;
        kvecs.push_back({nx, ny, nz});
      }
    }
  }

  const double volume = box.volume();
  const double quarter_inv_a2 = 1.0 / (4.0 * alpha * alpha);
  std::mutex merge_mutex;
  std::vector<RangePartial> partials;
  parallel_for_ranges(pool, 0, kvecs.size(), [&](std::size_t begin, std::size_t end) {
    std::vector<Vec3> f_local(n_atoms);
    double e_local = 0.0, v_local = 0.0;
    std::vector<std::complex<double>> phase(n_atoms);
    for (std::size_t kv = begin; kv < end; ++kv) {
      const auto [nx, ny, nz] = kvecs[kv];
      const Vec3 k{2.0 * M_PI * nx / l.x, 2.0 * M_PI * ny / l.y,
                   2.0 * M_PI * nz / l.z};
      const double k2 = norm2(k);
      // S(k) = sum q_i e^{i k . r_i}; phases for negative n via conjugate.
      std::complex<double> s{0.0, 0.0};
      for (std::size_t i = 0; i < n_atoms; ++i) {
        const std::complex<double> cx = px[i * stride + static_cast<std::size_t>(nx)];
        const std::complex<double> cy =
            ny >= 0 ? py[i * stride + static_cast<std::size_t>(ny)]
                    : std::conj(py[i * stride + static_cast<std::size_t>(-ny)]);
        const std::complex<double> cz =
            nz >= 0 ? pz[i * stride + static_cast<std::size_t>(nz)]
                    : std::conj(pz[i * stride + static_cast<std::size_t>(-nz)]);
        const std::complex<double> ph = cx * cy * cz;
        phase[i] = ph;
        s += q[i] * ph;
      }
      // Half-space factor 2.
      const double ak = 2.0 * constants::kCoulomb * (4.0 * M_PI / k2) *
                        std::exp(-k2 * quarter_inv_a2) / (2.0 * volume);
      e_local += ak * std::norm(s);
      // Virial trace of one mode: E_k (1 - k^2 / (2 alpha^2)) — the
      // lambda-derivative of E_k under uniform box + coordinate scaling at
      // fixed alpha (the standard Ewald reciprocal virial, traced).
      v_local += ak * std::norm(s) * (1.0 - 2.0 * k2 * quarter_inv_a2);
      // F_i = ak * 2 q_i Im(S^* e^{i k r_i}) k   (derived from d|S|^2/dr_i).
      for (std::size_t i = 0; i < n_atoms; ++i) {
        const double im = (std::conj(s) * phase[i]).imag();
        f_local[i] += (ak * 2.0 * q[i] * im) * k;
      }
    }
    const std::lock_guard lock(merge_mutex);
    partials.push_back({begin, std::move(f_local), e_local, v_local});
  });
  add_in_range_order(partials, out.energy_reciprocal, out);
}

}  // namespace

CoulombResult ewald_reference(const Box& box, std::span<const Vec3> positions,
                              std::span<const double> charges,
                              const EwaldParams& params, ThreadPool* pool_ptr) {
  if (positions.size() != charges.size()) {
    throw std::invalid_argument("ewald_reference: size mismatch");
  }
  const double l_min =
      std::min({box.lengths.x, box.lengths.y, box.lengths.z});
  double r_cut = params.r_cut > 0.0 ? params.r_cut : 0.5 * l_min;
  if (r_cut > 0.5 * l_min + 1e-12) {
    throw std::invalid_argument("ewald_reference: r_cut exceeds half the box");
  }
  int n_cut = params.n_cut;
  if (n_cut <= 0) {
    n_cut = reciprocal_cutoff_from_tolerance(
        params.alpha, std::max({box.lengths.x, box.lengths.y, box.lengths.z}),
        1e-15);
  }

  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});

  // Wrap once so the phase recurrences and minimum image agree.
  std::vector<Vec3> wrapped(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) wrapped[i] = box.wrap(positions[i]);

  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();
  add_real_space(box, wrapped, charges, params.alpha, r_cut, pool, out);
  add_reciprocal(box, wrapped, charges, params.alpha, n_cut, pool, out);

  double q2 = 0.0, q_total = 0.0;
  for (const double qi : charges) {
    q2 += qi * qi;
    q_total += qi;
  }
  // Self term: volume-independent, so it contributes nothing to the virial.
  out.energy_self = -constants::kCoulomb * params.alpha / std::sqrt(M_PI) * q2;
  out.energy_background =
      net_charge_background_energy(q_total, params.alpha, box.volume());
  // E_bg ~ 1/V under uniform scaling, so its virial-trace share is 3 E_bg.
  out.virial += 3.0 * out.energy_background;

  out.energy = out.energy_real + out.energy_reciprocal + out.energy_self +
               out.energy_background;
  return out;
}

double direct_lattice_energy(const Box& box, std::span<const Vec3> positions,
                             std::span<const double> charges, int shells) {
  double energy = 0.0;
  const std::size_t n = positions.size();
  for (int sx = -shells; sx <= shells; ++sx) {
    for (int sy = -shells; sy <= shells; ++sy) {
      for (int sz = -shells; sz <= shells; ++sz) {
        const Vec3 shift{sx * box.lengths.x, sy * box.lengths.y, sz * box.lengths.z};
        const bool home = sx == 0 && sy == 0 && sz == 0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (home && i == j) continue;
            const Vec3 d = positions[i] - positions[j] - shift;
            energy += 0.5 * constants::kCoulomb * charges[i] * charges[j] / norm(d);
          }
        }
      }
    }
  }
  return energy;
}

}  // namespace tme
