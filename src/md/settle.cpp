#include "md/settle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tme {

double ConstraintParams::d_hh() const {
  return 2.0 * d_oh * std::sin(0.5 * theta_hoh_deg * M_PI / 180.0);
}

WaterConstraints::WaterConstraints(const Topology& topology,
                                   std::span<const double> masses,
                                   const ConstraintParams& params)
    : params_(params) {
  if (topology.rigid_waters().empty()) return;
  waters_.reserve(topology.rigid_waters().size());
  for (const RigidWater& w : topology.rigid_waters()) {
    waters_.push_back({w.o, w.h1, w.h2});
  }
  m_o_ = masses[waters_.front().o];
  m_h_ = masses[waters_.front().h1];
  for (const Triplet& t : waters_) {
    if (masses[t.o] != m_o_ || masses[t.h1] != m_h_ || masses[t.h2] != m_h_) {
      throw std::invalid_argument("WaterConstraints: SETTLE requires uniform water masses");
    }
  }
  // Canonical triangle (Miyamoto & Kollman): O on the +y axis, H's below.
  //   ra = |COM - O|, rb = distance from COM to the HH line, rc = d_HH / 2.
  const double d_hh = params.d_hh();
  const double height = std::sqrt(params.d_oh * params.d_oh - 0.25 * d_hh * d_hh);
  const double total = m_o_ + 2.0 * m_h_;
  ra_ = 2.0 * m_h_ * height / total;
  rb_ = height - ra_;
  rc_ = 0.5 * d_hh;
}

void WaterConstraints::apply_positions(const Box& box, std::span<const Vec3> previous,
                                       std::vector<Vec3>& positions,
                                       std::vector<Vec3>* velocities, double dt,
                                       ConstraintMethod method, ThreadPool* pool) const {
  // Each molecule reads and writes only its own three atoms, so the result
  // does not depend on how the pool splits the range.
  ThreadPool& p = pool != nullptr ? *pool : global_pool();
  parallel_for(p, 0, waters_.size(), [&](std::size_t k) {
    const Triplet& t = waters_[k];
    const Vec3 before_o = positions[t.o];
    const Vec3 before_h1 = positions[t.h1];
    const Vec3 before_h2 = positions[t.h2];
    if (method == ConstraintMethod::kSettle) {
      settle_one(box, t, previous, positions);
    } else {
      shake_one(box, t, previous, positions);
    }
    if (velocities != nullptr && dt > 0.0) {
      (*velocities)[t.o] += (positions[t.o] - before_o) / dt;
      (*velocities)[t.h1] += (positions[t.h1] - before_h1) / dt;
      (*velocities)[t.h2] += (positions[t.h2] - before_h2) / dt;
    }
  });
}

namespace {

// Orthonormal basis as a row-major rotation: rows are the axes.
struct Frame {
  Vec3 x, y, z;

  Vec3 to_local(const Vec3& v) const { return {dot(x, v), dot(y, v), dot(z, v)}; }
  Vec3 to_world(const Vec3& v) const { return v.x * x + v.y * y + v.z * z; }
};

}  // namespace

void WaterConstraints::settle_one(const Box& box, const Triplet& t,
                                  std::span<const Vec3> previous,
                                  std::vector<Vec3>& positions) const {
  // Local (unwrapped) coordinates relative to the previous oxygen image so
  // periodic wrapping cannot split a molecule.
  const Vec3 ref = previous[t.o];
  const Vec3 a0{};  // previous O relative to itself
  const Vec3 b0 = box.min_image_disp(previous[t.h1], ref);
  const Vec3 c0 = box.min_image_disp(previous[t.h2], ref);
  Vec3 a1 = box.min_image_disp(positions[t.o], ref);
  Vec3 b1 = box.min_image_disp(positions[t.h1], ref);
  Vec3 c1 = box.min_image_disp(positions[t.h2], ref);

  const double total = m_o_ + 2.0 * m_h_;
  const Vec3 com = (m_o_ * a1 + m_h_ * b1 + m_h_ * c1) / total;
  a1 -= com;
  b1 -= com;
  c1 -= com;
  const Vec3 ob0 = b0 - a0;  // previous H1 relative to previous O
  const Vec3 oc0 = c0 - a0;

  // Primed frame (Miyamoto & Kollman):
  //   z' along the normal of the previous triangle,
  //   x' = a1 x z'  (so a1 lies in the y'z' plane),
  //   y' = z' x x'.
  // Validated sign convention: with this frame the theta root below is the
  // (alpha gamma - beta sqrt(...)) branch, agreeing with SHAKE to 1e-14.
  const Vec3 zd = cross(ob0, oc0);
  Vec3 xd = cross(a1, zd);
  Frame frame;
  frame.z = zd / norm(zd);
  const double nxd = norm(xd);
  if (nxd > 1e-12 * norm(zd) * norm(a1)) {
    frame.x = xd / nxd;
  } else {
    // a1 parallel to the plane normal: any in-plane axis works.
    const Vec3 helper = std::abs(frame.z.x) < 0.9 ? Vec3{1, 0, 0} : Vec3{0, 1, 0};
    frame.x = cross(helper, frame.z);
    frame.x /= norm(frame.x);
  }
  frame.y = cross(frame.z, frame.x);

  // Transform into the primed frame.  The old hydrogens are referenced to
  // the old oxygen (orientation only); the new positions to the new COM.
  const Vec3 b0d = frame.to_local(ob0);
  const Vec3 c0d = frame.to_local(oc0);
  const Vec3 a1d = frame.to_local(a1);
  const Vec3 b1d = frame.to_local(b1);
  const Vec3 c1d = frame.to_local(c1);

  // Rotation angles phi (about x), psi (about y) from the z displacements.
  const double sinphi = std::clamp(a1d.z / ra_, -1.0, 1.0);
  const double cosphi = std::sqrt(1.0 - sinphi * sinphi);
  const double sinpsi =
      std::clamp((b1d.z - c1d.z) / (2.0 * rc_ * cosphi), -1.0, 1.0);
  const double cospsi = std::sqrt(1.0 - sinpsi * sinpsi);

  // Canonical triangle tilted by phi and psi (primed frame, before the
  // final rotation theta about z).
  const double ya2 = ra_ * cosphi;
  const double xb2 = -rc_ * cospsi;
  const double yb2 = -rb_ * cosphi - rc_ * sinpsi * sinphi;
  const double yc2 = -rb_ * cosphi + rc_ * sinpsi * sinphi;

  // Solve for theta from the constraint that the rotation preserve the
  // projection of the old positions onto the new ones (M&K eq. A8).
  const double alpha = xb2 * (b0d.x - c0d.x) + b0d.y * yb2 + c0d.y * yc2;
  const double beta = xb2 * (c0d.y - b0d.y) + b0d.x * yb2 + c0d.x * yc2;
  const double gamma = b0d.x * b1d.y - b1d.x * b0d.y + c0d.x * c1d.y - c1d.x * c0d.y;
  const double a2b2 = alpha * alpha + beta * beta;
  const double under = a2b2 - gamma * gamma;
  const double sintheta =
      (alpha * gamma - beta * std::sqrt(std::max(under, 0.0))) / a2b2;
  const double costheta = std::sqrt(std::max(1.0 - sintheta * sintheta, 0.0));

  // Final constrained positions in the primed frame.
  const Vec3 a3d{-ya2 * sintheta, ya2 * costheta, a1d.z};
  const Vec3 b3d{xb2 * costheta - yb2 * sintheta, xb2 * sintheta + yb2 * costheta,
                 b1d.z};
  const Vec3 c3d{-xb2 * costheta - yc2 * sintheta, -xb2 * sintheta + yc2 * costheta,
                 c1d.z};

  // Back to world coordinates.
  positions[t.o] = frame.to_world(a3d) + com + ref;
  positions[t.h1] = frame.to_world(b3d) + com + ref;
  positions[t.h2] = frame.to_world(c3d) + com + ref;
}

void WaterConstraints::shake_one(const Box& box, const Triplet& t,
                                 std::span<const Vec3> previous,
                                 std::vector<Vec3>& positions) const {
  const Vec3 ref = previous[t.o];
  Vec3 prev[3] = {Vec3{}, box.min_image_disp(previous[t.h1], ref),
                  box.min_image_disp(previous[t.h2], ref)};
  Vec3 cur[3] = {box.min_image_disp(positions[t.o], ref),
                 box.min_image_disp(positions[t.h1], ref),
                 box.min_image_disp(positions[t.h2], ref)};
  const double inv_m[3] = {1.0 / m_o_, 1.0 / m_h_, 1.0 / m_h_};
  const double d_oh = params_.d_oh;
  const double targets[3] = {d_oh * d_oh, d_oh * d_oh,
                             params_.d_hh() * params_.d_hh()};
  const std::size_t pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};

  for (int iter = 0; iter < params_.shake_max_iterations; ++iter) {
    double worst = 0.0;
    for (int c = 0; c < 3; ++c) {
      const std::size_t i = pairs[c][0], j = pairs[c][1];
      const Vec3 rij = cur[i] - cur[j];
      const double diff = norm2(rij) - targets[c];
      worst = std::max(worst, std::abs(diff));
      const Vec3 rij_prev = prev[i] - prev[j];
      const double denom = 2.0 * (inv_m[i] + inv_m[j]) * dot(rij, rij_prev);
      if (std::abs(denom) < 1e-30) continue;
      const double g = diff / denom;
      cur[i] -= (g * inv_m[i]) * rij_prev;
      cur[j] += (g * inv_m[j]) * rij_prev;
    }
    if (worst < params_.shake_tolerance) break;
  }
  positions[t.o] = cur[0] + ref;
  positions[t.h1] = cur[1] + ref;
  positions[t.h2] = cur[2] + ref;
}

void WaterConstraints::project_velocities(const Box& box,
                                          std::span<const Vec3> positions,
                                          std::vector<Vec3>& velocities,
                                          ThreadPool* pool) const {
  const double inv_m[3] = {1.0 / m_o_, 1.0 / m_h_, 1.0 / m_h_};
  const std::size_t pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
  // sign[a][d]: +1 if atom a is the first atom of bond d, -1 if the second.
  const double sign[3][3] = {{1.0, 1.0, 0.0}, {-1.0, 0.0, 1.0}, {0.0, -1.0, -1.0}};
  ThreadPool& p = pool != nullptr ? *pool : global_pool();
  parallel_for(p, 0, waters_.size(), [&](std::size_t k) {
    const Triplet& t = waters_[k];
    const std::size_t idx[3] = {t.o, t.h1, t.h2};
    // Closed-form SETTLE velocity step (Miyamoto & Kollman 1992): the bond
    // impulses lambda_c along the unit bond vectors e_c solve A lambda = u,
    // with u_c the relative velocity along bond c and
    //   A_cd = (sign[i_c][d] / m_{i_c} - sign[j_c][d] / m_{j_c}) (e_c . e_d).
    Vec3 e[3];
    double u[3];
    for (int c = 0; c < 3; ++c) {
      const std::size_t i = idx[pairs[c][0]], j = idx[pairs[c][1]];
      const Vec3 rij = box.min_image_disp(positions[i], positions[j]);
      e[c] = rij / norm(rij);
      u[c] = dot(e[c], velocities[i] - velocities[j]);
    }
    double a[3][3];
    for (int c = 0; c < 3; ++c) {
      const std::size_t i = pairs[c][0], j = pairs[c][1];
      for (int d = 0; d < 3; ++d) {
        a[c][d] = (sign[i][d] * inv_m[i] - sign[j][d] * inv_m[j]) * dot(e[c], e[d]);
      }
    }
    // Cramer's rule; A = J M^-1 J^T is positive definite for a non-collinear
    // triangle, so the determinant is bounded away from zero.
    const double m00 = a[1][1] * a[2][2] - a[1][2] * a[2][1];
    const double m01 = a[1][0] * a[2][2] - a[1][2] * a[2][0];
    const double m02 = a[1][0] * a[2][1] - a[1][1] * a[2][0];
    const double inv_det = 1.0 / (a[0][0] * m00 - a[0][1] * m01 + a[0][2] * m02);
    const double lambda[3] = {
        inv_det * (u[0] * m00 - a[0][1] * (u[1] * a[2][2] - a[1][2] * u[2]) +
                   a[0][2] * (u[1] * a[2][1] - a[1][1] * u[2])),
        inv_det * (a[0][0] * (u[1] * a[2][2] - a[1][2] * u[2]) - u[0] * m01 +
                   a[0][2] * (a[1][0] * u[2] - u[1] * a[2][0])),
        inv_det * (a[0][0] * (a[1][1] * u[2] - u[1] * a[2][1]) -
                   a[0][1] * (a[1][0] * u[2] - u[1] * a[2][0]) + u[0] * m02)};
    for (int c = 0; c < 3; ++c) {
      const std::size_t i = pairs[c][0], j = pairs[c][1];
      velocities[idx[i]] -= (lambda[c] * inv_m[i]) * e[c];
      velocities[idx[j]] += (lambda[c] * inv_m[j]) * e[c];
    }
  });
}

double WaterConstraints::max_violation(const Box& box,
                                       std::span<const Vec3> positions) const {
  double worst = 0.0;
  const double d_oh = params_.d_oh;
  const double d_hh = params_.d_hh();
  for (const Triplet& t : waters_) {
    worst = std::max(worst, std::abs(norm(box.min_image_disp(positions[t.o],
                                                             positions[t.h1])) -
                                     d_oh));
    worst = std::max(worst, std::abs(norm(box.min_image_disp(positions[t.o],
                                                             positions[t.h2])) -
                                     d_oh));
    worst = std::max(worst, std::abs(norm(box.min_image_disp(positions[t.h1],
                                                             positions[t.h2])) -
                                     d_hh));
  }
  return worst;
}

}  // namespace tme
