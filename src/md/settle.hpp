// Holonomic constraints for rigid 3-site water.
//
// The paper's NVE runs (Fig. 4) restrain the water geometry with SETTLE
// (Miyamoto & Kollman 1992), the analytical solution of the three-distance
// constraint problem: a closed-form rotation for the positions and a direct
// 3x3 solve for the velocities.  An iterative SHAKE position solver is
// provided as the independent reference the SETTLE unit tests validate
// against, and as the fallback for non-water constraint patterns.
//
// Both constraint calls run molecule-parallel on a ThreadPool.  Each
// molecule reads and writes only its own three atoms, so results are
// bitwise identical for every pool size.
#pragma once

#include <span>
#include <vector>

#include "md/system.hpp"
#include "md/topology.hpp"

namespace tme {

class ThreadPool;

enum class ConstraintMethod { kSettle, kShake };

struct ConstraintParams {
  double d_oh = 0.09572;        // nm (TIP3P)
  double theta_hoh_deg = 104.52;
  // Convergence of the SHAKE position path (ConstraintMethod::kShake) only;
  // SETTLE positions and all velocity projections are closed-form.
  double shake_tolerance = 1e-10;
  int shake_max_iterations = 500;

  double d_hh() const;
};

class WaterConstraints {
 public:
  WaterConstraints(const Topology& topology, std::span<const double> masses,
                   const ConstraintParams& params);

  // Constrains `positions` so each water triangle is rigid again.  `previous`
  // must satisfy the constraints (it supplies the reference orientation /
  // SHAKE directions).  If `velocities` is non-null they receive the
  // position correction divided by dt (the velocity-Verlet constraint
  // force contribution).  Molecules run in parallel on `pool` (nullptr =
  // the process-wide pool).
  void apply_positions(const Box& box, std::span<const Vec3> previous,
                       std::vector<Vec3>& positions, std::vector<Vec3>* velocities,
                       double dt, ConstraintMethod method,
                       ThreadPool* pool = nullptr) const;

  // Removes relative velocity components along the constrained bonds (used
  // after the second velocity half-kick).  Closed-form SETTLE velocity step:
  // one direct solve for the three bond impulses per molecule, no iteration.
  // Molecules run in parallel on `pool` (nullptr = the process-wide pool).
  void project_velocities(const Box& box, std::span<const Vec3> positions,
                          std::vector<Vec3>& velocities,
                          ThreadPool* pool = nullptr) const;

  // Largest |r_ij - d_ij| over all constraints (diagnostics/tests).
  double max_violation(const Box& box, std::span<const Vec3> positions) const;

 private:
  struct Triplet {
    std::size_t o, h1, h2;
  };
  void settle_one(const Box& box, const Triplet& t, std::span<const Vec3> previous,
                  std::vector<Vec3>& positions) const;
  void shake_one(const Box& box, const Triplet& t, std::span<const Vec3> previous,
                 std::vector<Vec3>& positions) const;

  std::vector<Triplet> waters_;
  ConstraintParams params_;
  double m_o_ = 0.0, m_h_ = 0.0;
  double ra_ = 0.0, rb_ = 0.0, rc_ = 0.0;  // canonical SETTLE triangle
};

}  // namespace tme
