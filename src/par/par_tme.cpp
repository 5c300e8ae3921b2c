#include "par/par_tme.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/solvers.hpp"
#include "ewald/splitting.hpp"
#include "grid/multilevel.hpp"
#include "obs/metrics.hpp"
#include "par/halo.hpp"
#include "spline/bspline.hpp"
#include "spline/two_scale.hpp"

namespace tme::par {

// --- DistributedGrid ---------------------------------------------------------

DistributedGrid::DistributedGrid(const GridDecomposition& decomp)
    : decomp_(&decomp) {
  blocks_.assign(decomp.node_count(), Grid3d(decomp.local()));
}

Grid3d DistributedGrid::assemble() const {
  const GridDecomposition& d = *decomp_;
  Grid3d out(d.global());
  const GridDims& g = d.global();
  const GridDims& local = d.local();
  for (std::size_t n = 0; n < blocks_.size(); ++n) {
    const NodeCoord c = d.topology().coord(n);
    const double* src = blocks_[n].data();
    for (std::size_t lz = 0; lz < local.nz; ++lz) {
      for (std::size_t ly = 0; ly < local.ny; ++ly, src += local.nx) {
        std::copy(src, src + local.nx,
                  out.data() + ((d.origin_z(c) + lz) * g.ny + d.origin_y(c) + ly) * g.nx +
                      d.origin_x(c));
      }
    }
  }
  return out;
}

DistributedGrid DistributedGrid::distribute(const Grid3d& global,
                                            const GridDecomposition& decomp) {
  if (!(global.dims() == decomp.global())) {
    throw std::invalid_argument("DistributedGrid::distribute: dims mismatch");
  }
  DistributedGrid out(decomp);
  const GridDims& g = decomp.global();
  const GridDims& local = decomp.local();
  for (std::size_t n = 0; n < out.node_count(); ++n) {
    const NodeCoord c = decomp.topology().coord(n);
    double* dst = out.block(n).data();
    for (std::size_t lz = 0; lz < local.nz; ++lz) {
      for (std::size_t ly = 0; ly < local.ny; ++ly, dst += local.nx) {
        const double* src =
            global.data() +
            ((decomp.origin_z(c) + lz) * g.ny + decomp.origin_y(c) + ly) * g.nx +
            decomp.origin_x(c);
        std::copy(src, src + local.nx, dst);
      }
    }
  }
  return out;
}

// --- ParallelTme -------------------------------------------------------------

ParallelTme::ParallelTme(const Box& box, const TmeParams& params,
                         const TorusTopology& nodes)
    : box_(box), tme_(box, params), topo_(nodes.nx(), nodes.ny(), nodes.nz()) {
  for (int level = 1; level <= params.levels + 1; ++level) {
    level_decomp_.emplace_back(tme_.level_dims(level), topo_);
  }
  ctx_.box = box_;
  ctx_.p = params.order;
  ctx_.fine_global = tme_.level_dims(1);
  ctx_.h = {box_.lengths.x / static_cast<double>(ctx_.fine_global.nx),
            box_.lengths.y / static_cast<double>(ctx_.fine_global.ny),
            box_.lengths.z / static_cast<double>(ctx_.fine_global.nz)};
  ctx_.j_coeff = two_scale_coefficients(params.order);
  for (int l = 1; l <= params.levels; ++l) {
    ctx_.kernels.push_back(tme_.level_kernels(l));
  }
  serial_exec_ = std::make_unique<SerialExecutor>(ctx_);
}

void ParallelTme::set_fault_injector(const FaultInjector* faults) {
  faults_ = faults;
  plan_.reset();
  if (faults != nullptr && faults->has_structural_faults()) {
    plan_ = std::make_unique<RecoveryPlan>(topo_, *faults);
  }
}

void ParallelTme::set_link_telemetry(hw::LinkTelemetry* links) {
  links_ = links;
}

DistributedGrid ParallelTme::solve_potential(const DistributedGrid& finest_charges,
                                             TrafficLog* log) const {
  TME_PHASE("par_tme_solve");
  TME_GAUGE_SET("par_tme/nodes", topo_.node_count());
  const FaultContext ctx{plan_.get(), faults_, links_};
  NodeExecutor& exec = executor();
  if (log != nullptr && plan_ != nullptr) {
    // One-time block migration: every dead node's per-level blocks are
    // re-fetched by the surviving host (from the neighbour-held redundant
    // copy) before the pipeline starts.
    for (const std::size_t dead : plan_->faults().dead_nodes()) {
      const std::size_t host = plan_->host(dead);
      const std::size_t hops =
          topo_.hops(topo_.coord(dead), topo_.coord(host));
      for (const GridDecomposition& d : level_decomp_) {
        log->add("fault redistribution", 1, d.local().total(), hops);
        if (links_ != nullptr) {
          links_->record_transfer(dead, host, d.local().total() * 4);
        }
      }
    }
  }
  const TmeParams& params = tme_.params();
  const int p = params.order;
  const int half_p = p / 2;
  const int gc = params.grid_cutoff;

  // Two-scale transfer: one task per node computing its block of `dst_d`
  // from the halo of `src` the stencil reads.  `reach(o, n)` is that halo's
  // start and extent along one axis, for an output block at origin o with n
  // cells.
  const auto transfer = [&](GridBlockTask::Kind kind, const DistributedGrid& src,
                            const GridDecomposition& src_d,
                            const GridDecomposition& dst_d, const char* phase,
                            const auto& reach) {
    std::vector<GridBlockTask> tasks(topo_.node_count());
    for (std::size_t n = 0; n < topo_.node_count(); ++n) {
      const NodeCoord me = topo_.coord(n);
      GridBlockTask& t = tasks[n];
      t.kind = kind;
      t.node = n;
      t.ox = static_cast<long>(dst_d.origin_x(me));
      t.oy = static_cast<long>(dst_d.origin_y(me));
      t.oz = static_cast<long>(dst_d.origin_z(me));
      t.out_dims = dst_d.local();
      const auto [x0, ex] = reach(t.ox, t.out_dims.nx);
      const auto [y0, ey] = reach(t.oy, t.out_dims.ny);
      const auto [z0, ez] = reach(t.oz, t.out_dims.nz);
      t.halo.reset(x0, y0, z0, ex, ey, ez);
      import_halo(src, src_d, me, t.halo, phase, log, ctx);
    }
    std::vector<Grid3d> blocks = exec.run_grid(std::move(tasks));
    DistributedGrid out(dst_d);
    for (std::size_t n = 0; n < topo_.node_count(); ++n) {
      out.block(n) = std::move(blocks[n]);
    }
    return out;
  };

  // Restriction: output coarse cell m needs fine cells 2m +- p/2.
  const auto restriction = [&](const DistributedGrid& fine, int l) {
    const auto level = static_cast<std::size_t>(l);
    return transfer(GridBlockTask::Kind::kRestrict, fine, level_decomp_[level - 1],
                    level_decomp_[level], "restriction halo",
                    [&](long o, std::size_t n) {
                      return std::pair{2 * o - half_p, 2 * n + p};
                    });
  };

  // Top level: gather to the root, solve, broadcast back.
  const auto top = [&](const DistributedGrid& q_top) {
    const GridDecomposition& top_d = level_decomp_.back();
    if (log != nullptr) {
      // Every non-root node ships its block up the tree and receives the
      // potentials back (paper Sec. IV.C octree; hop count = torus distance to
      // the root's corner as a proxy for the board-level route).
      for (std::size_t n = 1; n < topo_.node_count(); ++n) {
        const std::size_t words = top_d.local().total();
        log_transfer(log, "TMENW gather", words, n, 0, topo_, ctx);
        log_transfer(log, "TMENW scatter", words, 0, n, topo_, ctx);
      }
    }
    return DistributedGrid::distribute(tme_.solve_top(q_top.assemble()), top_d);
  };

  // Prolongation: fine cell n needs coarse cells m with |n - 2m| <= p/2.
  const auto prolongation = [&](const DistributedGrid& phi, int l) {
    const auto level = static_cast<std::size_t>(l);
    return transfer(GridBlockTask::Kind::kProlong, phi, level_decomp_[level],
                    level_decomp_[level - 1], "prolongation halo",
                    [&](long o, std::size_t n) {
                      return std::pair{(o - half_p - 1) / 2,
                                       (n + static_cast<std::size_t>(p)) / 2 + 2};
                    });
  };

  // Separable level convolution: x, then y, then z axis passes; the
  // intermediate state is one grid per Gaussian term.
  const auto convolution = [&](const DistributedGrid& q, int l,
                               DistributedGrid& fine_phi) {
    const GridDecomposition& fine_d = level_decomp_[static_cast<std::size_t>(l - 1)];
    const std::vector<SeparableTerm>& kernels = tme_.level_kernels(l);
    const std::size_t m_terms = kernels.size();
    const GridDims& local = fine_d.local();
    const std::size_t level_nx = fine_d.global().nx;
    const std::size_t level_ny = fine_d.global().ny;
    const std::size_t level_nz = fine_d.global().nz;

    std::vector<DistributedGrid> work(m_terms, DistributedGrid(fine_d));
    for (int axis = 0; axis < 3; ++axis) {
      // Halo extent along the convolved axis, clamped to the level period.
      const std::size_t n_axis = axis == 0 ? level_nx : (axis == 1 ? level_ny : level_nz);
      const long reach = std::min<long>(gc, static_cast<long>(n_axis));
      const std::size_t inputs = axis == 0 ? 1 : m_terms;

      // One task per (node, output term), in node-major order.  On the x
      // pass all M outputs convolve the same single input halo (imported —
      // and logged — once per node); on y/z each term has its own.
      std::vector<GridBlockTask> tasks(topo_.node_count() * m_terms);
      for (std::size_t n = 0; n < topo_.node_count(); ++n) {
        const NodeCoord me = topo_.coord(n);
        const long ox = static_cast<long>(fine_d.origin_x(me));
        const long oy = static_cast<long>(fine_d.origin_y(me));
        const long oz = static_cast<long>(fine_d.origin_z(me));
        for (std::size_t term = 0; term < inputs; ++term) {
          const DistributedGrid& src = axis == 0 ? q : work[term];

          ExtendedBlock halo;
          switch (axis) {
            case 0:
              halo.reset(ox - reach, oy, oz, local.nx + 2 * reach, local.ny,
                         local.nz);
              break;
            case 1:
              halo.reset(ox, oy - reach, oz, local.nx, local.ny + 2 * reach,
                         local.nz);
              break;
            default:
              halo.reset(ox, oy, oz - reach, local.nx, local.ny,
                         local.nz + 2 * reach);
              break;
          }
          import_halo(src, fine_d, me, halo, "level convolution", log, ctx);

          // On the x pass every term convolves the same input; on y/z each
          // term convolves its own intermediate.
          const std::size_t out_terms_begin = axis == 0 ? 0 : term;
          const std::size_t out_terms_end = axis == 0 ? m_terms : term + 1;
          for (std::size_t out_t = out_terms_begin; out_t < out_terms_end; ++out_t) {
            GridBlockTask& t = tasks[n * m_terms + out_t];
            t.kind = GridBlockTask::Kind::kConvolve;
            t.node = n;
            t.halo = halo;
            t.ox = ox;
            t.oy = oy;
            t.oz = oz;
            t.out_dims = local;
            t.axis = axis;
            t.reach = reach;
            t.n_axis = n_axis;
            t.level = l;
            t.term = out_t;
          }
        }
      }
      std::vector<Grid3d> blocks = exec.run_grid(std::move(tasks));
      std::vector<DistributedGrid> next(m_terms, DistributedGrid(fine_d));
      for (std::size_t n = 0; n < topo_.node_count(); ++n) {
        for (std::size_t term = 0; term < m_terms; ++term) {
          next[term].block(n) = std::move(blocks[n * m_terms + term]);
        }
      }
      work = std::move(next);
    }

    // Accumulate the M terms into the prolonged potential with the level
    // prefactor (Eq. 9).
    const double scale = tme_level_scale(l);
    for (std::size_t n = 0; n < topo_.node_count(); ++n) {
      Grid3d& out = fine_phi.block(n);
      for (std::size_t term = 0; term < m_terms; ++term) {
        const Grid3d& w = work[term].block(n);
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += scale * w[i];
      }
    }
  };

  return solve_multilevel(finest_charges, params.levels, restriction, top,
                          prolongation, convolution);
}

CoulombResult ParallelTme::compute(std::span<const Vec3> positions,
                                   std::span<const double> charges,
                                   TrafficLog* log) const {
  TME_PHASE("par_tme");
  TME_COUNTER_ADD("par_tme/compute_calls", 1);
  TME_GAUGE_SET("par_tme/atoms", positions.size());
  const FaultContext ctx{plan_.get(), faults_, links_};
  NodeExecutor& exec = executor();
  const TmeParams& params = tme_.params();
  const GridDecomposition& fine_d = level_decomp_.front();
  const GridDims& local = fine_d.local();
  const int p = params.order;

  const std::vector<std::size_t> owner_of =
      assign_atoms_to_nodes(box_, positions, topo_);
  std::vector<std::vector<std::size_t>> node_atoms(topo_.node_count());
  for (std::size_t i = 0; i < owner_of.size(); ++i) {
    node_atoms[owner_of[i]].push_back(i);
  }

  // --- CA: per-node anterpolation into sleeved buffers, sleeve export ------
  DistributedGrid q(fine_d);
  const int sleeve = p / 2 + 1;  // paper Sec. IV.A: 4 sleeves for p = 6
  {
  TME_PHASE("charge_assignment");
  std::vector<CaBlockTask> tasks;
  tasks.reserve(topo_.node_count());
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    const NodeCoord me = topo_.coord(n);
    CaBlockTask t;
    t.node = n;
    t.x0 = static_cast<long>(fine_d.origin_x(me)) - sleeve;
    t.y0 = static_cast<long>(fine_d.origin_y(me)) - sleeve;
    t.z0 = static_cast<long>(fine_d.origin_z(me)) - sleeve;
    t.ex = local.nx + 2 * sleeve;
    t.ey = local.ny + 2 * sleeve;
    t.ez = local.nz + 2 * sleeve;
    t.positions.reserve(node_atoms[n].size());
    t.charges.reserve(node_atoms[n].size());
    for (const std::size_t i : node_atoms[n]) {
      t.positions.push_back(positions[i]);
      t.charges.push_back(charges[i]);
    }
    tasks.push_back(std::move(t));
  }
  std::vector<ExtendedBlock> buffers = exec.run_ca(std::move(tasks));
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    export_sleeves(q, fine_d, topo_.coord(n), buffers[n], "CA sleeve exchange",
                   log, ctx);
  }
  }  // charge_assignment phase

  // --- Grid pipeline --------------------------------------------------------
  const DistributedGrid phi = solve_potential(q, log);

  // --- BI: halo import of potentials, per-node interpolation ---------------
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});
  double q_phi = 0.0;
  {
  TME_PHASE("back_interpolation");
  std::vector<BiBlockTask> tasks;
  tasks.reserve(topo_.node_count());
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    const NodeCoord me = topo_.coord(n);
    BiBlockTask t;
    t.node = n;
    t.halo.reset(static_cast<long>(fine_d.origin_x(me)) - sleeve,
                 static_cast<long>(fine_d.origin_y(me)) - sleeve,
                 static_cast<long>(fine_d.origin_z(me)) - sleeve,
                 local.nx + 2 * sleeve, local.ny + 2 * sleeve,
                 local.nz + 2 * sleeve);
    import_halo(phi, fine_d, me, t.halo, "BI grid transfer", log, ctx);
    t.positions.reserve(node_atoms[n].size());
    t.charges.reserve(node_atoms[n].size());
    for (const std::size_t i : node_atoms[n]) {
      t.positions.push_back(positions[i]);
      t.charges.push_back(charges[i]);
    }
    tasks.push_back(std::move(t));
  }
  std::vector<BiBlockResult> results = exec.run_bi(std::move(tasks));
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    for (std::size_t j = 0; j < node_atoms[n].size(); ++j) {
      out.forces[node_atoms[n][j]] = results[n].forces[j];
    }
    q_phi += results[n].q_phi;
  }
  }  // back_interpolation phase
  out.energy_reciprocal = 0.5 * q_phi;
  finish_long_range_energy(out, charges, params.alpha,
                           tme_.top_level().params().alpha, box_.volume(),
                           params.subtract_self);
  return out;
}

CoulombResult ParallelTme::compute(std::span<const Vec3> positions,
                                   std::span<const double> charges) const {
  TrafficLog log;
  return compute(positions, charges, &log);
}

obs::JsonValue ParallelTme::describe() const {
  obs::JsonValue d = obs::JsonValue::make_object();
  auto& obj = d.as_object();
  obj["backend"] = obs::JsonValue::make_string(name());
  describe_tme_params(tme_.params(), d);
  obj["torus"] = obs::JsonValue::make_string(std::to_string(topo_.nx()) + "x" +
                                             std::to_string(topo_.ny()) + "x" +
                                             std::to_string(topo_.nz()));
  obj["executor"] = obs::JsonValue::make_string(executor().name());
  return d;
}

Grid3d parallel_msm_convolution(const Grid3d& in, const std::vector<double>& taps3d,
                                int cutoff, const TorusTopology& topo,
                                TrafficLog* log) {
  const std::size_t width = static_cast<std::size_t>(2 * cutoff + 1);
  if (taps3d.size() != width * width * width) {
    throw std::invalid_argument("parallel_msm_convolution: taps size");
  }
  const GridDecomposition decomp(in.dims(), topo);
  const DistributedGrid dist = DistributedGrid::distribute(in, decomp);
  const GridDims& local = decomp.local();

  Grid3d out(in.dims());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeCoord me = topo.coord(n);
    ExtendedBlock halo;
    halo.reset(static_cast<long>(decomp.origin_x(me)) - cutoff,
               static_cast<long>(decomp.origin_y(me)) - cutoff,
               static_cast<long>(decomp.origin_z(me)) - cutoff,
               local.nx + 2 * static_cast<std::size_t>(cutoff),
               local.ny + 2 * static_cast<std::size_t>(cutoff),
               local.nz + 2 * static_cast<std::size_t>(cutoff));
    import_halo(dist, decomp, me, halo, "MSM dense halo", log);
    for (std::size_t lz = 0; lz < local.nz; ++lz) {
      for (std::size_t ly = 0; ly < local.ny; ++ly) {
        for (std::size_t lx = 0; lx < local.nx; ++lx) {
          const long gx = static_cast<long>(decomp.origin_x(me) + lx);
          const long gy = static_cast<long>(decomp.origin_y(me) + ly);
          const long gz = static_cast<long>(decomp.origin_z(me) + lz);
          double acc = 0.0;
          for (int mz = -cutoff; mz <= cutoff; ++mz) {
            for (int my = -cutoff; my <= cutoff; ++my) {
              for (int mx = -cutoff; mx <= cutoff; ++mx) {
                const double tap =
                    taps3d[(static_cast<std::size_t>(mz + cutoff) * width +
                            static_cast<std::size_t>(my + cutoff)) *
                               width +
                           static_cast<std::size_t>(mx + cutoff)];
                acc += tap * halo.at(gx - mx, gy - my, gz - mz);
              }
            }
          }
          out.at(static_cast<std::size_t>(gx), static_cast<std::size_t>(gy),
                 static_cast<std::size_t>(gz)) = acc;
        }
      }
    }
  }
  return out;
}

}  // namespace tme::par
