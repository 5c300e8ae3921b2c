#include "par/halo.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"

namespace tme::par {

namespace {

// Walks the buffer in storage order as runs of cells that share one owner
// block and one block row: fn(owner, block_offset, buffer_offset, len).
// Block extents divide the level, so a run ends at a block edge or at the
// buffer's row end and never straddles the periodic seam.
template <typename Fn>
void for_each_run(const GridDecomposition& decomp, const ExtendedBlock& buffer,
                  Fn&& fn) {
  const GridDims& global = decomp.global();
  const GridDims& local = decomp.local();
  const TorusTopology& topo = decomp.topology();
  const std::size_t wx0 = Grid3d::wrap(buffer.x0, global.nx);
  std::size_t at = 0;
  for (std::size_t bz = 0; bz < buffer.nz; ++bz) {
    const std::size_t wz = Grid3d::wrap(buffer.z0 + static_cast<long>(bz), global.nz);
    for (std::size_t by = 0; by < buffer.ny; ++by) {
      const std::size_t wy = Grid3d::wrap(buffer.y0 + static_cast<long>(by), global.ny);
      const std::size_t row = ((wz % local.nz) * local.ny + wy % local.ny) * local.nx;
      std::size_t wx = wx0;
      for (std::size_t bx = 0; bx < buffer.nx;) {
        const std::size_t lx = wx % local.nx;
        const std::size_t len = std::min(local.nx - lx, buffer.nx - bx);
        fn(topo.index({wx / local.nx, wy / local.ny, wz / local.nz}), row + lx, at, len);
        at += len;
        bx += len;
        wx += len;
        if (wx == global.nx) wx = 0;
      }
    }
  }
}

}  // namespace

void log_transfer(TrafficLog* log, const std::string& phase, std::size_t words,
                  std::size_t from, std::size_t to, const TorusTopology& topo,
                  const FaultContext& ctx) {
  std::size_t hops;
  std::size_t host_from = from;
  std::size_t host_to = to;
  if (ctx.plan != nullptr) {
    host_from = ctx.plan->host(from);
    host_to = ctx.plan->host(to);
    if (host_from == host_to) return;
    hops = ctx.plan->hops(from, to);
    if (ctx.plan->rerouted(from, to)) {
      TME_COUNTER_ADD("par_tme/rerouted_messages", 1);
    }
  } else {
    hops = topo.hops(topo.coord(from), topo.coord(to));
  }
  log->add(phase, 1, words, hops);
  if (ctx.links != nullptr) {
    ctx.links->record_transfer(host_from, host_to, words * 4);
  }
  if (ctx.faults != nullptr && ctx.faults->config().link_error_rate > 0.0) {
    std::size_t retries = 0;
    const auto max_retries =
        static_cast<std::size_t>(ctx.faults->config().max_retries);
    while (retries < max_retries && ctx.faults->attempt_corrupted(hops)) {
      ++retries;
    }
    if (retries > 0) {
      log->add("fault retransmission", retries, retries * words, hops);
      TME_COUNTER_ADD("par_tme/nw_retries", retries);
      if (ctx.links != nullptr) {
        ctx.links->record_transfer(host_from, host_to, retries * words * 4,
                                   retries);
      }
    }
  }
}

void import_halo(const DistributedGrid& grid, const GridDecomposition& decomp,
                 const NodeCoord& me, ExtendedBlock& buffer,
                 const std::string& phase, TrafficLog* log,
                 const FaultContext& ctx) {
  const TorusTopology& topo = decomp.topology();
  const std::size_t me_idx = topo.index(me);
  std::vector<std::size_t> words_from(topo.node_count(), 0);
  double* dst = buffer.data.data();
  for_each_run(decomp, buffer, [&](std::size_t src, std::size_t block_off,
                                   std::size_t at, std::size_t len) {
    const double* from = grid.block(src).data() + block_off;
    std::copy(from, from + len, dst + at);
    if (src != me_idx) words_from[src] += len;
  });
  if (log != nullptr) {
    for (std::size_t src = 0; src < words_from.size(); ++src) {
      if (words_from[src] == 0) continue;
      log_transfer(log, phase, words_from[src], src, me_idx, topo, ctx);
    }
  }
}

void export_sleeves(DistributedGrid& grid, const GridDecomposition& decomp,
                    const NodeCoord& me, const ExtendedBlock& buffer,
                    const std::string& phase, TrafficLog* log,
                    const FaultContext& ctx) {
  const TorusTopology& topo = decomp.topology();
  const std::size_t me_idx = topo.index(me);
  std::vector<std::size_t> words_to(topo.node_count(), 0);
  const double* src = buffer.data.data();
  for_each_run(decomp, buffer, [&](std::size_t dst, std::size_t block_off,
                                   std::size_t at, std::size_t len) {
    double* to = grid.block(dst).data() + block_off;
    std::size_t nonzero = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const double v = src[at + k];
      if (v == 0.0) continue;
      to[k] += v;
      ++nonzero;
    }
    if (dst != me_idx) words_to[dst] += nonzero;
  });
  if (log != nullptr) {
    for (std::size_t dst = 0; dst < words_to.size(); ++dst) {
      if (words_to[dst] == 0) continue;
      log_transfer(log, phase, words_to[dst], me_idx, dst, topo, ctx);
    }
  }
}

}  // namespace tme::par
