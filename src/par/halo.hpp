// Halo staging between a DistributedGrid and one node's extended buffer —
// the coordinator side of every sleeve and halo exchange in ParallelTme.
//
// A buffer row (fixed global y, z) is wrapped once into the periodic level
// and then walked as x-runs that stay inside one owner block; each run is a
// contiguous copy (import) or a per-cell accumulate (export).  Word counts
// are kept per source/destination node and logged in node order, one
// message per peer, so the TrafficLog is that of a per-cell walk.
#pragma once

#include <string>

#include "hw/link_stats.hpp"
#include "par/par_tme.hpp"

namespace tme::par {

// Degraded-machine context threaded through the traffic helpers: an optional
// host remapping for dead nodes plus the corruption stream retransmissions
// are drawn from.  Default-constructed = healthy machine.
struct FaultContext {
  const RecoveryPlan* plan = nullptr;
  const FaultInjector* faults = nullptr;
  hw::LinkTelemetry* links = nullptr;
};

// Log one logical message, mapped through the recovery plan (if any) and
// charged for CRC-detected retransmissions drawn from the corruption stream
// (if any).  Messages between blocks that now share a surviving host become
// node-local and are dropped from the log.
void log_transfer(TrafficLog* log, const std::string& phase, std::size_t words,
                  std::size_t from, std::size_t to, const TorusTopology& topo,
                  const FaultContext& ctx);

// Fill a node's extended buffer (any origin, possibly negative, and any
// extent, possibly wider than the level period) from the distributed grid;
// every cell that lives on another node is a received word.  Messages are
// grouped by source node, hops measured on the torus.  `log` may be null.
void import_halo(const DistributedGrid& grid, const GridDecomposition& decomp,
                 const NodeCoord& me, ExtendedBlock& buffer,
                 const std::string& phase, TrafficLog* log,
                 const FaultContext& ctx = {});

// Scatter-accumulate a node's sleeved buffer back into the distributed grid
// (used by CA: contributions written outside the owned block travel to the
// neighbour that owns them).  Zero cells are skipped and not counted; the
// others are added in buffer order, so a cell the buffer covers twice
// receives its contributions in that order.
void export_sleeves(DistributedGrid& grid, const GridDecomposition& decomp,
                    const NodeCoord& me, const ExtendedBlock& buffer,
                    const std::string& phase, TrafficLog* log,
                    const FaultContext& ctx = {});

}  // namespace tme::par
