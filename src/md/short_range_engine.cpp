#include "md/short_range_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/abft.hpp"
#include "md/cell_list.hpp"
#include "md/short_range_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace tme {

namespace {

// One build block: the rows of the pairs its home cells' atoms contribute
// as columns, then (for the scatter) per-row counts over an atom range.
struct BuildBlock {
  std::vector<std::uint32_t> rows;
  std::vector<std::size_t> count;  // per row; becomes the scatter cursor
};

// The build measures distances between wrapped coordinates, the evaluation
// between minimum images of the raw ones, and the two can differ in the last
// bits.  Taking this much off the displacement budget keeps every pair that
// the evaluation could place inside the cutoff on the list.
constexpr double kRoundingSlack = 1e-9;  // nm

// One box axis of the build grid.  Cells are at least r_l / 2 wide, so an
// atom's partners lie within two cells on either side; an axis with fewer
// than five cells is scanned whole, each cell once.
struct Axis {
  long cells = 1;
  double length = 0.0;
  double edge = 0.0;

  Axis(std::size_t n, double len)
      : cells(static_cast<long>(n)), length(len), edge(len / static_cast<double>(n)) {}

  bool whole() const { return cells < 5; }
  // Unwrapped cell range [first, last] to scan around cell c.
  long first(long c) const { return whole() ? 0 : c - 2; }
  long last(long c) const { return whole() ? cells - 1 : c + 2; }
  long wrap(long u) const { return (u + cells) % cells; }
  // What takes a coordinate in cell wrap(u) to unwrapped cell u (0 when the
  // axis is scanned whole).
  double shift(long u) const {
    if (whole() || (u >= 0 && u < cells)) return 0.0;
    return u < 0 ? -length : length;
  }
  // Smallest distance between a point of cell c and one of unwrapped cell u.
  double gap(long c, long u) const {
    if (whole()) return 0.0;
    return static_cast<double>(std::max(0L, std::abs(u - c) - 1)) * edge;
  }
};

// The build's candidates in cell order, where the atoms of x-consecutive
// cells sit contiguously.  The arrays carry kScanWidth padding entries so a
// vector load may run past the last candidate.
constexpr int kScanWidth = simd::kNativeWidth;
using ScanVec = simd::vec<double, kScanWidth>;

struct ScanGrid {
  std::size_t cells_x = 1, cells_y = 1, cells_z = 1;
  std::vector<std::size_t> start;   // first candidate of each cell, plus the end
  std::vector<double> x, y, z;      // wrapped coordinates
  std::vector<double> id;           // atom index as a double (exact below 2^53)
  std::vector<std::uint32_t> atom;  // atom index

  explicit ScanGrid(const CellList& cells)
      : cells_x(cells.cells_x()), cells_y(cells.cells_y()), cells_z(cells.cells_z()) {
    start.resize(cells.cell_count() + 1);
    for (std::size_t c = 0; c < start.size(); ++c) start[c] = cells.cell_begin(c);
    const std::span<const std::size_t> order = cells.order();
    const std::size_t padded = order.size() + kScanWidth;
    for (auto* v : {&x, &y, &z, &id}) v->assign(padded, 0.0);
    atom.assign(padded, 0);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Vec3& w = cells.wrapped(order[k]);
      x[k] = w.x;
      y[k] = w.y;
      z[k] = w.z;
      id[k] = static_cast<double>(order[k]);
      atom[k] = static_cast<std::uint32_t>(order[k]);
    }
  }
};

// Per-block scratch of the cell scan.
struct ScanScratch {
  struct Home {
    ScanVec x, y, z, id;
    unsigned odd = 0;  // all ones for an odd atom index
  };
  // A slice [k0, k1) of the cell order, and the shift that takes its
  // candidates to the image next to the home cell.
  struct Run {
    std::size_t k0, k1;
    double sx, sy, sz;
  };
  std::vector<Run> runs;
  std::vector<Home> home;
  std::vector<std::uint32_t> kept;  // per home atom, `cap` slots
  std::vector<std::size_t> nkept;
};

}  // namespace

struct ShortRangeEngine::PairListCache {
  std::mutex mutex;
  std::size_t builds = 0;

  // What the list was built for: the positions (for the displacement rule),
  // the box and the topology terms it depends on.
  std::vector<Vec3> reference;
  Vec3 box{};
  std::vector<std::pair<std::size_t, std::size_t>> exclusions;

  // The topology's LJ parameters as per-atom types, and the flat mixing
  // table of the types (see PairRows).
  std::vector<LjParams> types;
  std::vector<std::uint32_t> type_of;
  std::vector<double> c6, c12, e_shift;
  std::size_t ntypes = 0;

  // The half list: row i holds columns row_start[i] .. row_start[i + 1] of
  // `cols`, ascending.  `cols` carries kScanWidth zero entries past the end
  // so a row's last vector of columns may overhang it.
  std::vector<std::size_t> row_start;
  std::vector<std::uint32_t> cols;
  std::size_t entries() const { return row_start.empty() ? 0 : row_start.back(); }

  // Scratch kept across calls.
  std::vector<double> px, py, pz;  // positions by coordinate, for gathers
  std::vector<PairSums> partials;  // one per row range

  bool same_topology(const Topology& topology) const {
    const std::vector<LjParams>& lj = topology.lj();
    if (lj.size() != type_of.size() || topology.exclusions() != exclusions) {
      return false;
    }
    for (std::size_t i = 0; i < lj.size(); ++i) {
      const LjParams& t = types[type_of[i]];
      if (lj[i].sigma != t.sigma || lj[i].epsilon != t.epsilon) return false;
    }
    return true;
  }

  // Takes the topology's exclusions and LJ types; the list must be rebuilt.
  void set_topology(const Topology& topology, const ShortRangeParams& params);

  // Whether the list still covers every pair inside the cutoff: same atom
  // count and box, and the two largest displacements since the build sum to
  // at most the buffer.  Written so that a NaN displacement reads as stale.
  bool current(const Box& b, std::span<const Vec3> positions) const {
    if (reference.size() != positions.size() || b.lengths.x != box.x ||
        b.lengths.y != box.y || b.lengths.z != box.z) {
      return false;
    }
    const double budget = kListBuffer - kRoundingSlack;
    const double budget2 = budget * budget;
    double top1 = 0.0, top2 = 0.0;  // two largest squared displacements
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const double d2 = norm2(b.min_image_disp(positions[i], reference[i]));
      if (!(d2 <= budget2)) return false;
      if (d2 > top2) {
        top2 = std::min(d2, top1);
        top1 = std::max(d2, top1);
      }
    }
    return std::sqrt(top1) + std::sqrt(top2) <= budget;
  }

  void build(const Box& b, std::span<const Vec3> positions, const Topology& topology,
             double list_cutoff, ThreadPool& pool, std::size_t nblocks);
};

void ShortRangeEngine::PairListCache::set_topology(const Topology& topology,
                                                   const ShortRangeParams& params) {
  exclusions = topology.exclusions();
  reference.clear();

  const std::vector<LjParams>& lj = topology.lj();
  const std::size_t n = lj.size();
  type_of.resize(n);
  types.clear();
  std::map<std::pair<double, double>, std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = ids.try_emplace(
        {lj[i].sigma, lj[i].epsilon}, static_cast<std::uint32_t>(types.size()));
    if (inserted) types.push_back(lj[i]);
    type_of[i] = it->second;
  }
  ntypes = types.size();
  const double cutoff2 = params.cutoff * params.cutoff;
  double inv_rc6 = 0.0;
  if (params.shift_lj) inv_rc6 = 1.0 / (cutoff2 * cutoff2 * cutoff2);
  c6.assign(ntypes * ntypes, 0.0);
  c12.assign(ntypes * ntypes, 0.0);
  e_shift.assign(ntypes * ntypes, 0.0);
  for (std::size_t a = 0; a < ntypes; ++a) {
    for (std::size_t c = 0; c < ntypes; ++c) {
      const double eps = std::sqrt(types[a].epsilon * types[c].epsilon);
      if (eps <= 0.0) continue;
      const double sigma = 0.5 * (types[a].sigma + types[c].sigma);
      const double sig2 = sigma * sigma;
      const double sig6 = sig2 * sig2 * sig2;
      const std::size_t m = a * ntypes + c;
      c6[m] = 4.0 * eps * sig6;
      c12[m] = c6[m] * sig6;
      e_shift[m] = (c12[m] * inv_rc6 - c6[m]) * inv_rc6;
    }
  }
}

// Every atom a, as a column, emits each listed pair {a, b} whose row is b.
// Blocks of home cells scan their neighbourhoods W candidates at a time for
// all of the cell's atoms at once; a stable counting scatter, in ascending
// column order, then fills every row with ascending columns.  No sort, and a
// list that depends on the positions and topology only, not on the block
// count.
void ShortRangeEngine::PairListCache::build(const Box& b, std::span<const Vec3> positions,
                                            const Topology& topology, double list_cutoff,
                                            ThreadPool& pool, std::size_t nblocks) {
  TME_PHASE("list_build");
  using V = ScanVec;
  const std::size_t n = positions.size();
  // The build's scratch is local, so its memory is free again between
  // builds; the cell list itself goes before the scan.
  const ScanGrid grid(CellList(b, positions, 0.5 * list_cutoff));
  const Axis ax(grid.cells_x, b.lengths.x);
  const Axis ay(grid.cells_y, b.lengths.y);
  const Axis az(grid.cells_z, b.lengths.z);
  const std::size_t ncells = grid.start.size() - 1;

  const double rl2 = list_cutoff * list_cutoff;
  const V len[3] = {V::broadcast(b.lengths.x), V::broadcast(b.lengths.y),
                    V::broadcast(b.lengths.z)};
  const V half[3] = {V::broadcast(0.5 * b.lengths.x), V::broadcast(0.5 * b.lengths.y),
                     V::broadcast(0.5 * b.lengths.z)};
  const V neg_half[3] = {V::broadcast(-0.5 * b.lengths.x),
                         V::broadcast(-0.5 * b.lengths.y),
                         V::broadcast(-0.5 * b.lengths.z)};
  // Along an axis scanned whole, the minimum image of a difference of two
  // wrapped coordinates.  Along the others the run's shift has placed every
  // candidate next to the home cell already.
  const bool whole[3] = {ax.whole(), ay.whole(), az.whole()};
  auto image = [&](V d, int axis) {
    if (!whole[axis]) return d;
    d = V::blend(V::cmp_lt(half[axis], d), d - len[axis], d);
    return V::blend(V::cmp_lt(d, neg_half[axis]), d + len[axis], d);
  };
  const V rl2v = V::broadcast(rl2);
  const V half_one = V::broadcast(0.5);
  const V two = V::broadcast(2.0);

  const std::size_t cell_chunk = (ncells + nblocks - 1) / nblocks;
  std::vector<BuildBlock> blocks(nblocks);
  std::vector<ScanScratch> scratch(nblocks);
  // Each atom's pairs: its block, and [begin, end) of that block's rows.
  std::vector<std::uint32_t> slice_block(n);
  std::vector<std::size_t> slice_begin(n), slice_end(n);
  parallel_for(pool, 0, nblocks, [&](std::size_t t) {
    BuildBlock& block = blocks[t];
    ScanScratch& s = scratch[t];
    // About as many pairs as last time (a dense-liquid guess at first), so
    // the stream is not regrown and copied on every build.
    const std::size_t last = entries();
    block.rows.reserve(last != 0 ? last / nblocks + last / 16 : 64 * (n / nblocks + 1));
    const std::size_t c_end = std::min(ncells, (t + 1) * cell_chunk);
    for (std::size_t c = t * cell_chunk; c < c_end; ++c) {
      const std::size_t h0 = grid.start[c];
      const std::size_t nh = grid.start[c + 1] - h0;
      if (nh == 0) continue;
      const auto ci = static_cast<long>(c);
      const long cx = ci % ax.cells;
      const long cy = (ci / ax.cells) % ay.cells;
      const long cz = ci / (ax.cells * ay.cells);

      // The x-runs of neighbour cells within r_l of this cell.
      s.runs.clear();
      std::size_t total = 0;
      double sy = 0.0, sz = 0.0;
      auto run = [&](std::size_t base, long c0, long c1, double sx) {
        const std::size_t k0 = grid.start[base + static_cast<std::size_t>(c0)];
        const std::size_t k1 = grid.start[base + static_cast<std::size_t>(c1) + 1];
        if (k0 == k1) return;
        s.runs.push_back({k0, k1, sx, sy, sz});
        total += k1 - k0;
      };
      for (long uz = az.first(cz); uz <= az.last(cz); ++uz) {
        const double gz = az.gap(cz, uz);
        sz = az.shift(uz);
        for (long uy = ay.first(cy); uy <= ay.last(cy); ++uy) {
          const double gy = ay.gap(cy, uy);
          const double g2 = gz * gz + gy * gy;
          if (g2 >= rl2) continue;
          sy = ay.shift(uy);
          const auto base = static_cast<std::size_t>(
              (az.wrap(uz) * ay.cells + ay.wrap(uy)) * ax.cells);
          if (ax.whole()) {
            run(base, 0, ax.cells - 1, 0.0);
            continue;
          }
          // Cells two away in x are in reach only if an edge fits.
          const long span = ax.edge * ax.edge + g2 < rl2 ? 2 : 1;
          const long u0 = cx - span, u1 = cx + span;
          if (u0 < 0) {
            run(base, u0 + ax.cells, ax.cells - 1, -ax.length);
            run(base, 0, u1, 0.0);
          } else if (u1 >= ax.cells) {
            run(base, u0, ax.cells - 1, 0.0);
            run(base, 0, u1 - ax.cells, ax.length);
          } else {
            run(base, u0, u1, 0.0);
          }
        }
      }

      // The cell's atoms are the columns; every candidate is the row.
      s.home.resize(nh);
      for (std::size_t h = 0; h < nh; ++h) {
        const std::size_t k = h0 + h;
        s.home[h] = {V::broadcast(grid.x[k]), V::broadcast(grid.y[k]),
                     V::broadcast(grid.z[k]), V::broadcast(grid.id[k]),
                     (grid.atom[k] & 1u) != 0 ? ~0u : 0u};
      }
      const std::size_t cap = total + kScanWidth;
      s.kept.resize(nh * cap);
      s.nkept.assign(nh, 0);
      for (const ScanScratch::Run& r : s.runs) {
        const V sx = V::broadcast(r.sx), sy = V::broadcast(r.sy), sz = V::broadcast(r.sz);
        const std::size_t k1 = r.k1;
        for (std::size_t k = r.k0; k < k1; k += kScanWidth) {
          const V x = V::load(grid.x.data() + k) + sx;
          const V y = V::load(grid.y.data() + k) + sy;
          const V z = V::load(grid.z.data() + k) + sz;
          const V id = V::load(grid.id.data() + k);
          const V parity = id - two * V::floor(half_one * id);
          const unsigned odd = V::mask_bits(V::cmp_ge(parity, half_one));
          const std::size_t left = k1 - k;
          const unsigned lanes =
              left >= kScanWidth ? (1u << kScanWidth) - 1u : (1u << left) - 1u;
          for (std::size_t h = 0; h < nh; ++h) {
            const ScanScratch::Home& home = s.home[h];
            const V dx = image(home.x - x, 0);
            const V dy = image(home.y - y, 1);
            const V dz = image(home.z - z, 2);
            const V r2 = dx * dx + dy * dy + dz * dz;
            // Keep the pairs inside r_l whose row is the candidate's: odd
            // index sums go to the smaller index, even ones to the larger.
            // A NaN distance fails cmp_ge, so a non-finite atom stays listed.
            const unsigned odd_sum = odd ^ home.odd;
            const unsigned lower = V::mask_bits(V::cmp_lt(id, home.id));
            const unsigned higher = V::mask_bits(V::cmp_lt(home.id, id));
            const unsigned far = V::mask_bits(V::cmp_ge(r2, rl2v));
            const unsigned keep =
                ~far & ((odd_sum & lower) | (~odd_sum & higher)) & lanes;
            simd::compress_index<kScanWidth>(grid.atom.data() + k, keep,
                                             s.kept.data() + h * cap + s.nkept[h]);
            s.nkept[h] += static_cast<std::size_t>(std::popcount(keep));
          }
        }
      }

      // Drop each atom's excluded partners and append its pairs.
      for (std::size_t h = 0; h < nh; ++h) {
        const std::uint32_t a = grid.atom[h0 + h];
        std::uint32_t* const kept = s.kept.data() + h * cap;
        std::size_t nkept = s.nkept[h];
        for (const std::size_t p : topology.excluded_partners(a)) {
          std::uint32_t* const end = kept + nkept;
          std::uint32_t* const hit = std::find(kept, end, static_cast<std::uint32_t>(p));
          if (hit != end) {
            std::copy(hit + 1, end, hit);
            --nkept;
          }
        }
        slice_block[a] = static_cast<std::uint32_t>(t);
        slice_begin[a] = block.rows.size();
        block.rows.insert(block.rows.end(), kept, kept + nkept);
        slice_end[a] = block.rows.size();
      }
    }
  });

  // Per-row counts over contiguous column ranges, one per block.
  const std::size_t chunk = (n + nblocks - 1) / nblocks;
  auto slice = [&](std::size_t a) {
    const std::uint32_t* rows = blocks[slice_block[a]].rows.data();
    return std::span<const std::uint32_t>(rows + slice_begin[a], rows + slice_end[a]);
  };
  parallel_for(pool, 0, nblocks, [&](std::size_t t) {
    std::vector<std::size_t>& count = blocks[t].count;
    count.assign(n, 0);
    const std::size_t a_end = std::min(n, (t + 1) * chunk);
    for (std::size_t a = t * chunk; a < a_end; ++a) {
      for (const std::uint32_t r : slice(a)) ++count[r];
    }
  });

  // Row offsets, and each block's starting slot in every row.
  row_start.resize(n + 1);
  row_start[0] = 0;
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t slot = row_start[r];
    for (BuildBlock& block : blocks) {
      const std::size_t count = block.count[r];
      block.count[r] = slot;
      slot += count;
    }
    row_start[r + 1] = slot;
  }
  cols.assign(row_start[n] + kScanWidth, 0);
  parallel_for(pool, 0, nblocks, [&](std::size_t t) {
    std::vector<std::size_t>& cursor = blocks[t].count;
    const std::size_t a_end = std::min(n, (t + 1) * chunk);
    for (std::size_t a = t * chunk; a < a_end; ++a) {
      for (const std::uint32_t r : slice(a)) {
        cols[cursor[r]++] = static_cast<std::uint32_t>(a);
      }
    }
  });

  reference.assign(positions.begin(), positions.end());
  box = b.lengths;
  ++builds;
}

ShortRangeEngine::ShortRangeEngine(const ShortRangeParams& params)
    : params_(params), cache_(std::make_unique<PairListCache>()) {
  if (params.kernel == CoulombKernel::kTabulated) {
    table_ = std::make_unique<ForceTable>(params.alpha, params.table_r_min,
                                          params.cutoff, params.table_segments);
  }
  switch (params.simd) {
    case ShortRangeParams::SimdChoice::kScalar:
      mode_ = simd::Mode::kScalar;
      break;
    case ShortRangeParams::SimdChoice::kNative:
      mode_ = simd::Mode::kNative;
      break;
    case ShortRangeParams::SimdChoice::kEnv:
      mode_ = simd::mode_from_env();
      break;
  }
}

ShortRangeEngine::~ShortRangeEngine() = default;
ShortRangeEngine::ShortRangeEngine(ShortRangeEngine&&) noexcept = default;
ShortRangeEngine& ShortRangeEngine::operator=(ShortRangeEngine&&) noexcept = default;

std::size_t ShortRangeEngine::list_builds() const {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->builds;
}

ShortRangeResult ShortRangeEngine::compute(ParticleSystem& system,
                                           const Topology& topology,
                                           ThreadPool* pool_ptr) const {
  TME_PHASE("short_range");
  TME_COUNTER_ADD("short_range/calls", 1);
  // The sweep's minimum image (md/short_range_kernels.cpp) needs the cutoff
  // below half of every box length, with room for rounding.
  const Vec3& len = system.box.lengths;
  if (!(params_.cutoff < 0.5 * std::min({len.x, len.y, len.z}) - kRoundingSlack)) {
    throw std::invalid_argument(
        "ShortRangeEngine: the cutoff must stay below half of every box length");
  }
  ShortRangeResult out;
  const std::size_t n = system.size();
  if (n == 0) return out;
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();
  const std::size_t nb = std::min<std::size_t>(
      ThreadPool::in_parallel_region() ? 1 : pool.concurrency(), n);

  const std::lock_guard<std::mutex> lock(cache_->mutex);
  PairListCache& list = *cache_;
  if (!list.same_topology(topology)) list.set_topology(topology, params_);
  if (!list.current(system.box, system.positions)) {
    list.build(system.box, system.positions, topology, params_.cutoff + kListBuffer,
               pool, nb);
    TME_COUNTER_ADD("short_range/list_builds", 1);
  }
  TME_GAUGE_SET("short_range/lj_types", list.ntypes);

  // --- parallel sweep over fixed contiguous row ranges ---------------------
  const std::size_t chunk = (n + nb - 1) / nb;
  list.partials.resize(nb);
  list.px.resize(n);
  list.py.resize(n);
  list.pz.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    list.px[i] = system.positions[i].x;
    list.py[i] = system.positions[i].y;
    list.pz[i] = system.positions[i].z;
  }
  PairRows rows;
  rows.row_start = list.row_start.data();
  rows.cols = list.cols.data();
  rows.x = list.px.data();
  rows.y = list.py.data();
  rows.z = list.pz.data();
  rows.charge = system.charges.data();
  rows.type_of = list.type_of.data();
  rows.c6 = list.c6.data();
  rows.c12 = list.c12.data();
  rows.e_shift = list.e_shift.data();
  rows.ntypes = list.ntypes;
  rows.box = system.box.lengths;
  rows.cutoff2 = params_.cutoff * params_.cutoff;
  rows.kernel = {params_.alpha, table_.get()};
  parallel_for(pool, 0, nb, [&](std::size_t b) {
    TME_TRACE_SPAN("short_range/batch");
    PairSums& part = list.partials[b];
    part.reset(n);
    sweep_rows(rows, b * chunk, std::min(n, (b + 1) * chunk), part, mode_);
  });

  // --- deterministic reduction (fixed batch order) -------------------------
  {
    TME_PHASE("reduce");
    parallel_for(pool, 0, n, [&](std::size_t k) {
      Vec3 acc{};
      for (const PairSums& part : list.partials) {
        acc += Vec3{part.fx[k], part.fy[k], part.fz[k]};
      }
      system.forces[k] += acc;
    });
  }
  for (const PairSums& part : list.partials) {
    out.energy_coulomb += part.energy_coulomb;
    out.energy_lj += part.energy_lj;
    out.pair_count += part.pairs;
  }

  // Newton's-third-law ABFT check: the pair kernel writes +fij/-fij, so the
  // engine's net contribution cancels exactly in real arithmetic.  The sum
  // below reassociates 2·pairs accumulations plus the nb·n merge, so the
  // residual must stay inside that chain's rounding envelope.
  {
    double fmax = 0.0;
    for (const PairSums& part : list.partials) {
      for (std::size_t k = 0; k < n; ++k) {
        const Vec3 f{part.fx[k], part.fy[k], part.fz[k]};
        out.net_force += f;
        fmax = std::max({fmax, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
      }
    }
    out.net_force_tolerance =
        abft::rounding_tolerance(2 * out.pair_count + nb * n, fmax, 0x1p-52);
    abft::CheckSet checks(params_.abft_tolerance_scale);
    const bool ok_x = checks.check("sr_net_force", 0.0, out.net_force.x,
                                   out.net_force_tolerance, 0,
                                   "short-range net force x");
    const bool ok_y = checks.check("sr_net_force", 0.0, out.net_force.y,
                                   out.net_force_tolerance, 1,
                                   "short-range net force y");
    const bool ok_z = checks.check("sr_net_force", 0.0, out.net_force.z,
                                   out.net_force_tolerance, 2,
                                   "short-range net force z");
    out.third_law_ok = ok_x && ok_y && ok_z;
  }

  TME_COUNTER_ADD("short_range/pairs", out.pair_count);
  TME_COUNTER_ADD("short_range/list_pairs", list.entries());
  if (list.entries() != 0) {
    TME_GAUGE_SET("short_range/list_efficiency",
                  static_cast<double>(out.pair_count) /
                      static_cast<double>(list.entries()));
  }
  TME_GAUGE_SET("short_range/batches", nb);
  return out;
}

}  // namespace tme
