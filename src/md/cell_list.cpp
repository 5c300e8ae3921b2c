#include "md/cell_list.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tme {

CellList::CellList(const Box& box, std::span<const Vec3> positions, double cutoff) {
  if (cutoff <= 0.0) throw std::invalid_argument("CellList: cutoff must be positive");
  auto cells_along = [cutoff](double length) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(length / cutoff));
  };
  cells_x_ = cells_along(box.lengths.x);
  cells_y_ = cells_along(box.lengths.y);
  cells_z_ = cells_along(box.lengths.z);

  const std::size_t n = positions.size();
  wrapped_.resize(n);
  std::vector<std::size_t> cell_of(n);
  cell_start_.assign(cell_count() + 1, 0);
  // A non-finite coordinate wraps to NaN; it lands in cell 0 of its axis
  // instead of reaching the float-to-integer cast, whose result would be
  // undefined.
  auto bin = [](double x, double box_len, std::size_t cells) -> std::size_t {
    const double s = x / box_len * static_cast<double>(cells);
    if (!(s >= 0.0)) return 0;
    return std::min(static_cast<std::size_t>(s), cells - 1);  // x == box_len round-off
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 w = box.wrap(positions[i]);
    wrapped_[i] = w;
    const std::size_t c = cell_index(bin(w.x, box.lengths.x, cells_x_),
                                     bin(w.y, box.lengths.y, cells_y_),
                                     bin(w.z, box.lengths.z, cells_z_));
    cell_of[i] = c;
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < cell_count(); ++c) cell_start_[c + 1] += cell_start_[c];
  order_.resize(n);
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) order_[cursor[cell_of[i]]++] = i;
}

std::vector<std::size_t> CellList::half_stencil(std::size_t c) const {
  // All distinct 26-neighbourhood cells with index strictly greater than c.
  // The symmetric construction guarantees each unordered cell pair is
  // produced exactly once even on degenerate (1- or 2-cell) axes.
  const std::size_t cx = c % cells_x_;
  const std::size_t cy = (c / cells_x_) % cells_y_;
  const std::size_t cz = c / (cells_x_ * cells_y_);
  std::vector<std::size_t> out;
  out.reserve(26);
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const std::size_t nx =
            (cx + static_cast<std::size_t>(dx + static_cast<int>(cells_x_))) % cells_x_;
        const std::size_t ny =
            (cy + static_cast<std::size_t>(dy + static_cast<int>(cells_y_))) % cells_y_;
        const std::size_t nz =
            (cz + static_cast<std::size_t>(dz + static_cast<int>(cells_z_))) % cells_z_;
        const std::size_t n = cell_index(nx, ny, nz);
        if (n > c) out.push_back(n);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tme
