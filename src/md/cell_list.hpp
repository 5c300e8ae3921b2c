// Linked-cell neighbour search for cutoff interactions.
//
// This is the software analogue of MDGRAPE-4A's spatial cell decomposition
// (64-atom cells managed by the global memory, paper Sec. II): atoms are
// binned into cells no smaller than the cutoff, and each pair search scans
// the 27-cell neighbourhood.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace tme {

class CellList {
 public:
  // Builds the cell decomposition for the given positions.  `cutoff` sets
  // the minimum cell edge; each box axis gets floor(L / cutoff) cells
  // (minimum 1).  A non-finite coordinate bins to the first cell of its
  // axis.
  CellList(const Box& box, std::span<const Vec3> positions, double cutoff);

  std::size_t cell_count() const { return cells_x_ * cells_y_ * cells_z_; }
  std::size_t cells_x() const { return cells_x_; }
  std::size_t cells_y() const { return cells_y_; }
  std::size_t cells_z() const { return cells_z_; }

  // Calls fn(i, j) exactly once for every unordered pair with minimum-image
  // distance below the cutoff.  Pairs are found via the half-neighbourhood
  // stencil, so no pair is visited twice.
  template <typename Fn>
  void for_each_pair(const Box& box, std::span<const Vec3> positions,
                     double cutoff, Fn&& fn) const {
    const double cutoff2 = cutoff * cutoff;
    for (std::size_t c = 0; c < cell_count(); ++c) {
      // Pairs within the cell.
      for (std::size_t a = cell_start_[c]; a < cell_start_[c + 1]; ++a) {
        for (std::size_t b = a + 1; b < cell_start_[c + 1]; ++b) {
          const std::size_t i = order_[a], j = order_[b];
          if (norm2(box.min_image_disp(positions[i], positions[j])) < cutoff2) {
            fn(i, j);
          }
        }
      }
      // Pairs with the 13 forward neighbour cells.
      for (const std::size_t n : half_stencil(c)) {
        for (std::size_t a = cell_start_[c]; a < cell_start_[c + 1]; ++a) {
          for (std::size_t b = cell_start_[n]; b < cell_start_[n + 1]; ++b) {
            const std::size_t i = order_[a], j = order_[b];
            if (norm2(box.min_image_disp(positions[i], positions[j])) < cutoff2) {
              fn(i, j);
            }
          }
        }
      }
    }
  }

  // Atoms in cell c (by index into the original arrays).
  std::span<const std::size_t> cell_atoms(std::size_t c) const {
    return {order_.data() + cell_start_[c], cell_start_[c + 1] - cell_start_[c]};
  }

  // Atoms grouped by cell in cell-index order (x fastest), so the atoms of
  // the consecutive cells [c_first, c_last) are the contiguous slice
  // order()[cell_begin(c_first), cell_begin(c_last)).
  std::span<const std::size_t> order() const { return order_; }
  std::size_t cell_begin(std::size_t c) const { return cell_start_[c]; }

  // Atom i's position wrapped into the box, as binned.
  const Vec3& wrapped(std::size_t i) const { return wrapped_[i]; }

  // The 13 forward neighbours of cell c (periodic).  When the grid is
  // smaller than 3 cells along an axis, duplicate neighbours are removed so
  // pairs are still visited exactly once.
  std::vector<std::size_t> half_stencil(std::size_t c) const;

 private:
  std::size_t cell_index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    return (iz * cells_y_ + iy) * cells_x_ + ix;
  }

  std::size_t cells_x_ = 1, cells_y_ = 1, cells_z_ = 1;
  std::vector<std::size_t> cell_start_;  // CSR offsets, size cell_count()+1
  std::vector<std::size_t> order_;       // atom indices grouped by cell
  std::vector<Vec3> wrapped_;            // positions wrapped into the box
};

}  // namespace tme
