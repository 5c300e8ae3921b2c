#include "md/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace tme {

void Topology::add_rigid_water(const RigidWater& w) {
  rigid_waters_.push_back(w);
  add_exclusion(w.o, w.h1);
  add_exclusion(w.o, w.h2);
  add_exclusion(w.h1, w.h2);
}

void Topology::add_exclusion(std::size_t i, std::size_t j) {
  if (i == j) throw std::invalid_argument("add_exclusion: i == j");
  exclusions_.emplace_back(std::min(i, j), std::max(i, j));
}

void Topology::build_exclusions_from_bonded() {
  for (const Bond& b : bonds_) add_exclusion(b.i, b.j);
  for (const Angle& a : angles_) {
    add_exclusion(a.i, a.j);
    add_exclusion(a.j, a.k);
    add_exclusion(a.i, a.k);
  }
}

void Topology::finalize(std::size_t n_atoms) {
  std::sort(exclusions_.begin(), exclusions_.end());
  exclusions_.erase(std::unique(exclusions_.begin(), exclusions_.end()),
                    exclusions_.end());
  for (const auto& [i, j] : exclusions_) {
    if (i >= n_atoms || j >= n_atoms) {
      throw std::out_of_range("Topology::finalize: exclusion index out of range");
    }
  }
  // Build symmetric CSR adjacency.
  excl_offsets_.assign(n_atoms + 1, 0);
  for (const auto& [i, j] : exclusions_) {
    ++excl_offsets_[i + 1];
    ++excl_offsets_[j + 1];
  }
  for (std::size_t a = 0; a < n_atoms; ++a) excl_offsets_[a + 1] += excl_offsets_[a];
  excl_neighbours_.resize(exclusions_.size() * 2);
  std::vector<std::size_t> cursor(excl_offsets_.begin(), excl_offsets_.end() - 1);
  for (const auto& [i, j] : exclusions_) {
    excl_neighbours_[cursor[i]++] = j;
    excl_neighbours_[cursor[j]++] = i;
  }
  for (std::size_t a = 0; a < n_atoms; ++a) {
    std::sort(excl_neighbours_.begin() + static_cast<long>(excl_offsets_[a]),
              excl_neighbours_.begin() + static_cast<long>(excl_offsets_[a + 1]));
  }
}

bool Topology::excluded(std::size_t i, std::size_t j) const {
  const std::span<const std::size_t> partners = excluded_partners(i);
  return std::binary_search(partners.begin(), partners.end(), j);
}

std::span<const std::size_t> Topology::excluded_partners(std::size_t i) const {
  if (i + 1 >= excl_offsets_.size()) return {};
  return {excl_neighbours_.data() + excl_offsets_[i],
          excl_offsets_[i + 1] - excl_offsets_[i]};
}

}  // namespace tme
