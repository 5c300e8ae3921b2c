// Plain-text trajectory output: XYZ frames (readable by VMD/OVITO), enough
// tooling to inspect the example simulations.
#pragma once

#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "util/vec3.hpp"

namespace tme {

// Appends frames in extended-XYZ format; positions are written in Angstrom
// (the conventional XYZ unit; internal unit is nm).
class XyzWriter {
 public:
  explicit XyzWriter(const std::string& path);

  // `elements` must match positions in size (e.g. "O", "H").
  void write_frame(std::span<const std::string> elements,
                   std::span<const Vec3> positions, const Box& box,
                   const std::string& comment = "");

  std::size_t frames_written() const { return frames_; }

 private:
  std::ofstream out_;
  std::size_t frames_ = 0;
};

}  // namespace tme
