#include "util/io.hpp"

#include <stdexcept>

namespace tme {

XyzWriter::XyzWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("XyzWriter: cannot open " + path);
}

void XyzWriter::write_frame(std::span<const std::string> elements,
                            std::span<const Vec3> positions, const Box& box,
                            const std::string& comment) {
  if (elements.size() != positions.size()) {
    throw std::invalid_argument("XyzWriter: elements/positions size mismatch");
  }
  out_ << positions.size() << '\n';
  out_ << "Lattice=\"" << box.lengths.x * 10.0 << " 0 0 0 " << box.lengths.y * 10.0
       << " 0 0 0 " << box.lengths.z * 10.0 << "\"";
  if (!comment.empty()) out_ << ' ' << comment;
  out_ << '\n';
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 r = box.wrap(positions[i]);
    out_ << elements[i] << ' ' << r.x * 10.0 << ' ' << r.y * 10.0 << ' '
         << r.z * 10.0 << '\n';
  }
  out_.flush();
  ++frames_;
}

}  // namespace tme
