// Tests for the MD quality-of-life layer: thermostats and the I/O writers.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "md/system.hpp"
#include "md/thermostat.hpp"
#include "md/water_box.hpp"
#include "util/io.hpp"

namespace tme {
namespace {

namespace fs = std::filesystem;

TEST(Thermostat, BerendsenDrivesTowardsTarget) {
  WaterBoxSpec spec;
  spec.molecules = 125;
  spec.temperature = 600.0;
  WaterBox wb = build_water_box(spec);
  const std::size_t dof = 3 * wb.system.size() - 3;
  BerendsenParams params;
  params.target_temperature = 300.0;
  params.time_constant = 0.05;
  params.dof = dof;
  double t_prev = wb.system.temperature(dof);
  for (int i = 0; i < 200; ++i) apply_berendsen(wb.system, params, 0.001);
  const double t_now = wb.system.temperature(dof);
  EXPECT_LT(std::abs(t_now - 300.0), std::abs(t_prev - 300.0));
  EXPECT_NEAR(t_now, 300.0, 20.0);
}

TEST(Thermostat, HardRescaleIsExact) {
  WaterBoxSpec spec;
  spec.molecules = 64;
  spec.temperature = 500.0;
  WaterBox wb = build_water_box(spec);
  const std::size_t dof = 3 * wb.system.size() - 3;
  rescale_to_temperature(wb.system, 310.0, dof);
  EXPECT_NEAR(wb.system.temperature(dof), 310.0, 1e-9);
}

TEST(Io, XyzWriterProducesReadableFrames) {
  const fs::path path = fs::temp_directory_path() / "tme_test_traj.xyz";
  {
    XyzWriter writer(path.string());
    const std::vector<std::string> elems{"O", "H"};
    const std::vector<Vec3> pos{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
    const Box box{{1.0, 1.0, 1.0}};
    writer.write_frame(elems, pos, box, "t=0");
    writer.write_frame(elems, pos, box, "t=1");
    EXPECT_EQ(writer.frames_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "2");
  std::getline(in, line);
  EXPECT_NE(line.find("Lattice"), std::string::npos);
  std::getline(in, line);
  EXPECT_EQ(line.rfind("O ", 0), 0u);  // Angstrom coordinates follow
  fs::remove(path);
}

}  // namespace
}  // namespace tme
