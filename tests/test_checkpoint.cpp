// Checkpoint write/restore (CRC-validated, bitwise resume), the numerical
// guardrail checks, and the guarded step driver's escalation ladder.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/splitting.hpp"
#include "md/checkpoint.hpp"
#include "md/forcefield.hpp"
#include "md/guardrail.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"
#include "md/water_box.hpp"
#include "scratch_dir.hpp"
#include "util/crc32.hpp"
#include "util/io_shim.hpp"
#include "util/rng.hpp"

namespace tme {
namespace {

// --- CRC-32 ------------------------------------------------------------------

TEST(Crc32, MatchesTheStandardTestVector) {
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  const char digits[] = "123456789";
  std::uint32_t crc = 0;
  crc = crc32_update(crc, digits, 4);
  crc = crc32_update(crc, digits + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

// The byte-at-a-time table loop the sliced crc32_update must reproduce.
std::uint32_t crc32_bytewise(std::uint32_t crc, const unsigned char* p,
                             std::size_t len) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  crc ^= 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64() & 0xFFu);
  return bytes;
}

TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = random_bytes(4099 + 16, 11);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 4099; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), crc32_bytewise(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, ChainedUpdatesAtRandomSplitsEqualOneShot) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next_u64() % 5000);
    const std::vector<unsigned char> buf =
        random_bytes(n, 100 + static_cast<std::uint64_t>(trial));
    const std::uint32_t whole = crc32_bytewise(0, buf.data(), n);
    ASSERT_EQ(crc32(buf.data(), n), whole);
    std::uint32_t crc = 0;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t piece =
          std::min<std::size_t>(n - at, rng.next_u64() % 97);
      crc = crc32_update(crc, buf.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial << " n " << n;
  }
}

// --- checkpoint I/O ----------------------------------------------------------

ParticleSystem random_state(std::size_t n, std::uint64_t seed) {
  ParticleSystem sys;
  sys.box.lengths = {2.5, 3.0, 3.5};
  sys.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, 2.5), rng.uniform(0.0, 3.0),
                        rng.uniform(0.0, 3.5)};
    sys.velocities[i] = {rng.normal(), rng.normal(), rng.normal()};
    sys.forces[i] = {rng.normal(), rng.normal(), rng.normal()};
    sys.masses[i] = rng.uniform(1.0, 16.0);
    sys.charges[i] = rng.uniform(-1.0, 1.0);
  }
  return sys;
}

void expect_bitwise_equal(const ParticleSystem& a, const ParticleSystem& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.box.lengths.x, b.box.lengths.x);
  EXPECT_EQ(a.box.lengths.y, b.box.lengths.y);
  EXPECT_EQ(a.box.lengths.z, b.box.lengths.z);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(a.positions[i][k], b.positions[i][k]) << "particle " << i;
      EXPECT_EQ(a.velocities[i][k], b.velocities[i][k]) << "particle " << i;
      EXPECT_EQ(a.forces[i][k], b.forces[i][k]) << "particle " << i;
    }
    EXPECT_EQ(a.masses[i], b.masses[i]);
    EXPECT_EQ(a.charges[i], b.charges[i]);
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path(const char* name) const { return dir_.file(name); }

 private:
  ScratchDir dir_;
};

TEST_F(CheckpointTest, RoundTripIsBitwiseExact) {
  const ParticleSystem sys = random_state(64, 9);
  const std::string file = path("roundtrip.ckpt");
  write_checkpoint(file, sys, 1234);
  const Checkpoint ckpt = read_checkpoint(file);
  EXPECT_EQ(ckpt.step, 1234u);
  expect_bitwise_equal(ckpt.system, sys);
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, CorruptedByteIsRejectedByCrc) {
  const ParticleSystem sys = random_state(16, 10);
  const std::string file = path("corrupt.ckpt");
  write_checkpoint(file, sys, 7);

  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(read_checkpoint(file), std::runtime_error);
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, TruncatedFileIsRejected) {
  const ParticleSystem sys = random_state(16, 11);
  const std::string file = path("truncated.ckpt");
  write_checkpoint(file, sys, 7);

  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_THROW(read_checkpoint(file), std::runtime_error);
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, ForgedParticleCountIsRejectedBeforeAllocation) {
  const ParticleSystem sys = random_state(16, 21);
  const std::string file = path("forged.ckpt");

  // Forge the declared particle count *and* recompute the trailing CRC so
  // the forgery passes the integrity check — the size validation must still
  // reject it before any allocation is sized from the bogus count.
  auto forge = [&](std::uint64_t declared_n) {
    write_checkpoint(file, sys, 7);
    std::vector<unsigned char> bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    // Layout: magic(8) version(4) step(8) n(8) ... crc(4).
    constexpr std::size_t kCountOffset = 8 + 4 + 8;
    std::memcpy(bytes.data() + kCountOffset, &declared_n, sizeof(declared_n));
    const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  forge(std::uint64_t{1} << 40);  // would be a multi-TB allocation
  EXPECT_THROW(read_checkpoint(file), std::runtime_error);
  forge(15);  // undersized: payload no longer matches the count
  EXPECT_THROW(read_checkpoint(file), std::runtime_error);
  forge(16);  // control: the forgery helper round-trips an honest count
  EXPECT_NO_THROW(read_checkpoint(file));
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, NonCheckpointFileIsRejected) {
  const std::string file = path("garbage.ckpt");
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << "this is not a checkpoint at all, but it is long enough to parse";
  }
  EXPECT_THROW(read_checkpoint(file), std::runtime_error);
  EXPECT_THROW(read_checkpoint(path("does-not-exist.ckpt")), std::runtime_error);
  std::remove(file.c_str());
}

// --- typed checkpoint faults -------------------------------------------------

CheckpointFault fault_of(const std::string& file) {
  try {
    (void)read_checkpoint(file);
  } catch (const CheckpointError& e) {
    return e.fault();
  }
  ADD_FAILURE() << file << " unexpectedly read back cleanly";
  return CheckpointFault::kIoError;
}

TEST_F(CheckpointTest, EveryRejectionCarriesItsFaultKind) {
  const ParticleSystem sys = random_state(16, 31);
  const std::string file = path("typed.ckpt");

  EXPECT_EQ(fault_of(path("typed-missing.ckpt")), CheckpointFault::kMissingFile);

  auto rewrite = [&](const std::vector<unsigned char>& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  auto read_bytes = [&]() {
    std::ifstream in(file, std::ios::binary);
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  };

  write_checkpoint(file, sys, 7);
  std::vector<unsigned char> good = read_bytes();

  std::vector<unsigned char> torn(good.begin(), good.begin() + 10);
  rewrite(torn);
  EXPECT_EQ(fault_of(file), CheckpointFault::kTruncated);

  std::vector<unsigned char> flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  rewrite(flipped);
  EXPECT_EQ(fault_of(file), CheckpointFault::kCrcMismatch);

  // Forgeries that re-seal the CRC: bad magic, bad version, bad length.
  auto reseal = [](std::vector<unsigned char> bytes) {
    const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    return bytes;
  };
  std::vector<unsigned char> wrong_magic = good;
  wrong_magic[0] ^= 0xFF;
  rewrite(reseal(wrong_magic));
  EXPECT_EQ(fault_of(file), CheckpointFault::kBadMagic);

  std::vector<unsigned char> wrong_version = good;
  wrong_version[8] = 0x7F;  // version lives right after the 8-byte magic
  rewrite(reseal(wrong_version));
  EXPECT_EQ(fault_of(file), CheckpointFault::kBadVersion);

  std::vector<unsigned char> wrong_count = good;
  const std::uint64_t forged_n = 15;
  std::memcpy(wrong_count.data() + 8 + 4 + 8, &forged_n, sizeof(forged_n));
  rewrite(reseal(wrong_count));
  EXPECT_EQ(fault_of(file), CheckpointFault::kBadLength);

  EXPECT_STREQ(to_string(CheckpointFault::kCrcMismatch), "crc-mismatch");
  std::remove(file.c_str());
}

// --- rotating generations + partial-write resume ------------------------------

TEST_F(CheckpointTest, RotationKeepsOlderGenerationsReadable) {
  const std::string file = path("rotating.ckpt");
  const ParticleSystem first = random_state(16, 41);
  const ParticleSystem second = random_state(16, 42);

  write_checkpoint_rotating(file, first, 10, 2);
  write_checkpoint_rotating(file, second, 20, 2);

  std::string used;
  const Checkpoint newest = read_latest_checkpoint(file, 2, &used);
  EXPECT_EQ(newest.step, 20u);
  EXPECT_EQ(used, file);
  expect_bitwise_equal(newest.system, second);

  const Checkpoint older = read_checkpoint(file + ".1");
  EXPECT_EQ(older.step, 10u);
  expect_bitwise_equal(older.system, first);

  std::remove(file.c_str());
  std::remove((file + ".1").c_str());
}

TEST_F(CheckpointTest, PartialWriteFallsBackToThePreviousGeneration) {
  const std::string file = path("torn.ckpt");
  const ParticleSystem first = random_state(16, 43);
  const ParticleSystem second = random_state(16, 44);

  write_checkpoint_rotating(file, first, 10, 2);
  write_checkpoint_rotating(file, second, 20, 2);

  // Simulate a crash mid-write of the newest generation: keep only a prefix.
  {
    std::ifstream in(file, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  std::string used;
  const Checkpoint resumed = read_latest_checkpoint(file, 2, &used);
  EXPECT_EQ(resumed.step, 10u);  // the previous generation carried the run
  EXPECT_EQ(used, file + ".1");
  expect_bitwise_equal(resumed.system, first);

  // With every generation damaged, the NEWEST file's error is what surfaces.
  {
    std::ofstream out(file + ".1", std::ios::binary | std::ios::trunc);
    out << "xx";
  }
  try {
    (void)read_latest_checkpoint(file, 2);
    ADD_FAILURE() << "all-damaged read unexpectedly succeeded";
  } catch (const CheckpointError& e) {
    // Gen 0's torn prefix still clears the minimum-size check, so it dies at
    // the CRC — and that newest-generation fault is the one reported.
    EXPECT_EQ(e.fault(), CheckpointFault::kCrcMismatch);
  }

  std::remove(file.c_str());
  std::remove((file + ".1").c_str());
}

// --- injected IO faults (util/io_shim) ---------------------------------------

TEST_F(CheckpointTest, EnospcMidWriteIsTypedAndLeavesNoTemp) {
  const ParticleSystem sys = random_state(32, 50);
  const std::string file = path("enospc.ckpt");
  io::IoFaultPlan plan;
  plan.path_substring = "enospc.ckpt";
  plan.enospc_after_bytes = 100;  // the payload is ~3 KB: fails mid-write
  io::ScopedIoFaults armed(plan);
  try {
    write_checkpoint(file, sys, 1);
    ADD_FAILURE() << "ENOSPC write unexpectedly succeeded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kNoSpace);
  }
  // The temp file was unlinked and nothing was renamed into place.
  EXPECT_FALSE(std::ifstream(file + ".tmp").good());
  EXPECT_FALSE(std::ifstream(file).good());
  EXPECT_GE(io::IoShim::instance().stats().injected_enospc, 1u);
}

TEST_F(CheckpointTest, EnospcTornWriteFallsBackToOlderGeneration) {
  const std::string file = path("enospc_rot.ckpt");
  const ParticleSystem first = random_state(16, 51);
  const ParticleSystem second = random_state(16, 52);
  write_checkpoint_rotating(file, first, 10, 2);

  {
    io::IoFaultPlan plan;
    plan.path_substring = "enospc_rot.ckpt";
    plan.enospc_after_bytes = 64;
    io::ScopedIoFaults armed(plan);
    try {
      write_checkpoint_rotating(file, second, 20, 2);
      ADD_FAILURE() << "ENOSPC rotating write unexpectedly succeeded";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.fault(), CheckpointFault::kNoSpace);
    }
  }

  // The refused write already rotated step 10 down to .1; the fallback chain
  // still resumes from it bitwise.
  std::string used;
  const Checkpoint resumed = read_latest_checkpoint(file, 2, &used);
  EXPECT_EQ(resumed.step, 10u);
  EXPECT_EQ(used, file + ".1");
  expect_bitwise_equal(resumed.system, first);
  std::remove((file + ".1").c_str());
}

TEST_F(CheckpointTest, FsyncFailureIsTypedIoErrorAndLeavesOldState) {
  const std::string file = path("fsync.ckpt");
  const ParticleSystem first = random_state(16, 53);
  write_checkpoint(file, first, 5);

  {
    io::IoFaultPlan plan;
    plan.path_substring = "fsync.ckpt";
    plan.fail_fsync = true;
    io::ScopedIoFaults armed(plan);
    try {
      write_checkpoint(file, random_state(16, 54), 6);
      ADD_FAILURE() << "fsync-failure write unexpectedly succeeded";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.fault(), CheckpointFault::kIoError);
    }
  }

  // The unsynced temp never replaced the previous durable state.
  const Checkpoint kept = read_checkpoint(file);
  EXPECT_EQ(kept.step, 5u);
  expect_bitwise_equal(kept.system, first);
  EXPECT_GE(io::IoShim::instance().stats().injected_fsync_failures, 1u);
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, OpenFailureIsTypedIoError) {
  io::IoFaultPlan plan;
  plan.path_substring = "openfail.ckpt";
  plan.fail_open = true;
  io::ScopedIoFaults armed(plan);
  try {
    write_checkpoint(path("openfail.ckpt"), random_state(8, 55), 1);
    ADD_FAILURE() << "open-failure write unexpectedly succeeded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kIoError);
  }
}

TEST_F(CheckpointTest, EintrStormAndShortWritesAreRetriedToCompletion) {
  const ParticleSystem sys = random_state(48, 56);
  const std::string file = path("eintr.ckpt");
  io::IoShim::instance().reset_stats();
  {
    io::IoFaultPlan plan;
    plan.path_substring = "eintr.ckpt";
    plan.short_writes = true;
    plan.eintr_every = 2;  // every other write/fsync EINTRs once
    io::ScopedIoFaults armed(plan);
    write_checkpoint(file, sys, 99);  // must succeed despite the storm
  }
  const io::IoStats stats = io::IoShim::instance().stats();
  EXPECT_GE(stats.injected_eintr, 1u);
  EXPECT_GE(stats.injected_short_writes, 2u);
  const Checkpoint ckpt = read_checkpoint(file);
  EXPECT_EQ(ckpt.step, 99u);
  expect_bitwise_equal(ckpt.system, sys);  // bitwise despite retries
  std::remove(file.c_str());
}

TEST_F(CheckpointTest, AllocRefusalIsTypedResourceAndFallsBack) {
  const std::string file = path("alloc.ckpt");
  const ParticleSystem first = random_state(16, 57);
  const ParticleSystem second = random_state(16, 58);
  write_checkpoint_rotating(file, first, 10, 2);
  write_checkpoint_rotating(file, second, 20, 2);

  io::IoFaultPlan plan;
  plan.fail_allocs = 2;  // the next two guarded restore sizings fail
  io::ScopedIoFaults armed(plan);

  // Direct read: the refusal surfaces as the typed kResource fault.
  try {
    (void)read_checkpoint(file);
    ADD_FAILURE() << "alloc-refused read unexpectedly succeeded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.fault(), CheckpointFault::kResource);
  }

  // Generational read: the second refusal burns the newest file, the budget
  // is spent, and the older generation restores bitwise.
  std::string used;
  const Checkpoint resumed = read_latest_checkpoint(file, 2, &used);
  EXPECT_EQ(resumed.step, 10u);
  EXPECT_EQ(used, file + ".1");
  expect_bitwise_equal(resumed.system, first);

  std::remove(file.c_str());
  std::remove((file + ".1").c_str());
}

TEST_F(CheckpointTest, ShimPathFilterLeavesOtherFilesAlone) {
  io::IoFaultPlan plan;
  plan.path_substring = "only_this.ckpt";
  plan.fail_fsync = true;
  io::ScopedIoFaults armed(plan);
  const ParticleSystem sys = random_state(8, 59);
  const std::string file = path("unrelated.ckpt");
  write_checkpoint(file, sys, 3);  // untouched by the armed plan
  const Checkpoint ckpt = read_checkpoint(file);
  expect_bitwise_equal(ckpt.system, sys);
  std::remove(file.c_str());
}

// --- bitwise resume of a real MD run ----------------------------------------

struct MdSetup {
  WaterBox wb;
  ForceField ff;
  VelocityVerlet integrator;
};

MdSetup make_md() {
  WaterBoxSpec spec;
  spec.molecules = 125;
  spec.temperature = 300.0;
  WaterBox wb = build_water_box(spec);
  const double r_cut = 0.7;
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);
  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  SpmeParams sp;
  sp.alpha = alpha;
  sp.grid = {16, 16, 16};
  ForceField ff(sr, make_spme_solver(wb.system.box, sp));
  VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
  return {std::move(wb), std::move(ff), std::move(integrator)};
}

TEST_F(CheckpointTest, MidRunKillAndRestoreResumesBitwiseIdentically) {
  const std::string file = path("midrun.ckpt");

  // Uninterrupted reference: prime, 5 steps, checkpoint, 5 more steps.
  MdSetup md = make_md();
  md.integrator.prime(md.wb.system, md.wb.topology, md.ff);
  for (int s = 0; s < 5; ++s) md.integrator.step(md.wb.system, md.wb.topology, md.ff);
  write_checkpoint(file, md.wb.system, 5);
  for (int s = 0; s < 5; ++s) md.integrator.step(md.wb.system, md.wb.topology, md.ff);

  // "Killed" run: restore the checkpoint into a fresh system and replay the
  // remaining 5 steps.  No re-prime — the checkpoint carries the forces.
  const Checkpoint ckpt = read_checkpoint(file);
  EXPECT_EQ(ckpt.step, 5u);
  ParticleSystem resumed = ckpt.system;
  for (int s = 0; s < 5; ++s) md.integrator.step(resumed, md.wb.topology, md.ff);

  expect_bitwise_equal(resumed, md.wb.system);
  std::remove(file.c_str());
}

// --- guardrail ---------------------------------------------------------------

TEST(Guardrail, FlagsNonFiniteStateAndForceBlowups) {
  ParticleSystem sys = random_state(8, 12);
  Guardrail guard{GuardrailConfig{}};
  StepReport report{};
  EXPECT_TRUE(guard.check(sys, report, 1).empty());

  sys.forces[3].y = std::numeric_limits<double>::quiet_NaN();
  sys.positions[1].x = std::numeric_limits<double>::infinity();
  const auto bad = guard.check(sys, report, 2);
  EXPECT_EQ(bad.size(), 2u);
  EXPECT_EQ(guard.violations().size(), 2u);

  ParticleSystem blowup = random_state(8, 13);
  blowup.forces[0] = {1e9, 0.0, 0.0};
  Guardrail guard2{GuardrailConfig{}};
  EXPECT_EQ(guard2.check(blowup, report, 1).size(), 1u);
}

TEST(Guardrail, FlagsFixedPointOverflow) {
  ParticleSystem sys = random_state(8, 14);
  GuardrailConfig cfg;
  cfg.check_fixed_overflow = true;
  cfg.fixed_format = FixedFormat{16, 8};  // tiny: max ~127.996
  sys.forces[2] = {500.0, 0.0, 0.0};      // fits the default max_force, not Q8.8
  Guardrail guard{cfg};
  const auto bad = guard.check(sys, StepReport{}, 1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].what.find("saturate"), std::string::npos);
}

TEST(Guardrail, FlagsEnergyDrift) {
  const ParticleSystem sys = random_state(8, 15);
  GuardrailConfig cfg;
  cfg.energy_drift_tol = 0.01;
  Guardrail guard{cfg};
  StepReport report{};
  report.kinetic = 100.0;
  EXPECT_TRUE(guard.check(sys, report, 1).empty());  // establishes reference
  report.kinetic = 100.5;
  EXPECT_TRUE(guard.check(sys, report, 2).empty());  // within 1%
  report.kinetic = 110.0;
  EXPECT_EQ(guard.check(sys, report, 3).size(), 1u);  // 10% drift
}

// --- guarded step driver -----------------------------------------------------

// One guarded run of `steps` steps through the driver.
SimulationResult run_steps(MdSetup& md, std::uint64_t steps,
                           SimulationParams params) {
  Simulation sim(md.wb.system, md.wb.topology, md.ff, md.integrator,
                 std::move(params));
  return sim.run(steps);
}

TEST(GuardedRun, HealthyRunCompletesAndCheckpoints) {
  MdSetup md = make_md();
  SimulationParams params;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-healthy.ckpt");
  params.checkpoint_interval = 2;
  const SimulationResult result = run_steps(md, 6, params);
  EXPECT_EQ(result.steps_completed, 6u);
  EXPECT_EQ(result.recoveries, 0);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.violation_count, 0u);
  const Checkpoint last = read_checkpoint(params.checkpoint_path);
  EXPECT_EQ(last.step, 6u);
  std::remove(params.checkpoint_path.c_str());
}

TEST(GuardedRun, AbortPolicyStopsOnInjectedNan) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kAbort;
  params.fault_hook = [](std::uint64_t step, ParticleSystem& sys) {
    if (step == 4) {
      sys.velocities[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const SimulationResult result = run_steps(md, 10, params);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.steps_completed, 3u);
  EXPECT_GT(result.violation_count, 0u);
}

TEST(GuardedRun, RecoverPolicyRollsBackToCheckpointAndFinishes) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecover;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-recover.ckpt");
  params.checkpoint_interval = 2;
  bool injected = false;
  params.fault_hook = [&injected](std::uint64_t step, ParticleSystem& sys) {
    if (step == 5 && !injected) {
      injected = true;  // transient fault: one corrupted force evaluation
      sys.positions[2].z = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const SimulationResult result = run_steps(md, 8, params);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.steps_completed, 8u);
  EXPECT_EQ(result.recoveries, 1);
  EXPECT_GT(result.violation_count, 0u);
  std::remove(params.checkpoint_path.c_str());

  // The recovered trajectory matches an undisturbed one bitwise: the
  // rollback restored the exact step-4 state.
  MdSetup clean = make_md();
  SimulationParams quiet;
  const SimulationResult clean_result = run_steps(clean, 8, quiet);
  EXPECT_EQ(clean_result.steps_completed, 8u);
  expect_bitwise_equal(md.wb.system, clean.wb.system);
}

TEST(GuardedRun, RecoverWithoutCheckpointPathAborts) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecover;  // but no path set
  params.fault_hook = [](std::uint64_t step, ParticleSystem& sys) {
    if (step == 2) sys.velocities[0].x = std::numeric_limits<double>::quiet_NaN();
  };
  const SimulationResult result = run_steps(md, 5, params);
  EXPECT_TRUE(result.aborted);
}

TEST(GuardedRun, RecomputePolicyRetriesTransientFaultInPlace) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecompute;
  params.watchdog_timeout_s = 30.0;  // generous: must never fire here
  bool injected = false;
  params.fault_hook = [&injected](std::uint64_t step, ParticleSystem& sys) {
    if (step == 4 && !injected) {
      injected = true;  // transient upset: one corrupted step input
      sys.velocities[1].y = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const SimulationResult result = run_steps(md, 8, params);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.steps_completed, 8u);
  EXPECT_EQ(result.step_recomputes, 1u);
  EXPECT_EQ(result.recoveries, 0);  // no rollback, no checkpoint needed
  EXPECT_GT(result.violation_count, 0u);
  EXPECT_FALSE(result.watchdog_fired);

  // The localized recompute restored the exact pre-step state, so the whole
  // trajectory is bitwise identical to an undisturbed run.
  MdSetup clean = make_md();
  SimulationParams quiet;
  const SimulationResult clean_result = run_steps(clean, 8, quiet);
  EXPECT_EQ(clean_result.steps_completed, 8u);
  expect_bitwise_equal(md.wb.system, clean.wb.system);
}

TEST(GuardedRun, RecomputeBudgetExhaustionEscalatesToRollback) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecompute;
  params.max_step_recomputes = 0;  // force the escalation path
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-escalate.ckpt");
  params.checkpoint_interval = 2;
  bool injected = false;
  params.fault_hook = [&injected](std::uint64_t step, ParticleSystem& sys) {
    if (step == 5 && !injected) {
      injected = true;
      sys.positions[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const SimulationResult result = run_steps(md, 8, params);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.steps_completed, 8u);
  EXPECT_EQ(result.step_recomputes, 0u);
  EXPECT_EQ(result.recoveries, 1);  // rung above recompute
  std::remove(params.checkpoint_path.c_str());

  // With no checkpoint to fall back on, the same exhaustion aborts.
  MdSetup bare = make_md();
  SimulationParams no_ckpt;
  no_ckpt.guardrail.policy = GuardrailPolicy::kRecompute;
  no_ckpt.max_step_recomputes = 0;
  no_ckpt.fault_hook = [](std::uint64_t step, ParticleSystem& sys) {
    if (step == 2) sys.forces[0].x = std::numeric_limits<double>::quiet_NaN();
  };
  const SimulationResult bare_result = run_steps(bare, 5, no_ckpt);
  EXPECT_TRUE(bare_result.aborted);
}

TEST(GuardedRun, PersistentFaultExhaustsRecoveryBudget) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecover;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-persistent.ckpt");
  params.checkpoint_interval = 2;
  params.max_recoveries = 2;
  params.fault_hook = [](std::uint64_t step, ParticleSystem& sys) {
    // Deterministic fault that reappears after every rollback.
    if (step == 3) sys.forces[0].x = std::numeric_limits<double>::quiet_NaN();
  };
  const SimulationResult result = run_steps(md, 6, params);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.recoveries, 2);
  std::remove(params.checkpoint_path.c_str());
}

TEST(GuardedRun, ZeroCheckpointIntervalWritesOnlyTheStepZeroGeneration) {
  MdSetup md = make_md();
  SimulationParams params;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-zero.ckpt");
  params.checkpoint_interval = 0;  // no cadence writes
  const SimulationResult result = run_steps(md, 4, params);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.steps_completed, 4u);
  EXPECT_EQ(result.checkpoint_writes, 1u);
  EXPECT_EQ(read_checkpoint(params.checkpoint_path).step, 0u);
  EXPECT_FALSE(std::ifstream(params.checkpoint_path + ".1").good());
}

// run() calls its observer once per completed step, in step order, with the
// driver's own report and the caller's system; a second run() continues.
TEST(GuardedRun, RunObservesEachCompletedStepInOrder) {
  MdSetup md = make_md();
  Simulation sim(md.wb.system, md.wb.topology, md.ff, md.integrator,
                 SimulationParams{});
  std::vector<std::uint64_t> seen;
  double last_total = 0.0;
  const Simulation::StepObserver observe =
      [&](std::uint64_t step, const StepReport& report,
          const ParticleSystem& system) {
        seen.push_back(step);
        last_total = report.total();
        EXPECT_EQ(&system, &md.wb.system);
      };
  sim.run(3, observe);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  const SimulationResult& result = sim.run(5, observe);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(result.steps_completed, 5u);
  EXPECT_EQ(last_total, result.last_report.total());
}

// A rollback is not a completed step: the failed step is never observed, and
// the steps re-run after the restore are observed again as they complete.
TEST(GuardedRun, RunDoesNotObserveARollback) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecover;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-observe.ckpt");
  params.checkpoint_interval = 3;
  bool injected = false;
  params.fault_hook = [&injected](std::uint64_t step, ParticleSystem& sys) {
    if (step == 5 && !injected) {
      injected = true;
      sys.positions[2].z = std::numeric_limits<double>::quiet_NaN();
    }
  };
  Simulation sim(md.wb.system, md.wb.topology, md.ff, md.integrator, params);
  std::vector<std::uint64_t> seen;
  const SimulationResult& result = sim.run(
      7, [&seen](std::uint64_t step, const StepReport&, const ParticleSystem&) {
        seen.push_back(step);
      });
  EXPECT_EQ(result.recoveries, 1);
  EXPECT_EQ(result.steps_completed, 7u);
  // Step 5 failed and rolled back to the step-3 generation; 4 re-ran.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 4, 5, 6, 7}));
}

// A full disk refuses one cadence write; the run survives it, and a later
// transient fault rolls back over the missing generation to the one before.
TEST(GuardedRun, RefusedCheckpointWriteIsSurvivedAndRolledBackOver) {
  MdSetup md = make_md();
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kRecover;
  const ScratchDir dir;
  params.checkpoint_path = dir.file("guarded-enospc.ckpt");
  params.checkpoint_interval = 2;
  io::IoShim& shim = io::IoShim::instance();
  std::vector<std::uint64_t> steps_seen;
  params.fault_hook = [&](std::uint64_t step, ParticleSystem& sys) {
    steps_seen.push_back(step);
    if (steps_seen.size() == 4) {  // the step-4 write hits ENOSPC
      io::IoFaultPlan plan;
      plan.path_substring = "guarded-enospc.ckpt";
      plan.enospc_after_bytes = 64;
      shim.arm(plan);
    } else if (steps_seen.size() == 5) {  // transient NaN in step 5
      shim.disarm();
      sys.positions[2].z = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const SimulationResult result = run_steps(md, 8, params);
  shim.disarm();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.steps_completed, 8u);
  EXPECT_EQ(result.checkpoint_write_failures, 1u);
  EXPECT_EQ(result.recoveries, 1);
  // Rolled back to the step-2 generation: step 3 is the next one computed.
  ASSERT_GE(steps_seen.size(), 6u);
  EXPECT_EQ(steps_seen[5], 3u);

  MdSetup clean = make_md();
  const SimulationResult clean_result = run_steps(clean, 8, SimulationParams{});
  EXPECT_EQ(clean_result.steps_completed, 8u);
  expect_bitwise_equal(md.wb.system, clean.wb.system);
}

}  // namespace
}  // namespace tme
