// The shared byte layer: util/bytes (bounded Writer/Reader, CRC seal) and
// util/io_shim's durable whole-file writer, plus the formats built on them.
// Golden hashes pin checkpoint v1, the sealed context file and transport
// frames to the bytes they had before the codecs were merged, so a codec
// refactor cannot silently change what is on disk or on the wire.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "md/checkpoint.hpp"
#include "par/transport.hpp"
#include "par/worker.hpp"
#include "scratch_dir.hpp"
#include "util/bytes.hpp"
#include "util/io_shim.hpp"

namespace tme {
namespace {

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool exists(const std::string& path) { return std::ifstream(path).good(); }

std::vector<std::uint8_t> sealed_sample() {
  bytes::Writer w;
  w.u32(0x12345678u);
  w.f64(-2.5);
  w.doubles({1.0, 2.0, 3.0});
  bytes::seal(w);
  return w.take();
}

// --- Writer / Reader / seal --------------------------------------------------

TEST(ByteCodec, RoundTripsScalarsAndArrays) {
  bytes::Writer w;
  w.u16(7);
  w.u32(0xDEADBEEFu);
  w.u64(1ull << 40);
  w.i64(-3);
  w.f64(0.125);
  w.doubles({});
  w.vec3s({{1.0, 2.0, 3.0}, {-4.0, 5.5, 6.25}});
  const std::vector<std::uint8_t> out = w.take();
  EXPECT_EQ(out.size(), 2u + 4 + 8 + 8 + 8 + 8 + 8 + 2 * 24);

  bytes::Reader r(out);
  EXPECT_EQ(r.u16(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i64(), -3);
  EXPECT_EQ(r.f64(), 0.125);
  EXPECT_TRUE(r.doubles().empty());
  const std::vector<Vec3> v = r.vec3s();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1].y, 5.5);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u16(), bytes::Error);
}

TEST(ByteCodec, UnsealReturnsTheBodyItCovers) {
  const std::vector<std::uint8_t> sealed = sealed_sample();
  const std::span<const std::uint8_t> body = bytes::unseal(sealed);
  EXPECT_EQ(body.size(), sealed.size() - bytes::kSealBytes);
  EXPECT_EQ(body.data(), sealed.data());
  bytes::Reader r(body);
  EXPECT_EQ(r.u32(), 0x12345678u);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.doubles(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.done());

  // An empty body seals too: the seal alone is a valid sealed buffer.
  bytes::Writer empty;
  bytes::seal(empty);
  EXPECT_TRUE(bytes::unseal(empty.bytes()).empty());
}

TEST(ByteCodec, UnsealRejectsEverySingleBitFlip) {
  const std::vector<std::uint8_t> sealed = sealed_sample();
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = sealed;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(bytes::unseal(bad), bytes::Error) << "bit " << bit;
  }
}

TEST(ByteCodec, UnsealRejectsEveryTruncation) {
  const std::vector<std::uint8_t> sealed = sealed_sample();
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const std::span<const std::uint8_t> torn(sealed.data(), len);
    EXPECT_THROW(bytes::unseal(torn), bytes::Error) << "length " << len;
  }
}

TEST(ByteCodec, ReaderBoundsLyingCountsBeforeAllocating) {
  bytes::Writer w;
  w.u64(2);  // claims two doubles, carries one
  w.f64(1.0);
  bytes::Reader r(w.bytes());
  EXPECT_THROW(r.doubles(), bytes::Error);

  bytes::Writer v;
  v.u64(~0ull);
  bytes::Reader rv(v.bytes());
  EXPECT_THROW(rv.vec3s(), bytes::Error);
  bytes::Reader rc(v.bytes());
  EXPECT_THROW(rc.count(1000), bytes::Error);
}

// --- durable whole-file write ------------------------------------------------

TEST(DurableFile, WritesReadsAndReplacesWholeFiles) {
  const ScratchDir dir;
  const std::string path = dir.file("blob.bin");
  const std::vector<std::uint8_t> first = sealed_sample();
  io::write_file_durable(path, first);
  EXPECT_EQ(io::read_file(path), first);
  EXPECT_FALSE(exists(path + ".tmp"));

  io::write_file_durable(path, std::string("replaced\n"));
  const std::vector<std::uint8_t> back = io::read_file(path);
  EXPECT_EQ(std::string(back.begin(), back.end()), "replaced\n");

  io::write_file_durable(path, std::vector<std::uint8_t>{});
  EXPECT_TRUE(io::read_file(path).empty());
}

TEST(DurableFile, ReadOfMissingFileIsTypedOpenError) {
  const ScratchDir dir;
  try {
    io::read_file(dir.file("absent.bin"));
    ADD_FAILURE() << "read of a missing file succeeded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.step(), io::IoStep::kOpen);
    EXPECT_EQ(e.error(), ENOENT);
  }
}

TEST(DurableFile, EnospcMidWriteIsTypedAndKeepsThePreviousFile) {
  const ScratchDir dir;
  const std::string path = dir.file("full.bin");
  const std::vector<std::uint8_t> old_bytes = {1, 2, 3};
  io::write_file_durable(path, old_bytes);

  io::IoFaultPlan plan;
  plan.path_substring = "full.bin";
  plan.enospc_after_bytes = 10;
  io::ScopedIoFaults armed(plan);
  try {
    io::write_file_durable(path, std::vector<std::uint8_t>(64, 7));
    ADD_FAILURE() << "ENOSPC write succeeded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.step(), io::IoStep::kWrite);
    EXPECT_EQ(e.error(), ENOSPC);
  }
  EXPECT_FALSE(exists(path + ".tmp"));
  EXPECT_EQ(io::read_file(path), old_bytes);
}

// A write() that keeps accepting nothing without an error: after eight such
// calls the writer gives up with ENOSPC instead of spinning.
TEST(DurableFile, ZeroProgressWritesAreTypedEnospcAndKeepThePreviousFile) {
  const ScratchDir dir;
  const std::string path = dir.file("stuck.bin");
  const std::vector<std::uint8_t> old_bytes = {4, 5, 6};
  io::write_file_durable(path, old_bytes);

  io::IoFaultPlan plan;
  plan.path_substring = "stuck.bin";
  plan.zero_progress_writes = true;
  io::IoShim::instance().reset_stats();
  {
    io::ScopedIoFaults armed(plan);
    try {
      io::write_file_durable(path, std::vector<std::uint8_t>(64, 7));
      ADD_FAILURE() << "zero-progress write succeeded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.step(), io::IoStep::kWrite);
      EXPECT_EQ(e.error(), ENOSPC);
    }
  }
  EXPECT_EQ(io::IoShim::instance().stats().injected_zero_writes, 8u);
  EXPECT_FALSE(exists(path + ".tmp"));
  EXPECT_EQ(io::read_file(path), old_bytes);
}

TEST(DurableFile, FsyncAndRenameFailuresNameTheirStep) {
  const ScratchDir dir;
  const std::string path = dir.file("step.bin");
  const std::vector<std::uint8_t> data(32, 5);
  {
    io::IoFaultPlan plan;
    plan.path_substring = "step.bin";
    plan.fail_fsync = true;
    io::ScopedIoFaults armed(plan);
    try {
      io::write_file_durable(path, data);
      ADD_FAILURE() << "fsync-failure write succeeded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.step(), io::IoStep::kFsync);
      EXPECT_EQ(e.error(), EIO);
    }
  }
  {
    io::IoFaultPlan plan;
    plan.path_substring = "step.bin";
    plan.fail_rename = true;
    io::ScopedIoFaults armed(plan);
    try {
      io::write_file_durable(path, data);
      ADD_FAILURE() << "rename-failure write succeeded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.step(), io::IoStep::kRename);
    }
  }
  EXPECT_FALSE(exists(path + ".tmp"));
  EXPECT_FALSE(exists(path));
}

// --- golden bytes ------------------------------------------------------------

ParticleSystem golden_system() {
  ParticleSystem sys;
  sys.box.lengths = {1.5, 2.0, 2.5};
  for (int i = 0; i < 3; ++i) {
    const double d = i;
    sys.positions.push_back({0.1 + d, 0.2 + d, 0.3 + d});
    sys.velocities.push_back({-0.5 * d, 0.25, 1e-3 * d});
    sys.forces.push_back({10.0 + d, -20.0, 0.125 * d});
    sys.masses.push_back(i == 0 ? 16.0 : 1.0);
    sys.charges.push_back(i == 0 ? -0.834 : 0.417);
  }
  return sys;
}

par::WorkerContext golden_context() {
  par::WorkerContext ctx;
  ctx.pipeline.box.lengths = {3.2, 3.2, 6.4};
  ctx.pipeline.h = {0.2, 0.2, 0.4};
  ctx.pipeline.p = 6;
  ctx.pipeline.fine_global = {16, 16, 16};
  ctx.pipeline.j_coeff = {0.25, 0.5, 1.0, 0.5, 0.25};
  Kernel1d k;
  k.cutoff = 2;
  k.taps = {0.1, 0.2, 0.4, 0.2, 0.1};
  ctx.pipeline.kernels = {{SeparableTerm{k, k, k}, SeparableTerm{k, k, k}}};
  ctx.rank = 3;
  ctx.workers = 5;
  ctx.fault.crash_after_tasks = 7;
  ctx.fault.delay_ms = 11;
  return ctx;
}

TEST(GoldenBytes, CheckpointContextFileAndFramesKeepTheirFormat) {
  const ScratchDir dir;
  const ParticleSystem sys = golden_system();
  const std::string ckpt = dir.file("golden.ckpt");
  write_checkpoint(ckpt, sys, 42);
  const std::vector<std::uint8_t> ckpt_bytes = io::read_file(ckpt);
  EXPECT_EQ(ckpt_bytes.size(), 320u);
  EXPECT_EQ(fnv1a64(ckpt_bytes), 0x6554e9dbc97ff7f9ull);
  const Checkpoint back = read_checkpoint(ckpt);
  EXPECT_EQ(back.step, 42u);
  EXPECT_EQ(back.system.charges, sys.charges);

  const std::vector<std::uint8_t> ctx = par::encode_context(golden_context());
  EXPECT_EQ(fnv1a64(ctx), 0x5ee9328d74435614ull);
  const std::string ctx_path = dir.file("golden.ctx");
  par::write_context_file(ctx_path, ctx);
  const std::vector<std::uint8_t> ctx_file = io::read_file(ctx_path);
  EXPECT_EQ(ctx_file.size(), 540u);
  EXPECT_EQ(fnv1a64(ctx_file), 0x60bb00418a691cb8ull);
  EXPECT_EQ(par::read_context_file(ctx_path), ctx);

  par::Message m;
  m.type = par::MsgType::kInit;
  m.payload = ctx;
  const std::vector<std::uint8_t> frame = par::encode_frame(m, 7);
  EXPECT_EQ(frame.size(), 552u);
  EXPECT_EQ(fnv1a64(frame), 0x09db2db388435d68ull);
  par::Message empty;
  empty.type = par::MsgType::kShutdown;
  const std::vector<std::uint8_t> bare = par::encode_frame(empty, 0);
  EXPECT_EQ(bare.size(), 28u);
  EXPECT_EQ(fnv1a64(bare), 0xbb94f52aa6fb3df6ull);
}

// --- context file under injected IO faults -----------------------------------

TEST(ContextFileIo, EnospcMidWriteIsTypedAndLeavesNoTemp) {
  const ScratchDir dir;
  const std::string path = dir.file("enospc.ctx");
  const std::vector<std::uint8_t> ctx = par::encode_context(golden_context());
  par::write_context_file(path, ctx);

  io::IoFaultPlan plan;
  plan.path_substring = "enospc.ctx";
  plan.enospc_after_bytes = 100;  // the sealed file is 540 B: fails mid-write
  io::ScopedIoFaults armed(plan);
  EXPECT_THROW(par::write_context_file(path, ctx), par::TransportError);
  EXPECT_FALSE(exists(path + ".tmp"));
  EXPECT_EQ(par::read_context_file(path), ctx);  // previous file intact
}

TEST(ContextFileIo, MissingFileIsTransportError) {
  const ScratchDir dir;
  EXPECT_THROW(par::read_context_file(dir.file("absent.ctx")),
               par::TransportError);
}

}  // namespace
}  // namespace tme
