// Transport, worker protocol and WorkerFleet tests: frame codec integrity
// and — the heart of this tier — bitwise force parity between the inline
// SerialExecutor and worker processes (forked or exec'd), under packet loss,
// frame corruption, crashes, hangs and SIGKILL-mid-run drills.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/splitting.hpp"
#include "par/fleet.hpp"
#include "par/health.hpp"
#include "par/par_tme.hpp"
#include "par/proc_transport.hpp"
#include "par/transport.hpp"
#include "par/worker.hpp"
#include "scratch_dir.hpp"
#include "util/bytes.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace tme::par {
namespace {

// --- shared fixtures ---------------------------------------------------------

struct TestSystem {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

TestSystem random_system(std::size_t n, double box_length, std::uint64_t seed) {
  TestSystem sys;
  sys.box.lengths = {box_length, box_length, box_length};
  Rng rng(seed);
  sys.positions.resize(n);
  sys.charges.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, box_length),
                        rng.uniform(0.0, box_length),
                        rng.uniform(0.0, box_length)};
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    total += sys.charges[i];
  }
  for (auto& q : sys.charges) q -= total / static_cast<double>(n);
  return sys;
}

TmeParams small_params() {
  TmeParams tp;
  tp.alpha = alpha_from_tolerance(0.8, 1e-4);
  tp.grid = {16, 16, 16};
  tp.levels = 1;
  tp.grid_cutoff = 4;
  tp.num_gaussians = 3;
  return tp;
}

void expect_bitwise(const CoulombResult& want, const CoulombResult& got) {
  ASSERT_EQ(want.forces.size(), got.forces.size());
  EXPECT_EQ(want.energy, got.energy);
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    ASSERT_EQ(want.forces[i].x, got.forces[i].x) << "atom " << i;
    ASSERT_EQ(want.forces[i].y, got.forces[i].y) << "atom " << i;
    ASSERT_EQ(want.forces[i].z, got.forces[i].z) << "atom " << i;
  }
}

// Serial (fault-free, in-process) reference for a system/topology pair.
CoulombResult serial_reference(const TestSystem& sys,
                               const hw::TorusTopology& topo) {
  ParallelTme par(sys.box, small_params(), topo);
  TrafficLog log;
  return par.compute(sys.positions, sys.charges, &log);
}

// Runs the same pipeline with a WorkerFleet executor.
CoulombResult fleet_run(const TestSystem& sys, const hw::TorusTopology& topo,
                        FleetConfig cfg, FleetStats* stats_out = nullptr,
                        TransportStats* tstats_out = nullptr) {
  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), std::move(cfg));
  par.set_executor(&fleet);
  TrafficLog log;
  CoulombResult res = par.compute(sys.positions, sys.charges, &log);
  if (stats_out != nullptr) *stats_out = fleet.stats();
  if (tstats_out != nullptr) *tstats_out = fleet.transport_stats();
  return res;
}

// --- frame codec -------------------------------------------------------------

TEST(FrameCodec, RoundTripPreservesTypeSeqAndPayload) {
  Message m;
  m.type = MsgType::kTask;
  m.payload = {1, 2, 3, 250, 5};
  const std::vector<std::uint8_t> frame = encode_frame(m, 42);
  EXPECT_EQ(frame.size(),
            kFrameHeaderBytes + m.payload.size() + kFrameTrailerBytes);
  Message out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, MsgType::kTask);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.payload, m.payload);
}

TEST(FrameCodec, PayloadlessFrameRoundTrips) {
  Message m;
  m.type = MsgType::kPing;
  const std::vector<std::uint8_t> frame = encode_frame(m, 7);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + kFrameTrailerBytes);
  Message out;
  out.payload = {9, 9};
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, MsgType::kPing);
  EXPECT_EQ(out.seq, 7u);
  EXPECT_TRUE(out.payload.empty());
}

TEST(FrameCodec, PartialFrameAsksForMoreBytes) {
  Message m;
  m.type = MsgType::kPing;
  m.payload.assign(100, 7);
  const std::vector<std::uint8_t> frame = encode_frame(m, 0);
  Message out;
  std::size_t consumed = 9;
  EXPECT_EQ(decode_frame(frame.data(), kFrameHeaderBytes - 1, out, consumed),
            DecodeStatus::kNeedMore);
  EXPECT_EQ(decode_frame(frame.data(), frame.size() - 1, out, consumed),
            DecodeStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameCodec, FlippedBitIsRejectedWholeFrame) {
  Message m;
  m.type = MsgType::kResult;
  m.payload.assign(64, 9);
  std::vector<std::uint8_t> frame = encode_frame(m, 3);
  frame[kFrameHeaderBytes + 10] ^= 0x20;
  Message out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, consumed),
            DecodeStatus::kBadCrc);
  // The whole frame is consumed so the stream stays in sync.
  EXPECT_EQ(consumed, frame.size());
}

TEST(FrameCodec, BadMagicAndOversizedLengthThrow) {
  Message m;
  m.type = MsgType::kPong;
  std::vector<std::uint8_t> frame = encode_frame(m, 1);
  std::vector<std::uint8_t> mangled = frame;
  mangled[0] ^= 0xFF;
  Message out;
  std::size_t consumed = 0;
  EXPECT_THROW(decode_frame(mangled.data(), mangled.size(), out, consumed),
               TransportError);
  std::vector<std::uint8_t> oversized = frame;
  const std::uint64_t huge = kMaxPayloadBytes + 1;
  std::memcpy(oversized.data() + 16, &huge, 8);
  EXPECT_THROW(decode_frame(oversized.data(), oversized.size(), out, consumed),
               TransportError);
}

TEST(Wire, ReaderRejectsOverrunAndInsaneCounts) {
  bytes::Writer w;
  w.u64(3);
  w.f64(1.0);
  const std::vector<std::uint8_t> bytes = w.bytes();
  bytes::Reader r(bytes);
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.f64(), bytes::Error);

  // A claimed element count far beyond the remaining bytes must fail before
  // any allocation is sized from it.
  bytes::Writer w2;
  w2.u64(1ull << 60);
  bytes::Reader r2(w2.bytes());
  EXPECT_THROW(r2.doubles(), bytes::Error);
}

// --- worker context + sealed context file ------------------------------------

WorkerContext sample_context() {
  WorkerContext ctx;
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

TEST(WorkerProtocol, ContextRoundTrips) {
  const WorkerContext ctx = sample_context();
  const WorkerContext back = decode_context(encode_context(ctx));
  EXPECT_EQ(back.rank, 3u);
  EXPECT_EQ(back.workers, 5u);
  EXPECT_EQ(back.fault.crash_after_tasks, 7);
  EXPECT_EQ(back.fault.hang_after_tasks, -1);
  EXPECT_EQ(back.fault.delay_ms, 11);
  EXPECT_EQ(back.pipeline.p, 6);
  EXPECT_EQ(back.pipeline.fine_global, (GridDims{16, 16, 16}));
  EXPECT_EQ(back.pipeline.j_coeff, ctx.pipeline.j_coeff);
  ASSERT_EQ(back.pipeline.kernels.size(), 1u);
  ASSERT_EQ(back.pipeline.kernels[0].size(), 2u);
  EXPECT_EQ(back.pipeline.kernels[0][1].ky.taps, ctx.pipeline.kernels[0][1].ky.taps);
  EXPECT_EQ(back.pipeline.box.lengths.z, 6.4);
}

TEST(WorkerProtocol, TruncatedContextIsRejected) {
  std::vector<std::uint8_t> bytes = encode_context(sample_context());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_context(bytes), std::runtime_error);
}

TEST(WorkerProtocol, ContextFileSealCatchesTornWrites) {
  const ScratchDir dir;
  const std::string path = dir.file("ctx.seal");
  const std::vector<std::uint8_t> payload = encode_context(sample_context());
  write_context_file(path, payload);
  EXPECT_EQ(read_context_file(path), payload);

  // Torn write: drop the tail.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - bytes.size() / 3));
  }
  EXPECT_THROW(read_context_file(path), TransportError);

  // Bit rot under an intact length: the seal must catch it.
  write_context_file(path, payload);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(20);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  EXPECT_THROW(read_context_file(path), TransportError);
}

// --- fleet parity ------------------------------------------------------------

TEST(FleetParity, UnevenWorkerCountStillBitwise) {
  const hw::TorusTopology topo(2, 2, 1);  // 4 nodes over 3 workers
  const TestSystem sys = random_system(120, 3.2, 13);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 3;
  expect_bitwise(want, fleet_run(sys, topo, cfg));
}

TEST(FleetParity, ForkedProcessWorkersMatchSerialBitwise) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(150, 3.2, 11);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  FleetStats stats;
  TransportStats tstats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats, &tstats);
  expect_bitwise(want, got);
  EXPECT_GT(stats.tasks_sent, 0u);
  EXPECT_EQ(stats.results_received, stats.tasks_sent);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_GT(tstats.messages_sent, 0u);
  EXPECT_GT(tstats.bytes_received, 0u);
}

TEST(FleetParity, ExecModeWorkerBinaryMatchesSerialBitwise) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(100, 3.2, 17);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = TME_WORKER_BIN;
  expect_bitwise(want, fleet_run(sys, topo, cfg));
}

// --- network fault drills ----------------------------------------------------

TEST(FleetFaults, PacketLossIsRetransmittedAndStaysBitwise) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(120, 3.2, 19);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.timeout_ms = 80;
  cfg.backoff_base_ms = 5;
  cfg.max_retries = 10;
  cfg.net_fault.drop_rate = 0.20;
  cfg.net_fault.seed = 99;
  FleetStats stats;
  TransportStats tstats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats, &tstats);
  expect_bitwise(want, got);
  EXPECT_GT(tstats.frames_dropped, 0u);
  EXPECT_GT(stats.retransmissions, 0u);
}

TEST(FleetFaults, CorruptedFramesAreCrcRejectedAndRecovered) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(120, 3.2, 23);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.timeout_ms = 80;
  cfg.backoff_base_ms = 5;
  cfg.max_retries = 10;
  cfg.net_fault.corrupt_rate = 0.15;
  cfg.net_fault.seed = 7;
  FleetStats stats;
  TransportStats tstats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats, &tstats);
  expect_bitwise(want, got);
  EXPECT_GT(tstats.frames_corrupted, 0u);
  EXPECT_GT(stats.retransmissions, 0u);
}

// --- process fault drills ----------------------------------------------------

TEST(FleetFaults, CrashedWorkerRespawnsFromSealedContextBitwise) {
  const ScratchDir dir;
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(120, 3.2, 29);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.context_path = dir.file("crash_drill.ctx");
  cfg.worker_faults.resize(2);
  cfg.worker_faults[1].crash_after_tasks = 3;
  FleetStats stats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats);
  expect_bitwise(want, got);
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_GE(stats.reinits, 3u);  // 2 boot inits + at least one re-init
}

TEST(FleetFaults, HungWorkerIsDeclaredDeadAndWorkRehomed) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(100, 3.2, 31);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.timeout_ms = 60;
  cfg.backoff_base_ms = 5;
  cfg.max_retries = 2;
  cfg.respawn = false;  // force the re-homing path to carry the whole run
  cfg.worker_faults.resize(2);
  cfg.worker_faults[1].hang_after_tasks = 2;
  FleetStats stats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats);
  expect_bitwise(want, got);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.rehomed_tasks, 0u);
  EXPECT_GT(stats.retransmissions, 0u);  // deadline fired before the verdict
}

TEST(FleetFaults, SlowWorkerOnlyStretchesWallClock) {
  const hw::TorusTopology topo(2, 1, 1);
  const TestSystem sys = random_system(80, 3.2, 37);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.timeout_ms = 2000;  // generous: the straggler must not be declared dead
  cfg.worker_faults.resize(2);
  cfg.worker_faults[1].delay_ms = 3;
  FleetStats stats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats);
  expect_bitwise(want, got);
  EXPECT_EQ(stats.worker_deaths, 0u);
}

// The acceptance drill: a real process worker SIGKILLs itself mid-step; the
// coordinator detects the EOF, restarts the worker from the CRC-sealed
// context checkpoint, re-homes/retransmits the lost tasks, and the final
// forces are bitwise identical to the fault-free serial run.
TEST(FleetFaults, ProcWorkerSigkillMidRunRecoversBitwise) {
  const ScratchDir dir;
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(120, 3.2, 41);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.context_path = dir.file("sigkill_drill.ctx");
  cfg.worker_faults.resize(2);
  cfg.worker_faults[1].crash_after_tasks = 2;  // raise(SIGKILL) in the child

  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  const pid_t first_pid = fleet.worker_pid(1);
  ASSERT_GT(first_pid, 0);
  par.set_executor(&fleet);
  TrafficLog log;
  const CoulombResult got = par.compute(sys.positions, sys.charges, &log);
  expect_bitwise(want, got);
  EXPECT_GE(fleet.stats().worker_deaths, 1u);
  EXPECT_GE(fleet.stats().respawns, 1u);
  // The respawned worker is a different process.
  EXPECT_NE(fleet.worker_pid(1), first_pid);
  EXPECT_GT(fleet.worker_pid(1), 0);
}

TEST(FleetFaults, KillingEveryWorkerIsRefused) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(80, 3.2, 43);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.respawn = false;
  cfg.worker_faults.resize(2);
  cfg.worker_faults[0].crash_after_tasks = 0;
  cfg.worker_faults[1].crash_after_tasks = 0;
  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  par.set_executor(&fleet);
  TrafficLog log;
  // Both workers die on their first task: with no survivor left to host
  // their nodes, dispatch refuses to go on.
  EXPECT_THROW(par.compute(sys.positions, sys.charges, &log),
               std::runtime_error);
}

// Worker 0 hosts nodes 0 and 3 of the 2x2x1 torus.  When it dies for good,
// both nodes move to the two survivors over the coordinator star; the
// simulated torus's connectivity plays no part in who can host them.
TEST(FleetFaults, ThreeWorkersSurviveLosingAMultiNodeWorker) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(100, 3.2, 71);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 3;
  cfg.respawn = false;
  cfg.worker_faults.resize(3);
  cfg.worker_faults[0].crash_after_tasks = 0;
  FleetStats stats;
  const CoulombResult got = fleet_run(sys, topo, cfg, &stats);
  expect_bitwise(want, got);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.rehomed_tasks, 0u);
}

// --- heartbeats + health wiring ---------------------------------------------

TEST(FleetHeartbeat, PongsCountAndDeathsFeedTheHealthMonitor) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(60, 3.2, 47);
  ParallelTme par(sys.box, small_params(), topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.respawn = false;
  cfg.timeout_ms = 300;
  WorkerFleet fleet(par.context(), par.topology(), cfg);

  hw::FaultInjector monitor_faults;
  HealthMonitor monitor(par.topology(), monitor_faults, HealthConfig{3});
  fleet.set_health_monitor(&monitor);

  EXPECT_EQ(fleet.heartbeat(std::chrono::milliseconds(500)), 2u);
  EXPECT_EQ(fleet.stats().heartbeats_sent, 2u);
  EXPECT_EQ(fleet.stats().heartbeats_missed, 0u);

  fleet.kill_worker(1);
  EXPECT_LE(fleet.heartbeat(std::chrono::milliseconds(300)), 1u);
  EXPECT_FALSE(fleet.worker_alive(1));
  EXPECT_GE(monitor.violations(1), 1u);
  EXPECT_GE(fleet.stats().worker_deaths, 1u);
}

// Runs `body` with HOSTILE_WORKER_MODE set, so exec'd hostile workers
// inherit it.
template <typename Body>
void with_hostile_mode(const char* mode, Body&& body) {
  ::setenv("HOSTILE_WORKER_MODE", mode, 1);
  body();
  ::unsetenv("HOSTILE_WORKER_MODE");
}

TEST(FleetHandshake, ShortPaddedOrWrongCrcInitAckRefusesTheWorker) {
  const hw::TorusTopology topo(2, 1, 1);
  const TestSystem sys = random_system(20, 3.2, 53);
  ParallelTme par(sys.box, small_params(), topo);
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.respawn = false;
  cfg.timeout_ms = 2000;
  cfg.worker_bin = HOSTILE_WORKER_BIN;
  for (const char* mode : {"short", "padded", "crc"}) {
    with_hostile_mode(mode, [&] {
      try {
        WorkerFleet fleet(par.context(), par.topology(), cfg);
        ADD_FAILURE() << mode << ": the fleet accepted a malformed InitAck";
      } catch (const TransportError& e) {
        EXPECT_NE(std::string(e.what()).find("failed the init handshake"),
                  std::string::npos)
            << mode << ": " << e.what();
      }
    });
  }
}

TEST(FleetHandshake, ShortPongCountsAsAMissedHeartbeat) {
  const hw::TorusTopology topo(2, 1, 1);
  const TestSystem sys = random_system(20, 3.2, 59);
  ParallelTme par(sys.box, small_params(), topo);
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.respawn = false;
  cfg.worker_bin = HOSTILE_WORKER_BIN;
  with_hostile_mode("pong", [&] {
    WorkerFleet fleet(par.context(), par.topology(), cfg);
    EXPECT_EQ(fleet.stats().reinits, 1u);
    EXPECT_EQ(fleet.heartbeat(std::chrono::milliseconds(200)), 0u);
    EXPECT_EQ(fleet.stats().heartbeats_sent, 1u);
    EXPECT_EQ(fleet.stats().heartbeats_missed, 1u);
    EXPECT_TRUE(fleet.worker_alive(0));
    EXPECT_TRUE(fleet.quiesce());
  });
}

TEST(FleetTelemetry, LinkTelemetrySeesRealSocketTraffic) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(80, 3.2, 53);
  ParallelTme par(sys.box, small_params(), topo);
  FleetConfig cfg;
  cfg.workers = 2;
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  hw::LinkTelemetry links(par.topology());
  fleet.set_link_telemetry(&links);
  par.set_executor(&fleet);
  TrafficLog log;
  (void)par.compute(sys.positions, sys.charges, &log);
  EXPECT_GT(links.total_bytes(), 0u);
  EXPECT_GT(links.total_messages(), 0u);
}

// --- graceful shutdown -------------------------------------------------------

TEST(FleetShutdown, SigtermDrainsExecWorkerWhichExitsCleanly) {
  const ScratchDir dir;
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(100, 3.2, 59);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = TME_WORKER_BIN;  // exec mode: the SIGTERM handler is live
  cfg.term_grace_ms = 3000;
  cfg.context_path = dir.file("term_drill.ctx");

  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  par.set_executor(&fleet);
  TrafficLog log;
  expect_bitwise(want, par.compute(sys.positions, sys.charges, &log));

  const pid_t first_pid = fleet.worker_pid(1);
  fleet.term_worker(1, cfg.term_grace_ms);
  // The worker drained voluntarily (exit 0), not via the SIGKILL fallback.
  // (The fleet itself only notices the death on its next dispatch.)
  EXPECT_TRUE(fleet.worker_exited_cleanly(1));

  // The respawned worker resumes from the sealed context, still bitwise.
  expect_bitwise(want, par.compute(sys.positions, sys.charges, &log));
  EXPECT_NE(fleet.worker_pid(1), first_pid);
  std::remove(cfg.context_path.c_str());
}

TEST(FleetShutdown, QuiesceHandshakesEveryWorkerAndIsIdempotent) {
  const ScratchDir dir;
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(100, 3.2, 61);
  const CoulombResult want = serial_reference(sys, topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = TME_WORKER_BIN;
  cfg.term_grace_ms = 3000;
  cfg.context_path = dir.file("quiesce_drill.ctx");

  ParallelTme par(sys.box, small_params(), topo);
  {
    WorkerFleet fleet(par.context(), par.topology(), cfg);
    par.set_executor(&fleet);
    TrafficLog log;
    expect_bitwise(want, par.compute(sys.positions, sys.charges, &log));
    EXPECT_FALSE(fleet.quiesced());
    EXPECT_TRUE(fleet.quiesce());  // every live worker acks the shutdown
    EXPECT_TRUE(fleet.quiesced());
    EXPECT_TRUE(fleet.quiesce());  // idempotent
    par.set_executor(nullptr);
  }  // the destructor only tears down the transport now

  // The quiesce re-sealed the context: a fresh fleet resumes from it bitwise.
  {
    WorkerFleet fleet(par.context(), par.topology(), cfg);
    par.set_executor(&fleet);
    TrafficLog log;
    expect_bitwise(want, par.compute(sys.positions, sys.charges, &log));
    par.set_executor(nullptr);
  }
  std::remove(cfg.context_path.c_str());
}

TEST(FleetShutdown, TermGraceZeroStillKillsForkModeWorkers) {
  const hw::TorusTopology topo(2, 2, 1);
  const TestSystem sys = random_system(80, 3.2, 67);
  FleetConfig cfg;
  cfg.workers = 2;  // fork mode: no exec, no SIGTERM handler installed
  cfg.respawn = false;
  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  fleet.term_worker(1, 0);  // grace 0: straight to SIGKILL
  EXPECT_FALSE(fleet.worker_exited_cleanly(1));
  // The next heartbeat notices the kill.
  EXPECT_LE(fleet.heartbeat(std::chrono::milliseconds(300)), 1u);
  EXPECT_FALSE(fleet.worker_alive(1));
}

}  // namespace
}  // namespace tme::par
