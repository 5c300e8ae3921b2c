// Chaos harness tests: spec round-trips and malformed-spec rejection, the
// oracle-checked runner on real SETTLE water (a clean run inside the NVE
// drift bound, a composed multi-surface schedule, a real-process worker
// crash drill, graceful SIGTERM drain/resume), and the acceptance contract
// of the shrinker — a lethal schedule reduces to a
// minimal reproducer whose replay re-triggers the same oracle failure
// deterministically.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "md/checkpoint.hpp"
#include "md/guardrail.hpp"
#include "md/water_box.hpp"
#include "scratch_dir.hpp"
#include "util/io_shim.hpp"

#ifndef TME_WORKER_BIN
#define TME_WORKER_BIN ""
#endif

namespace tme::chaos {
namespace {

// --- schedule spec -----------------------------------------------------------

TEST(ChaosSpec, SurfaceNamesRoundTrip) {
  const Surface all[] = {Surface::kNode,   Surface::kLink,  Surface::kSdc,
                         Surface::kPacket, Surface::kWorker, Surface::kBitrot,
                         Surface::kIo,     Surface::kAlloc, Surface::kSigterm,
                         Surface::kSabotage};
  for (const Surface s : all) {
    Surface back;
    ASSERT_TRUE(surface_from_string(to_string(s), &back)) << to_string(s);
    EXPECT_EQ(back, s);
  }
  Surface out;
  EXPECT_FALSE(surface_from_string("plasma", &out));
}

TEST(ChaosSpec, JsonRoundTripPreservesEveryField) {
  ChaosSpec spec;
  spec.seed = 77;
  spec.steps = 12;
  spec.atoms = 128;
  spec.workers = 3;
  spec.checkpoint_interval = 3;
  spec.checkpoint_keep = 4;
  spec.timeout_ms = 1234;
  spec.step_deadline_ms = 9999;
  ChaosEvent e;
  e.step = 2;
  e.surface = Surface::kPacket;
  e.rate = 0.125;
  e.rate2 = 0.0625;
  e.a = 5;
  e.b = 6;
  e.until_step = 4;
  e.detail = "note";
  spec.events.push_back(e);

  const ChaosSpec back = parse_spec(dump_spec(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.steps, spec.steps);
  EXPECT_EQ(back.atoms, spec.atoms);
  EXPECT_EQ(back.workers, spec.workers);
  EXPECT_EQ(back.checkpoint_interval, spec.checkpoint_interval);
  EXPECT_EQ(back.checkpoint_keep, spec.checkpoint_keep);
  EXPECT_EQ(back.timeout_ms, spec.timeout_ms);
  EXPECT_EQ(back.step_deadline_ms, spec.step_deadline_ms);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].step, e.step);
  EXPECT_EQ(back.events[0].surface, e.surface);
  EXPECT_EQ(back.events[0].rate, e.rate);
  EXPECT_EQ(back.events[0].rate2, e.rate2);
  EXPECT_EQ(back.events[0].a, e.a);
  EXPECT_EQ(back.events[0].b, e.b);
  EXPECT_EQ(back.events[0].until_step, e.until_step);
  EXPECT_EQ(back.events[0].detail, e.detail);
}

TEST(ChaosSpec, UnknownSurfaceInJsonThrows) {
  EXPECT_THROW(parse_spec("{\"events\":[{\"step\":0,\"surface\":\"gamma\"}]}"),
               std::runtime_error);
}

TEST(ChaosSpec, RejectsMalformedFields) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"{\"atoms\":0,\"events\":[{\"step\":0,\"surface\":\"sabotage\"}]}",
       "atoms"},
      {"{\"atoms\":0}", "atoms"},
      {"{\"atoms\":-1}", "atoms"},
      {"{\"workers\":0}", "workers"},
      {"{\"steps\":1e300}", "steps"},
      {"{\"checkpoint_keep\":-5}", "checkpoint_keep"},
      {"{\"atoms\":96.5}", "atoms"},
      {"{\"events\":[{\"surface\":\"packet\",\"rate\":1.5}]}", "rate"},
      {"{\"woker\":3}", "woker"},
      {"{\"events\":[{\"surface\":\"io\",\"untill_step\":4}]}", "untill_step"},
      {"{\"events\":[{\"surface\":\"io\",\"backend\":\"proc\"}]}", "backend"},
  };
  for (const auto& [json, field] : bad) {
    try {
      parse_spec(json);
      ADD_FAILURE() << "accepted " << json;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << json << " -> " << e.what();
    }
  }
  EXPECT_NO_THROW(
      parse_spec("{\"atoms\":24,\"workers\":64,\"backend\":\"proc\"}"));
}

TEST(ChaosSpec, RandomSpecIsDeterministicInTheSeed) {
  const std::vector<Surface> surfaces = {Surface::kNode, Surface::kPacket,
                                         Surface::kIo, Surface::kWorker};
  const ChaosSpec a = random_spec(42, 8, surfaces);
  const ChaosSpec b = random_spec(42, 8, surfaces);
  const ChaosSpec c = random_spec(43, 8, surfaces);
  EXPECT_EQ(dump_spec(a), dump_spec(b));
  EXPECT_NE(dump_spec(a), dump_spec(c));
  EXPECT_EQ(a.events.size(), surfaces.size());
  for (const ChaosEvent& e : a.events) EXPECT_LT(e.step, a.steps);
}

TEST(ChaosSpec, EnvOverridesApplyOnTopOfBase) {
  setenv("TME_CHAOS_SEED", "99", 1);
  setenv("TME_CHAOS_STEPS", "5", 1);
  setenv("TME_CHAOS_WORKERS", "3", 1);
  setenv("TME_CHAOS_SURFACES", "packet,io", 1);
  const ChaosSpec spec = spec_from_env();
  unsetenv("TME_CHAOS_SEED");
  unsetenv("TME_CHAOS_STEPS");
  unsetenv("TME_CHAOS_WORKERS");
  unsetenv("TME_CHAOS_SURFACES");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.steps, 5u);
  EXPECT_EQ(spec.workers, 3u);
  EXPECT_EQ(spec.events.size(), 2u);
}

TEST(ChaosSpecFile, MissingFileIsTypedErrorAndPresentFileParses) {
  const ScratchDir dir;
  try {
    read_spec_file(dir.file("absent.json"));
    ADD_FAILURE() << "a missing spec file was accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.step(), io::IoStep::kOpen);
  }
  const std::string path = dir.file("spec.json");
  io::write_file_durable(path, std::string(R"({"seed":5,"steps":3})"));
  const ChaosSpec spec = read_spec_file(path);
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.steps, 3u);
  io::write_file_durable(path, std::string(R"({"seed":)"));
  EXPECT_THROW(read_spec_file(path), std::runtime_error);
}

// Older spec and replay files carry a "backend" key that picked thread or
// process workers.  Workers are always processes now and the key is ignored
// whatever its value, so those files parse to the same spec and old replays
// keep replaying.
TEST(ChaosSpecFile, RetiredBackendKeyParsesToTheSameSpec) {
  const std::string fields =
      R"("seed":9,"steps":4,"workers":3,"events":[{"step":1,)"
      R"("surface":"worker","a":1,"b":2,"detail":"crash"}])";
  const std::string want = dump_spec(parse_spec("{" + fields + "}"));
  const ScratchDir dir;
  for (const char* backend : {"proc", "tcp"}) {
    const std::string spec_text =
        std::string(R"({"backend":")") + backend + "\"," + fields + "}";
    const std::string spec_path = dir.file("old_spec.json");
    io::write_file_durable(spec_path, spec_text);
    EXPECT_EQ(dump_spec(read_spec_file(spec_path)), want) << backend;
    const std::string replay_path = dir.file("old_replay.json");
    io::write_file_durable(replay_path, R"({"spec":)" + spec_text + "}");
    EXPECT_EQ(dump_spec(read_replay_spec(replay_path)), want) << backend;
  }
}

// --- the runner --------------------------------------------------------------

RunnerOptions test_options(const ScratchDir& dir) {
  RunnerOptions opts;
  opts.workdir = dir.path();
  opts.worker_bin = TME_WORKER_BIN;
  return opts;
}

// The acceptance run: a seeded schedule composing five distinct fault
// surfaces survives with every oracle green.
TEST(ChaosRunner, ComposedMultiSurfaceScheduleStaysGreen) {
  ChaosSpec spec;
  spec.seed = 2021;
  spec.steps = 6;
  spec.timeout_ms = 400;  // dropped frames retransmit fast (tasks run in ms)
  spec.events.push_back({0, Surface::kWorker, 0, 0, 0, -1, 0, "kill"});
  spec.events.push_back({1, Surface::kNode, 0, 0, 1, -1, 0, ""});
  spec.events.push_back({2, Surface::kPacket, 0.08, 0.05, -1, -1, 4, ""});
  spec.events.push_back({2, Surface::kIo, 0, 0, -1, -1, 4, "fsync"});
  spec.events.push_back({4, Surface::kSdc, 1e-5, 0, -1, -1, 0, ""});

  const ScratchDir dir;
  ChaosRunner runner(spec, test_options(dir));
  const ChaosRunResult result = runner.run();
  EXPECT_TRUE(result.ok) << failure_signature(result) << ": "
                         << result.failure_detail;
  EXPECT_EQ(result.steps_completed, spec.steps);
  EXPECT_GE(result.worker_deaths, 1u);
  EXPECT_GE(result.respawns, 1u);
  EXPECT_GE(result.frames_dropped + result.frames_corrupted, 1u);
  EXPECT_GE(result.checkpoint_write_failures, 1u);  // fsync window hit a write
  EXPECT_GE(result.sdc_injected, 0u);
  EXPECT_FALSE(result.log.empty());
  EXPECT_FALSE(io::IoShim::instance().armed());  // runner cleaned up
}

TEST(ChaosRunner, SigtermDrainResumesBitwiseFromItsCheckpoint) {
  ChaosSpec spec;
  spec.seed = 7;
  spec.steps = 5;
  spec.events.push_back({2, Surface::kSigterm, 0, 0, -1, -1, 0, ""});

  const ScratchDir dir;
  ChaosRunner runner(spec, test_options(dir));
  const ChaosRunResult result = runner.run();
  ASSERT_TRUE(result.ok) << failure_signature(result) << ": "
                         << result.failure_detail;
  // One mid-run drain + the end-of-run quiesce.
  EXPECT_GE(result.quiesces, 2u);
  bool saw_resume = false;
  for (const RealizedEvent& e : result.log) {
    saw_resume = saw_resume || e.what.find("resumed bitwise") == 0;
  }
  EXPECT_TRUE(saw_resume);
}

TEST(ChaosRunner, BitrotOnNewestGenerationFallsBackAndStaysGreen) {
  ChaosSpec spec;
  spec.seed = 13;
  spec.steps = 5;
  spec.checkpoint_interval = 2;
  // Damage the newest generation after the last rotating write (writes land
  // at the end of steps 1 and 3), so the end-of-run restore must fall back.
  spec.events.push_back({4, Surface::kBitrot, 0, 0, 40, -1, 0, ""});

  const ScratchDir dir;
  ChaosRunner runner(spec, test_options(dir));
  const ChaosRunResult result = runner.run();
  ASSERT_TRUE(result.ok) << failure_signature(result) << ": "
                         << result.failure_detail;
  EXPECT_GE(result.checkpoint_fallbacks, 1u);
}

// The oracles judge a real trajectory: the water moves, and its NVE energy
// drifts by a small nonzero amount inside the guardrail's tolerance.
TEST(ChaosRunner, CleanRunIntegratesRealWaterInsideTheDriftBound) {
  ChaosSpec spec;
  spec.steps = 8;
  const ScratchDir dir;
  ChaosRunner runner(spec, test_options(dir));
  const ChaosRunResult result = runner.run();
  ASSERT_TRUE(result.ok) << failure_signature(result) << ": "
                         << result.failure_detail;
  EXPECT_GT(result.max_energy_drift, 0.0);
  EXPECT_LT(result.max_energy_drift, GuardrailConfig{}.energy_drift_tol);

  WaterBoxSpec water;
  water.molecules = spec.atoms / 3;
  water.seed = spec.seed;
  const ParticleSystem start = build_water_box(water).system;
  const Checkpoint last = read_checkpoint(dir.file("chaos.ckpt"));
  EXPECT_EQ(last.step, spec.steps);
  ASSERT_EQ(last.system.size(), start.size());
  std::size_t moved = 0;
  for (std::size_t i = 0; i < start.size(); ++i) {
    moved += last.system.positions[i].x != start.positions[i].x ? 1 : 0;
  }
  EXPECT_EQ(moved, start.size());
}

// A real-process worker crashes mid-dispatch after every second task of
// every incarnation; detection, respawn and re-homing keep the run green.
TEST(ChaosRunner, ProcWorkerCrashDrillStaysGreen) {
  const ChaosSpec spec = parse_spec(
      "{\"backend\":\"proc\",\"steps\":4,\"events\":[{\"step\":0,"
      "\"surface\":\"worker\",\"a\":1,\"b\":2,\"detail\":\"crash\"}]}");
  const ScratchDir dir;
  ChaosRunner runner(spec, test_options(dir));
  const ChaosRunResult result = runner.run();
  EXPECT_TRUE(result.ok) << failure_signature(result) << ": "
                         << result.failure_detail;
  EXPECT_EQ(result.steps_completed, spec.steps);
  EXPECT_GE(result.worker_deaths, 1u);
}

TEST(ChaosRunner, ReplayFileRoundTripsTheSpec) {
  ChaosSpec spec = random_spec(5, 6, {Surface::kPacket, Surface::kIo});
  ChaosRunResult result;
  result.ok = false;
  result.failed_oracle = "force-parity";
  result.failed_step = 3;
  result.log.push_back({1, "packet", "window open"});
  const ScratchDir dir;
  const std::string path = dir.file("chaos_replay.json");
  write_replay_file(path, spec, result);
  const ChaosSpec back = read_replay_spec(path);
  EXPECT_EQ(dump_spec(back), dump_spec(spec));
}

// --- the shrinker ------------------------------------------------------------

TEST(ChaosShrink, SurvivableScheduleHasNothingToShrink) {
  ChaosSpec spec;
  spec.seed = 3;
  spec.steps = 4;
  spec.events.push_back({1, Surface::kWorker, 0, 0, 0, -1, 0, "kill"});
  const ScratchDir dir;
  const ShrinkResult shrunk = shrink_schedule(spec, test_options(dir));
  EXPECT_TRUE(shrunk.signature.empty());
  EXPECT_TRUE(shrunk.last_run.ok);
  EXPECT_EQ(shrunk.runs, 1);
}

// The acceptance contract: an intentionally lethal schedule (an
// undetectable force corruption buried in survivable noise) shrinks to a
// minimal reproducer whose replay re-triggers the same oracle failure
// deterministically.
TEST(ChaosShrink, LethalScheduleShrinksToDeterministicMinimalReproducer) {
  ChaosSpec spec;
  spec.seed = 21;
  spec.steps = 6;
  spec.timeout_ms = 400;
  // Survivable noise...
  spec.events.push_back({0, Surface::kWorker, 0, 0, 1, -1, 0, "kill"});
  spec.events.push_back({1, Surface::kPacket, 0.05, 0.05, -1, -1, 3, ""});
  spec.events.push_back({2, Surface::kIo, 0, 0, -1, -1, 4, "enospc"});
  spec.events.push_back({4, Surface::kNode, 0, 0, 2, -1, 0, ""});
  // ...hiding the one lethal event.
  spec.events.push_back({3, Surface::kSabotage, 0, 0, 9, -1, 0, ""});

  const ScratchDir dir;
  const RunnerOptions opts = test_options(dir);
  const ShrinkResult shrunk = shrink_schedule(spec, opts);
  EXPECT_EQ(shrunk.signature, "force-parity@3");
  EXPECT_EQ(shrunk.events_before, 5u);
  ASSERT_EQ(shrunk.events_after, 1u);  // exactly the sabotage survives
  EXPECT_EQ(shrunk.spec.events[0].surface, Surface::kSabotage);
  EXPECT_LE(shrunk.spec.steps, spec.steps);

  // Replay file round-trip, then two independent replays: the minimal
  // reproducer must fail identically every time.
  const std::string path = dir.file("chaos_repro.json");
  write_replay_file(path, shrunk.spec, shrunk.last_run);
  const ChaosSpec replay = read_replay_spec(path);
  for (int i = 0; i < 2; ++i) {
    ChaosRunner again(replay, opts);
    const ChaosRunResult rerun = again.run();
    EXPECT_FALSE(rerun.ok);
    EXPECT_EQ(failure_signature(rerun), shrunk.signature);
  }
}

}  // namespace
}  // namespace tme::chaos
