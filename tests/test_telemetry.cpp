// Fleet observability tests: clock-offset estimation (and its RTT/2 error
// bound under injected asymmetric delay), the kTelemetry wire codec, trace
// chunk drain conservation (emitted == merged + dropped across flush
// boundaries), the coordinator-side FleetTelemetry merge (determinism,
// per-track timestamp monotonicity, worker process tracks), the StatusReporter
// live-introspection snapshots, and the end-to-end fork-mode fleet run whose
// merged timeline must carry one process track per worker incarnation with
// dispatch -> task flow arrows.
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/splitting.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/fleet.hpp"
#include "par/par_tme.hpp"
#include "par/telemetry.hpp"
#include "par/traffic.hpp"
#include "par/worker.hpp"
#include "scratch_dir.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// For every (pid, tid) row of a merged trace, event timestamps must be
// non-decreasing — Perfetto rejects out-of-order slices on a track.
void expect_monotone_tracks(const obs::JsonValue& trace) {
  std::map<std::pair<double, double>, double> last_ts;
  for (const obs::JsonValue& ev : trace.at("traceEvents").as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") continue;  // metadata records carry no timestamp
    const std::pair<double, double> key = {ev.at("pid").as_number(),
                                           ev.at("tid").as_number()};
    const double ts = ev.at("ts").as_number();
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts) << "track pid=" << key.first
                                << " tid=" << key.second;
    }
    last_ts[key] = ts;
  }
}

// Collects the names of all "process_name" metadata records.
std::vector<std::string> process_names(const obs::JsonValue& trace) {
  std::vector<std::string> names;
  for (const obs::JsonValue& ev : trace.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "process_name") {
      names.push_back(ev.at("args").at("name").as_string());
    }
  }
  return names;
}

// --- clock-offset estimator --------------------------------------------------

TEST(ClockOffset, RecoversKnownOffsetFromSymmetricRoundTrip) {
  obs::ClockOffsetEstimator est;
  EXPECT_FALSE(est.has_offset());
  // Worker clock runs 500us ahead; both legs take 40us.
  const double t0 = 1000.0, t1 = 1080.0;
  const double remote = (t0 + t1) / 2.0 + 500.0;
  est.add_sample(t0, t1, remote);
  ASSERT_TRUE(est.has_offset());
  EXPECT_DOUBLE_EQ(est.offset_us(), 500.0);
  EXPECT_DOUBLE_EQ(est.rtt_us(), 80.0);
  // Mapping: local = remote - offset.
  EXPECT_DOUBLE_EQ(remote - est.offset_us(), 1040.0);
}

TEST(ClockOffset, MinRttSampleWinsAndCongestionNeverLoosens) {
  obs::ClockOffsetEstimator est;
  est.add_sample(0.0, 200.0, 100.0 + 7.0);    // rtt 200, offset 7
  est.add_sample(1000.0, 1040.0, 1020.0 + 3.0);  // rtt 40: tighter, wins
  EXPECT_DOUBLE_EQ(est.rtt_us(), 40.0);
  EXPECT_DOUBLE_EQ(est.offset_us(), 3.0);
  // A later congested ping must not replace the tight sample.
  est.add_sample(2000.0, 2900.0, 2450.0 + 99.0);
  EXPECT_DOUBLE_EQ(est.rtt_us(), 40.0);
  EXPECT_DOUBLE_EQ(est.offset_us(), 3.0);
  EXPECT_EQ(est.samples(), 3u);
  est.reset();
  EXPECT_FALSE(est.has_offset());
  EXPECT_EQ(est.samples(), 0u);
}

TEST(ClockOffset, ErrorBoundedByHalfRttUnderAsymmetricDelay) {
  // Worst-case asymmetry: the entire RTT spent on one leg.  True offset 0;
  // the remote samples its clock at t0 (outbound instantaneous, return slow)
  // or at t1 (outbound slow).  Either way |estimate| <= rtt/2.
  const double t0 = 5000.0, t1 = 5600.0;
  for (const double remote : {t0, t1}) {
    obs::ClockOffsetEstimator est;
    est.add_sample(t0, t1, remote);
    EXPECT_LE(std::abs(est.offset_us()), est.rtt_us() / 2.0 + 1e-9);
  }
}

// Fleet-level: a forked worker without telemetry keeps the tracer epoch it
// inherited from the coordinator, so the true offset is zero — any estimate
// the init/ping round trips produce must sit inside the RTT/2 bound even
// with a 20ms asymmetric (outbound only) delay injected on the transport.
TEST(ClockOffset, FleetEstimateWithinHalfRttUnderInjectedAsymmetry) {
  const TestSystem sys = random_system(32, 3.2, 11);
  const hw::TorusTopology topo(2, 2, 1);
  ParallelTme par(sys.box, small_params(), topo);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.telemetry = false;  // armed telemetry restarts the worker's epoch
  cfg.net_fault.delay_ms = 20;  // coordinator->worker leg only
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  EXPECT_EQ(fleet.heartbeat(std::chrono::milliseconds(2000)), 2u);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    ASSERT_TRUE(fleet.worker_clock_synced(w)) << "worker " << w;
    const double rtt = fleet.worker_clock_rtt_us(w);
    // Every coordinator send sleeps 20ms, so the round trip is at least that.
    EXPECT_GE(rtt, 20000.0 * 0.9);
    EXPECT_LE(std::abs(fleet.worker_clock_offset_us(w)), rtt / 2.0 + 50.0)
        << "worker " << w;
  }
  fleet.quiesce();
}

// --- kTelemetry wire codec ---------------------------------------------------

obs::WorkerTelemetry sample_telemetry() {
  obs::WorkerTelemetry t;
  t.rank = 3;
  t.pid = 123456;
  t.seq = 7;
  t.chunk.tracks.push_back({"tasks", "rank 3"});
  t.chunk.tracks.push_back({"software", "thread 0"});
  t.chunk.emitted = 42;
  t.chunk.dropped = 2;
  obs::TraceEvent complete;
  complete.type = obs::TraceEventType::kComplete;
  complete.track = 0;
  complete.ts_us = 100.5;
  complete.dur_us = 20.25;
  complete.name = "ca task";
  complete.detail = "task 9";
  obs::TraceEvent instant;
  instant.type = obs::TraceEventType::kInstant;
  instant.track = 1;
  instant.ts_us = 130.0;
  instant.name = "checkpoint";
  obs::TraceEvent counter;
  counter.type = obs::TraceEventType::kCounter;
  counter.track = 0;
  counter.ts_us = 131.0;
  counter.value = 5.0;
  counter.name = "inflight";
  obs::TraceEvent flow;
  flow.type = obs::TraceEventType::kFlowFinish;
  flow.track = 0;
  flow.ts_us = 100.5;
  flow.flow = 77;
  flow.name = "dispatch";
  t.chunk.events = {complete, instant, counter, flow};
  t.metrics_json = "{\"counters\":{\"worker/tasks\":4}}";
  return t;
}

TEST(TelemetryCodec, RoundTripPreservesEverything) {
  const obs::WorkerTelemetry t = sample_telemetry();
  const obs::WorkerTelemetry got = decode_telemetry(encode_telemetry(t));
  EXPECT_EQ(got.rank, t.rank);
  EXPECT_EQ(got.pid, t.pid);
  EXPECT_EQ(got.seq, t.seq);
  EXPECT_EQ(got.metrics_json, t.metrics_json);
  EXPECT_EQ(got.chunk.emitted, t.chunk.emitted);
  EXPECT_EQ(got.chunk.dropped, t.chunk.dropped);
  ASSERT_EQ(got.chunk.tracks.size(), t.chunk.tracks.size());
  for (std::size_t i = 0; i < t.chunk.tracks.size(); ++i) {
    EXPECT_EQ(got.chunk.tracks[i].process, t.chunk.tracks[i].process);
    EXPECT_EQ(got.chunk.tracks[i].name, t.chunk.tracks[i].name);
  }
  ASSERT_EQ(got.chunk.events.size(), t.chunk.events.size());
  for (std::size_t i = 0; i < t.chunk.events.size(); ++i) {
    const obs::TraceEvent& want = t.chunk.events[i];
    const obs::TraceEvent& have = got.chunk.events[i];
    EXPECT_EQ(have.type, want.type) << "event " << i;
    EXPECT_EQ(have.track, want.track) << "event " << i;
    EXPECT_EQ(have.ts_us, want.ts_us) << "event " << i;
    EXPECT_EQ(have.dur_us, want.dur_us) << "event " << i;
    EXPECT_EQ(have.value, want.value) << "event " << i;
    EXPECT_EQ(have.flow, want.flow) << "event " << i;
    EXPECT_EQ(have.name, want.name) << "event " << i;
    EXPECT_EQ(have.detail, want.detail) << "event " << i;
  }
}

TEST(TelemetryCodec, RejectsBadMagicTruncationAndTrailingGarbage) {
  const std::vector<std::uint8_t> bytes = encode_telemetry(sample_telemetry());
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_telemetry(bad_magic), std::exception);
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_THROW((void)decode_telemetry(truncated), std::exception);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_telemetry(trailing), std::exception);
  EXPECT_THROW((void)decode_telemetry({}), std::exception);
}

// --- context codec v2 (telemetry flag) ---------------------------------------

TEST(ContextCodec, TelemetryFlagRoundTrips) {
  WorkerContext ctx;
  ctx.rank = 2;
  ctx.workers = 4;
  ctx.fault.delay_ms = 5;
  ctx.telemetry = true;
  const WorkerContext got = decode_context(encode_context(ctx));
  EXPECT_EQ(got.rank, 2u);
  EXPECT_EQ(got.workers, 4u);
  EXPECT_EQ(got.fault.delay_ms, 5);
  EXPECT_TRUE(got.telemetry);
  ctx.telemetry = false;
  EXPECT_FALSE(decode_context(encode_context(ctx)).telemetry);
}

// --- tracer drain conservation -----------------------------------------------

TEST(TraceDrain, EmittedEqualsMergedPlusDroppedAcrossFlushBoundaries) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset_for_testing();
  tracer.set_buffer_capacity(8);
  tracer.set_enabled(true);
  const obs::TrackId track = tracer.track("test", "drain");
  for (int i = 0; i < 20; ++i) {
    tracer.instant(track, "e", static_cast<double>(i));
  }
  const obs::TraceChunk first = tracer.drain_chunk();
  // Ring holds 8, so 12 overflowed; cumulative counters cover both.
  EXPECT_EQ(first.events.size(), 8u);
  EXPECT_EQ(first.emitted, 20u);
  EXPECT_EQ(first.dropped, 12u);
  EXPECT_EQ(first.emitted, first.events.size() + first.dropped);
  ASSERT_FALSE(first.tracks.empty());
  EXPECT_LT(first.events[0].track, first.tracks.size());

  // Second flush window: the ring is still full, so these all drop — and
  // conservation must keep holding with cumulative counters.
  for (int i = 0; i < 5; ++i) {
    tracer.instant(track, "late", 100.0 + i);
  }
  const obs::TraceChunk second = tracer.drain_chunk();
  EXPECT_EQ(second.emitted, 25u);
  const std::uint64_t merged_total = first.events.size() + second.events.size();
  EXPECT_EQ(second.emitted, merged_total + second.dropped);
  EXPECT_EQ(tracer.undrained_count(), 0u);

  tracer.reset_for_testing();
  tracer.set_buffer_capacity(65536);  // don't leak the tiny ring to later tests
  tracer.set_enabled(false);
}

// --- FleetTelemetry merge ----------------------------------------------------

obs::WorkerTelemetry chunk_from(std::uint32_t rank, std::int64_t pid,
                                std::uint64_t seq, double ts0,
                                std::uint64_t emitted, std::uint64_t dropped) {
  obs::WorkerTelemetry t;
  t.rank = rank;
  t.pid = pid;
  t.seq = seq;
  t.chunk.tracks.push_back({"tasks", "rank " + std::to_string(rank)});
  t.chunk.emitted = emitted;
  t.chunk.dropped = dropped;
  for (int i = 0; i < 3; ++i) {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kComplete;
    e.track = 0;
    e.ts_us = ts0 + 10.0 * i;
    e.dur_us = 4.0;
    e.name = "task";
    t.chunk.events.push_back(std::move(e));
  }
  return t;
}

TEST(FleetMerge, WorkerTracksOffsetsAndConservation) {
  obs::FleetTelemetry fleet;
  // Worker 0, first incarnation: clock 500us ahead of the coordinator.
  fleet.set_offset(0, 4242, 500.0, 60.0);
  fleet.ingest(chunk_from(0, 4242, 1, 1000.0, 3, 0));
  fleet.ingest(chunk_from(0, 4242, 2, 2000.0, 6, 0));
  // Worker 0 respawned as pid 4300: separate incarnation, separate clock.
  // One of its events overflowed the ring: emitted 4 = 3 merged + 1 dropped.
  fleet.set_offset(0, 4300, -250.0, 40.0);
  fleet.ingest(chunk_from(0, 4300, 1, 100.0, 4, 1));
  // Worker 1 never shipped an offset (no pong landed): merged unshifted.
  fleet.ingest(chunk_from(1, 5555, 1, 50.0, 3, 0));

  EXPECT_EQ(fleet.incarnation_count(), 3u);
  EXPECT_EQ(fleet.chunk_count(), 4u);
  EXPECT_EQ(fleet.events_merged(), 12u);
  // Cumulative counters: per-incarnation max, summed.
  EXPECT_EQ(fleet.emitted_total(), 6u + 4u + 3u);
  EXPECT_EQ(fleet.dropped_total(), 1u);
  EXPECT_EQ(fleet.emitted_total(), fleet.events_merged() + fleet.dropped_total());

  const std::string json = fleet.to_json(obs::Tracer::global());
  // Byte-identical on re-serialisation: the merge is deterministic.
  EXPECT_EQ(json, fleet.to_json(obs::Tracer::global()));

  const obs::JsonValue trace = obs::json_parse(json);
  expect_monotone_tracks(trace);
  const std::vector<std::string> procs = process_names(trace);
  auto has = [&](const std::string& name) {
    for (const std::string& p : procs) {
      if (p == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("worker 0 (pid 4242)"));
  EXPECT_TRUE(has("worker 0 (pid 4300)"));
  EXPECT_TRUE(has("worker 1 (pid 5555)"));

  // Offset application: incarnation 4242's first event lands at 1000 - 500.
  bool found_shifted = false;
  for (const obs::JsonValue& ev : trace.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "X" && ev.at("pid").as_number() == 1001.0 &&
        ev.at("ts").as_number() == 500.0) {
      found_shifted = true;
    }
  }
  EXPECT_TRUE(found_shifted);

  // The merged file self-reports the fleet-wide totals and clock table.
  const obs::JsonValue& other = trace.at("otherData");
  EXPECT_EQ(other.at("telemetry_events_merged").as_number(), 12.0);
  EXPECT_EQ(other.at("telemetry_emitted").as_number(), 13.0);
  EXPECT_EQ(other.at("telemetry_chunks").as_number(), 4.0);
  const auto& offsets = other.at("clock_offsets").as_array();
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0].at("offset_us").as_number(), 500.0);
  EXPECT_TRUE(offsets[0].at("has_offset").as_bool());
  EXPECT_FALSE(offsets[2].at("has_offset").as_bool());

  fleet.clear();
  EXPECT_EQ(fleet.incarnation_count(), 0u);
  EXPECT_EQ(fleet.events_merged(), 0u);
}

TEST(FleetMerge, MalformedTrackIndexDropsEventNotProcess) {
  obs::FleetTelemetry fleet;
  obs::WorkerTelemetry bad = chunk_from(0, 99, 1, 10.0, 4, 0);
  obs::TraceEvent rogue;
  rogue.type = obs::TraceEventType::kInstant;
  rogue.track = 17;  // out of range for the chunk's 1-entry track table
  rogue.ts_us = 11.0;
  rogue.name = "rogue";
  bad.chunk.events.push_back(rogue);
  fleet.ingest(std::move(bad));
  const obs::JsonValue trace =
      obs::json_parse(fleet.to_json(obs::Tracer::global()));
  std::size_t worker_events = 0;
  for (const obs::JsonValue& ev : trace.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "M" && ev.at("pid").as_number() == 1001.0) {
      EXPECT_NE(ev.at("name").as_string(), "rogue");
      ++worker_events;
    }
  }
  EXPECT_EQ(worker_events, 3u);
}

TEST(FleetMerge, PublishWorkerMetricsLandsInRegistryAsGauges) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::FleetTelemetry fleet;
  obs::WorkerTelemetry t = chunk_from(1, 777, 1, 0.0, 3, 0);
  t.metrics_json =
      "{\"counters\":{\"worker/tasks\":9},\"gauges\":{},\"timers\":{}}";
  fleet.ingest(std::move(t));
  obs::Registry& reg = obs::Registry::global();
  fleet.publish_worker_metrics(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "fleet/w1/worker/worker/tasks") {
      found = true;
      EXPECT_DOUBLE_EQ(value, 9.0);
    }
  }
  EXPECT_TRUE(found);
}

// --- StatusReporter ----------------------------------------------------------

class StatusReporterTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::StatusReporter::global().reset_for_testing(); }
  void TearDown() override {
    obs::StatusReporter::global().reset_for_testing();
  }
  std::string temp_path(const std::string& name) const { return dir_.file(name); }

 private:
  ScratchDir dir_;
};

TEST_F(StatusReporterTest, WriteNowIsAtomicAndSchemaShaped) {
  obs::StatusReporter& status = obs::StatusReporter::global();
  EXPECT_FALSE(status.poll(1));  // no path configured: a no-op
  const std::string path = temp_path("status_schema.json");
  status.set_path(path);
  const int id = status.add_provider("fleet", [](obs::JsonValue& v) {
    v.as_object()["workers"] = obs::JsonValue::make_number(3.0);
  });
  ASSERT_TRUE(status.write_now(17));
  // Atomic: the temp file is renamed away, only the target remains.
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const obs::JsonValue snap = obs::json_parse(read_file(path));
  EXPECT_EQ(snap.at("schema").as_string(), "tme-status-v1");
  EXPECT_EQ(snap.at("step").as_number(), 17.0);
  EXPECT_EQ(snap.at("pid").as_number(), static_cast<double>(::getpid()));
  EXPECT_GT(snap.at("written_unix_ms").as_number(), 0.0);
  ASSERT_TRUE(snap.contains("metrics"));
  EXPECT_TRUE(snap.at("metrics").contains("counters"));
  EXPECT_TRUE(snap.at("metrics").contains("gauges"));
  EXPECT_TRUE(snap.at("metrics").contains("histograms"));
  ASSERT_TRUE(snap.contains("fleet"));
  EXPECT_EQ(snap.at("fleet").at("workers").as_number(), 3.0);
  status.remove_provider(id);
  ASSERT_TRUE(status.write_now(18));
  EXPECT_FALSE(obs::json_parse(read_file(path)).contains("fleet"));
  std::remove(path.c_str());
}

TEST_F(StatusReporterTest, WriteToMissingDirectoryFailsQuietly) {
  obs::StatusReporter& status = obs::StatusReporter::global();
  const std::string path = temp_path("no_such_dir") + "/status.json";
  status.set_path(path);
  bool written = true;
  EXPECT_NO_THROW(written = status.write_now(1));
  EXPECT_FALSE(written);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_FALSE(file_exists(path));
}

TEST_F(StatusReporterTest, ProviderGaugesLandInTheSameSnapshot) {
  // Registry::gauge_set is a direct call, live with metrics compiled out.
  obs::StatusReporter& status = obs::StatusReporter::global();
  const std::string path = temp_path("status_provider_gauge.json");
  status.set_path(path);
  double published = 0.0;
  const int id = status.add_provider("probe", [&published](obs::JsonValue&) {
    published += 1.0;
    obs::Registry::global().gauge_set("status/test_provider_gauge", published);
  });
  ASSERT_TRUE(status.write_now(1));
  ASSERT_TRUE(status.write_now(2));
  const obs::JsonValue snap = obs::json_parse(read_file(path));
  EXPECT_EQ(snap.at("metrics")
                .at("gauges")
                .at("status/test_provider_gauge")
                .as_number(),
            2.0);
  status.remove_provider(id);
  std::remove(path.c_str());
}

TEST_F(StatusReporterTest, HistogramPercentilesAppearInSnapshot) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::StatusReporter& status = obs::StatusReporter::global();
  const std::string path = temp_path("status_hist.json");
  status.set_path(path);
  obs::Histogram& h = obs::Registry::global().histogram("status/test_latency");
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  ASSERT_TRUE(status.write_now(1));
  const obs::JsonValue snap = obs::json_parse(read_file(path));
  const obs::JsonValue& hist =
      snap.at("metrics").at("histograms").at("status/test_latency");
  EXPECT_GE(hist.at("count").as_number(), 100.0);
  EXPECT_GT(hist.at("p50").as_number(), 0.0);
  EXPECT_LE(hist.at("p50").as_number(), hist.at("p95").as_number());
  EXPECT_LE(hist.at("p95").as_number(), hist.at("p99").as_number());
  std::remove(path.c_str());
}

TEST_F(StatusReporterTest, PeriodicPollWritesOnConfiguredCadence) {
  obs::StatusReporter& status = obs::StatusReporter::global();
  const std::string path = temp_path("status_every.json");
  status.set_path(path);
  status.set_every(3);
  EXPECT_FALSE(status.poll(1));
  EXPECT_FALSE(status.poll(2));
  EXPECT_TRUE(status.poll(3));
  EXPECT_FALSE(status.poll(4));
  EXPECT_TRUE(status.poll(6));
  EXPECT_EQ(obs::json_parse(read_file(path)).at("step").as_number(), 6.0);
  std::remove(path.c_str());
}

TEST_F(StatusReporterTest, Sigusr1SetsPendingFlagAndPollConsumesIt) {
  obs::StatusReporter& status = obs::StatusReporter::global();
  const std::string path = temp_path("status_signal.json");
  status.set_path(path);
  status.arm_signal();
  EXPECT_FALSE(obs::StatusReporter::signal_pending());
  ASSERT_EQ(::raise(SIGUSR1), 0);
  EXPECT_TRUE(obs::StatusReporter::signal_pending());
  EXPECT_TRUE(status.poll(5));  // off-cadence step: the signal forced it
  EXPECT_FALSE(obs::StatusReporter::signal_pending());
  EXPECT_FALSE(status.poll(6));
  EXPECT_EQ(obs::json_parse(read_file(path)).at("step").as_number(), 5.0);
  std::remove(path.c_str());
}

TEST_F(StatusReporterTest, EnvConfigurationWiresPathAndPeriod) {
  ::setenv("TME_STATUS_OUT", temp_path("status_env.json").c_str(), 1);
  ::setenv("TME_STATUS_EVERY", "2", 1);
  obs::StatusReporter& status = obs::StatusReporter::global();
  status.configure_from_env();
  EXPECT_EQ(status.path(), temp_path("status_env.json"));
  EXPECT_EQ(status.every(), 2u);
  EXPECT_TRUE(status.poll(2));
  std::remove(temp_path("status_env.json").c_str());
  ::unsetenv("TME_STATUS_OUT");
  ::unsetenv("TME_STATUS_EVERY");
}

// --- end-to-end: fork-mode fleet with a kill drill ---------------------------

// The acceptance run: a real-process fleet with worker-side telemetry armed
// and one worker SIGKILLed mid-run.  The merged timeline must carry the
// coordinator's dispatch track, one process per worker incarnation
// (including the respawn), and dispatch -> task flow arrows; forces stay
// bitwise identical to the serial reference; conservation holds.
TEST(FleetTelemetryE2E, KillDrillProducesMergedTimelineWithRespawnTrack) {
  const ScratchDir dir;
  if (!obs::kTraceEnabled) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset_for_testing();
  tracer.set_enabled(true);

  const TestSystem sys = random_system(48, 3.2, 23);
  const hw::TorusTopology topo(2, 2, 1);
  ParallelTme reference(sys.box, small_params(), topo);
  TrafficLog ref_log;
  const CoulombResult want =
      reference.compute(sys.positions, sys.charges, &ref_log);

  FleetConfig cfg;
  cfg.workers = 2;
  cfg.respawn = true;
  cfg.context_path = dir.file("telemetry_e2e.ctx");
  cfg.worker_faults.resize(2);
  cfg.worker_faults[1].crash_after_tasks = 2;  // SIGKILL mid-run

  ParallelTme par(sys.box, small_params(), topo);
  WorkerFleet fleet(par.context(), par.topology(), cfg);
  ASSERT_TRUE(fleet.telemetry_enabled());
  par.set_executor(&fleet);
  TrafficLog log;
  const CoulombResult got = par.compute(sys.positions, sys.charges, &log);

  EXPECT_EQ(want.energy, got.energy);
  ASSERT_EQ(want.forces.size(), got.forces.size());
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    ASSERT_EQ(want.forces[i].x, got.forces[i].x) << "atom " << i;
    ASSERT_EQ(want.forces[i].y, got.forces[i].y) << "atom " << i;
    ASSERT_EQ(want.forces[i].z, got.forces[i].z) << "atom " << i;
  }
  EXPECT_GE(fleet.stats().worker_deaths, 1u);
  EXPECT_GE(fleet.stats().respawns, 1u);

  // Clock sync from the init handshakes (and respawn re-init).
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    EXPECT_TRUE(fleet.worker_clock_synced(w)) << "worker " << w;
    EXPECT_EQ(fleet.outstanding_tasks(w), 0u) << "worker " << w;
  }

  // Quiesce flushes each live worker's final chunk before kBye.
  EXPECT_TRUE(fleet.quiesce());
  const obs::FleetTelemetry& telemetry = fleet.telemetry();
  // Two initial incarnations + at least one respawn incarnation.
  EXPECT_GE(telemetry.incarnation_count(), 3u);
  EXPECT_GT(telemetry.events_merged(), 0u);
  // The SIGKILLed incarnation's unsent tail is invisible on both sides of
  // the ledger, so conservation holds fleet-wide at chunk granularity.
  EXPECT_EQ(telemetry.emitted_total(),
            telemetry.events_merged() + telemetry.dropped_total());

  const std::string json = telemetry.to_json(tracer);
  EXPECT_EQ(json, telemetry.to_json(tracer));  // deterministic merge
  const obs::JsonValue trace = obs::json_parse(json);
  expect_monotone_tracks(trace);

  // One process per worker incarnation, including the respawn of rank 1.
  const std::vector<std::string> procs = process_names(trace);
  std::size_t rank1_incarnations = 0;
  bool coordinator_process = false;
  for (const std::string& p : procs) {
    if (p.rfind("worker 1 (pid ", 0) == 0) ++rank1_incarnations;
    if (p == "fleet") coordinator_process = true;
  }
  EXPECT_GE(rank1_incarnations, 2u) << json.substr(0, 2000);
  EXPECT_TRUE(coordinator_process);

  // Dispatch spans with flow tails on the coordinator, flow heads on worker
  // task spans — the parenting arrows of the merged timeline.
  bool flow_start = false, flow_finish = false, dispatch_span = false,
       worker_task_span = false, death_instant = false, respawn_instant = false;
  for (const obs::JsonValue& ev : trace.at("traceEvents").as_array()) {
    const std::string ph = ev.at("ph").as_string();
    const std::string name =
        ev.contains("name") ? ev.at("name").as_string() : "";
    if (ph == "s" && name == "dispatch") flow_start = true;
    if (ph == "f" && name == "dispatch" && ev.at("pid").as_number() >= 1001.0) {
      flow_finish = true;
    }
    if (ph == "X" && name == "dispatch") dispatch_span = true;
    if (ph == "X" && ev.at("pid").as_number() >= 1001.0 &&
        name.find("task") != std::string::npos) {
      worker_task_span = true;
    }
    if (ph == "i" && name == "worker dead") death_instant = true;
    if (ph == "i" && name == "worker respawned") respawn_instant = true;
  }
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_finish);
  EXPECT_TRUE(dispatch_span);
  EXPECT_TRUE(worker_task_span);
  EXPECT_TRUE(death_instant);
  EXPECT_TRUE(respawn_instant);

  // write_fleet_trace lands the same JSON on disk.
  const std::string trace_path = dir.file("telemetry_e2e_trace.json");
  ASSERT_TRUE(fleet.write_fleet_trace(trace_path));
  EXPECT_EQ(read_file(trace_path), json);

  // The live-introspection section: per-worker health, clock and counters.
  obs::JsonValue status = obs::JsonValue::make_object();
  fleet.status_json(status);
  EXPECT_EQ(status.at("workers").as_number(), 2.0);
  EXPECT_TRUE(status.at("telemetry").as_bool());
  EXPECT_TRUE(status.at("quiesced").as_bool());
  const auto& per_worker = status.at("per_worker").as_array();
  ASSERT_EQ(per_worker.size(), 2u);
  for (const obs::JsonValue& w : per_worker) {
    EXPECT_TRUE(w.at("clock_synced").as_bool());
    EXPECT_EQ(w.at("outstanding").as_number(), 0.0);
    EXPECT_TRUE(w.contains("clock_offset_us"));
    EXPECT_TRUE(w.contains("clock_rtt_us"));
  }
  EXPECT_GE(status.at("stats").at("worker_deaths").as_number(), 1.0);
  EXPECT_GE(status.at("trace").at("incarnations").as_number(), 3.0);

  // Per-worker transport stats + worker snapshots land as registry gauges.
  if (obs::kMetricsEnabled) {
    fleet.publish_metrics();
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    bool net_gauge = false, worker_gauge = false;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "fleet/w0/net/messages_sent") net_gauge = value > 0.0;
      if (name.rfind("fleet/w", 0) == 0 &&
          name.find("/worker/worker/tasks") != std::string::npos) {
        worker_gauge = worker_gauge || value > 0.0;
      }
    }
    EXPECT_TRUE(net_gauge);
    EXPECT_TRUE(worker_gauge);
  }

  std::remove(trace_path.c_str());
  std::remove(cfg.context_path.c_str());
  tracer.reset_for_testing();
  tracer.set_enabled(false);
}

}  // namespace
}  // namespace tme::par
