// Tests for the span tracer (obs/trace), the simulated-hardware trace
// feeders (hw/track_meta, hw::trace_step), per-link telemetry
// (hw/link_stats) including its conservation invariant against the traffic
// log, the per-run manifest, and the structured JSONL log sink.
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/splitting.hpp"
#include "hw/event_sim.hpp"
#include "hw/link_stats.hpp"
#include "hw/machine.hpp"
#include "hw/track_meta.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/par_tme.hpp"
#include "par/traffic.hpp"
#include "scratch_dir.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tme::obs {
namespace {

// Every test drives the global tracer (that is what the macros and feeders
// target), so each starts from a clean, enabled slate and disables tracing
// again on exit so other suites in the binary are unaffected.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!kTraceEnabled) GTEST_SKIP() << "tracing compiled out";
    Tracer::global().reset_for_testing();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().reset_for_testing();
  }
};

// Walks the exported JSON and checks trace-event invariants: every event
// carries ph/pid/tid, complete events carry ts+dur, and timestamps are
// monotone per (pid, tid) track in export order.
void check_trace_json(const std::string& json) {
  const JsonValue root = json_parse(json);  // throws on malformed JSON
  const auto& obj = root.as_object();
  ASSERT_TRUE(obj.count("traceEvents"));
  ASSERT_TRUE(obj.count("otherData"));
  std::map<std::pair<double, double>, double> last_ts;
  for (const JsonValue& e : obj.at("traceEvents").as_array()) {
    const auto& ev = e.as_object();
    ASSERT_TRUE(ev.count("ph"));
    ASSERT_TRUE(ev.count("pid"));
    ASSERT_TRUE(ev.count("tid"));
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    ASSERT_TRUE(ev.count("ts"));
    ASSERT_TRUE(ev.count("name"));
    if (ph == "X") {
      ASSERT_TRUE(ev.count("dur"));
    }
    const std::pair<double, double> track{ev.at("pid").as_number(),
                                          ev.at("tid").as_number()};
    const double ts = ev.at("ts").as_number();
    if (last_ts.count(track)) {
      EXPECT_GE(ts, last_ts[track]);
    }
    last_ts[track] = ts;
  }
}

// All process_name metadata values in the export.
std::set<std::string> process_names(const std::string& json) {
  std::set<std::string> names;
  const JsonValue root = json_parse(json);
  for (const JsonValue& e : root.as_object().at("traceEvents").as_array()) {
    const auto& ev = e.as_object();
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "process_name") {
      names.insert(ev.at("args").as_object().at("name").as_string());
    }
  }
  return names;
}

std::size_t count_ph(const std::string& json, const std::string& ph) {
  std::size_t n = 0;
  const JsonValue root = json_parse(json);
  for (const JsonValue& e : root.as_object().at("traceEvents").as_array()) {
    if (e.as_object().at("ph").as_string() == ph) ++n;
  }
  return n;
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::global().set_enabled(false);
  TME_TRACE_INSTANT("ignored");
  { TME_TRACE_SPAN("also ignored"); }
  Tracer::global().complete(0, "direct call", 0.0, 1.0);
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(TraceTest, SpanDisabledAtConstructionIsNotHalfCaptured) {
  Tracer::global().set_enabled(false);
  {
    TraceSpan span("opened while disabled");
    // Enabling mid-span must not record it: it was not captured at open.
    Tracer::global().set_enabled(true);
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(TraceTest, MacrosRecordSpansAndInstants) {
  {
    TME_TRACE_SPAN("outer");
    TME_TRACE_INSTANT("marker");
    TME_TRACE_INSTANT_D("detailed", "extra context");
  }
  EXPECT_EQ(Tracer::global().event_count(), 3u);
  const std::string json = Tracer::global().to_json();
  check_trace_json(json);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("extra context"), std::string::npos);
  EXPECT_TRUE(process_names(json).count("software"));
}

TEST_F(TraceTest, ThreadPoolStressNoDropsBelowCapacityAndMonotoneTracks) {
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kSpansPerTask = 50;
  ThreadPool pool(3);
  parallel_for(pool, 0, kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kSpansPerTask; ++i) {
      TME_TRACE_SPAN("stress");
      TME_TRACE_INSTANT("tick");
    }
  });
  // 2 events per iteration, well below the default 65536/thread capacity.
  EXPECT_EQ(Tracer::global().event_count(), kTasks * kSpansPerTask * 2);
  EXPECT_EQ(Tracer::global().dropped_count(), 0u);
  check_trace_json(Tracer::global().to_json());
}

TEST_F(TraceTest, FullRingCountsDropsInsteadOfGrowing) {
  Tracer::global().reset_for_testing();
  Tracer::global().set_buffer_capacity(16);
  Tracer::global().set_enabled(true);
  for (int i = 0; i < 100; ++i) TME_TRACE_INSTANT("burst");
  EXPECT_EQ(Tracer::global().event_count(), 16u);
  EXPECT_EQ(Tracer::global().dropped_count(), 84u);
  // The export stays valid and reports the drop count.
  const std::string json = Tracer::global().to_json();
  check_trace_json(json);
  const JsonValue root = json_parse(json);
  EXPECT_EQ(root.as_object()
                .at("otherData")
                .as_object()
                .at("trace_dropped")
                .as_number(),
            84.0);
  Tracer::global().set_buffer_capacity(65536);
}

TEST_F(TraceTest, WriteProducesParseableFile) {
  const ScratchDir dir;
  TME_TRACE_INSTANT("file marker");
  const std::string path = dir.file("trace_test_out.json");
  ASSERT_TRUE(Tracer::global().write(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  check_trace_json(buf.str());
  std::remove(path.c_str());
}

TEST_F(TraceTest, ExplicitTracksKeepSimTimestamps) {
  Tracer& tracer = Tracer::global();
  const TrackId gcu = tracer.track("machine", "GCU");
  const TrackId lru = tracer.track("machine", "LRU");
  EXPECT_NE(gcu, lru);
  EXPECT_EQ(tracer.track("machine", "GCU"), gcu);  // lookup, not duplicate
  tracer.complete(gcu, "convolution", 10.0, 5.0);
  tracer.counter(lru, "occupancy", 12.0, 0.5);
  const std::string json = tracer.to_json();
  check_trace_json(json);
  EXPECT_TRUE(process_names(json).count("machine"));
  EXPECT_EQ(count_ph(json, "C"), 1u);
}

// --- golden bytes of both trace writers ---------------------------------------

// FNV-1a-64 of the export up to (not including) "otherData": the event
// stream and its pid/tid layout.  otherData carries the build manifest
// (git describe, compiler), so it is checked by key instead.
std::uint64_t fnv1a64_before_other_data(const std::string& json) {
  const std::size_t end = json.find("\"otherData\"");
  EXPECT_NE(end, std::string::npos);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < end && i < json.size(); ++i) {
    h ^= static_cast<unsigned char>(json[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// The otherData keys beyond the manifest's own.
std::set<std::string> other_data_extras(const std::string& json) {
  std::set<std::string> keys;
  const JsonValue root = json_parse(json);
  for (const auto& [key, value] : root.at("otherData").as_object()) keys.insert(key);
  const JsonValue manifest = manifest_json();
  for (const auto& [key, value] : manifest.as_object()) {
    EXPECT_TRUE(keys.count(key)) << key;
    keys.erase(key);
  }
  return keys;
}

// Fixed tracks and events on the global tracer: three processes whose first
// appearances interleave, every event type, out-of-order and tied
// timestamps, and names that need JSON escaping.
void record_golden_events(Tracer& tracer) {
  const TrackId lane0 = tracer.track("machine", "lane 0");
  const TrackId link = tracer.track("net", "link \"x+\"");
  const TrackId lane1 = tracer.track("machine", "lane 1");
  const TrackId main = tracer.track("software", "main");
  tracer.complete(lane1, "conv", 40.25, 10.5, "level 1");
  tracer.complete(lane0, "ca", 12.0, 3.0);
  tracer.instant(main, "checkpoint", 7.125, "gen\t2");
  tracer.counter(link, "bytes", 3.0, 4096.0);
  tracer.complete(lane0, "bi", 5.0, 2.0);
  tracer.flow_start(main, "dispatch", 8.0, 77);
  tracer.counter(link, "bytes", 3.0, 512.5);
  tracer.complete(lane1, "restrict", 40.25, 1.0);
  tracer.flow_finish(lane0, "dispatch", 12.5, 77);
  tracer.instant(lane1, "retry", 1e6 + 0.0004);
}

obs::WorkerTelemetry golden_chunk(std::uint32_t rank, std::int64_t pid,
                                  std::uint64_t seq, double ts0) {
  obs::WorkerTelemetry t;
  t.rank = rank;
  t.pid = pid;
  t.seq = seq;
  t.chunk.tracks.push_back({"tasks", "rank " + std::to_string(rank)});
  t.chunk.tracks.push_back({"software", "thread " + std::to_string(seq)});
  t.chunk.emitted = 4 * seq;
  for (int i = 0; i < 4; ++i) {
    TraceEvent e;
    e.track = static_cast<TrackId>(i % 2);
    e.ts_us = ts0 + 10.0 * (3 - i);
    e.name = i == 3 ? "grid task" : "ca task";
    if (i == 2) {
      e.type = TraceEventType::kFlowFinish;
      e.flow = 77;
    } else if (i == 3) {
      e.type = TraceEventType::kInstant;
      e.detail = "late";
    } else {
      e.dur_us = 2.5;
    }
    t.chunk.events.push_back(std::move(e));
  }
  return t;
}

TEST_F(TraceTest, GoldenBytesOfTheTracerExport) {
  Tracer& tracer = Tracer::global();
  record_golden_events(tracer);
  const std::string json = tracer.to_json();
  check_trace_json(json);
  EXPECT_EQ(fnv1a64_before_other_data(json), 0xdb1cac9c02016bdcull) << json;
  EXPECT_EQ(other_data_extras(json),
            (std::set<std::string>{"trace_dropped", "trace_events"}));
  EXPECT_EQ(json_parse(json).at("otherData").at("trace_events").as_number(), 10.0);
}

TEST_F(TraceTest, GoldenBytesOfTheFleetMerge) {
  Tracer& tracer = Tracer::global();
  record_golden_events(tracer);
  FleetTelemetry fleet;
  fleet.set_offset(0, 4242, 125.5, 30.0);
  fleet.ingest(golden_chunk(0, 4242, 1, 1000.0));
  fleet.ingest(golden_chunk(1, 5151, 1, 20.0));
  fleet.ingest(golden_chunk(0, 4242, 2, 2000.0));
  const std::string json = fleet.to_json(tracer);
  check_trace_json(json);
  EXPECT_EQ(fnv1a64_before_other_data(json), 0x42546177c4d43c52ull) << json;
  EXPECT_EQ(other_data_extras(json),
            (std::set<std::string>{"clock_offsets", "telemetry_chunks",
                                   "telemetry_dropped", "telemetry_emitted",
                                   "telemetry_events_merged", "trace_dropped",
                                   "trace_events"}));
  EXPECT_EQ(json_parse(json).at("otherData").at("trace_events").as_number(), 22.0);
}

}  // namespace
}  // namespace tme::obs

namespace tme::hw {
namespace {

using obs::Tracer;

class HwTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!obs::kTraceEnabled) GTEST_SKIP() << "tracing compiled out";
    Tracer::global().reset_for_testing();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().reset_for_testing();
  }
};

TEST(TrackMeta, LaneLabelsCoverEveryScheduleLane) {
  // Labels drive the timechart legend and the trace rows: every lane the
  // event simulator emits must resolve to a descriptive label.
  for (const char* lane : {"GP", "PP", "NW", "LRU", "GCU", "TMENW"}) {
    EXPECT_NE(lane_label(lane), lane) << lane;
    EXPECT_FALSE(lane_label(lane).empty());
  }
  // Unknown lanes fall back to the key itself.
  EXPECT_EQ(lane_label("XYZ"), "XYZ");
}

TEST_F(HwTraceTest, TraceScheduleReplaysTasksOntoLaneTracks) {
  std::vector<ScheduledTask> schedule;
  schedule.push_back({{"integrate", "GP", 2e-6, {}, -1, 0, 0.0}, 0.0, 2e-6, 1, true});
  schedule.push_back({{"halo", "NW", 1e-6, {}, -1, 0, 0.0}, 0.0, 1e-6, 3, true});
  schedule.push_back({{"doomed", "NW", 1e-6, {}, -1, 0, 0.0}, 1e-6, 2e-6, 4, false});
  trace_schedule(schedule, "sim test");
  const std::string json = Tracer::global().to_json();
  obs::check_trace_json(json);
  EXPECT_TRUE(obs::process_names(json).count("sim test"));
  // 3 spans + retry instants (2 + 3 extra attempts) + one gave-up marker.
  EXPECT_EQ(obs::count_ph(json, "X"), 3u);
  EXPECT_EQ(obs::count_ph(json, "i"), 6u);
}

TEST_F(HwTraceTest, TraceStepEmitsNodeTracksFftStagesAndLinkCounters) {
  MachineParams mp;
  mp.nodes_x = mp.nodes_y = mp.nodes_z = 2;
  const MdgrapeMachine machine(mp);
  StepConfig config;
  config.dead_node_count = 1;
  const StepTimings timings = machine.simulate_step(config);
  ASSERT_NE(timings.links, nullptr);
  trace_step(timings, machine.params());

  const std::string json = Tracer::global().to_json();
  obs::check_trace_json(json);
  const std::set<std::string> procs = obs::process_names(json);
  EXPECT_TRUE(procs.count("machine step 1") == 1 ||
              procs.count("machine step 2") == 1)
      << "schedule tracks missing";
  bool node_proc = false;
  for (const std::string& p : procs) {
    if (p.rfind("torus nodes", 0) == 0) node_proc = true;
  }
  EXPECT_TRUE(node_proc);
  EXPECT_TRUE(procs.count("torus links"));
  EXPECT_GT(obs::count_ph(json, "C"), 0u);       // per-link counters
  EXPECT_NE(json.find("fft forward"), std::string::npos);
  EXPECT_NE(json.find("\"dead\""), std::string::npos);  // killed-node marker
}

TEST(LinkTelemetry, RecordTransferChargesEveryHopOnTheRoute) {
  const TorusTopology topo(4, 1, 1);
  LinkTelemetry links(topo);
  // 0 -> 2 is two +x hops: both links on the path get the bytes, the final
  // hop gets the CRC retries.
  links.record_transfer(0, 2, 100, 3);
  EXPECT_EQ(links.total_bytes(), 200u);
  EXPECT_EQ(links.total_messages(), 2u);
  EXPECT_EQ(links.total_crc_retries(), 3u);
  EXPECT_EQ(links.link(links.link_index(0, 0)).bytes, 100u);
  EXPECT_EQ(links.link(links.link_index(1, 0)).bytes, 100u);
  EXPECT_EQ(links.link(links.link_index(0, 0)).crc_retries, 0u);
  EXPECT_EQ(links.link(links.link_index(1, 0)).crc_retries, 3u);
  // Self transfers are node-local: no link traffic.
  links.record_transfer(2, 2, 999);
  EXPECT_EQ(links.total_bytes(), 200u);
}

TEST(LinkTelemetry, ReportJsonListsBusyLinksAndUtilization) {
  const TorusTopology topo(2, 2, 2);
  LinkTelemetry links(topo);
  links.record_transfer(0, 1, 4096);
  const NetworkParams nw;
  const obs::JsonValue report = links.report_json(nw, 1e-6);
  const auto& obj = report.as_object();
  EXPECT_EQ(obj.at("total_bytes").as_number(), 4096.0);
  const auto& busy = obj.at("links").as_object();  // keyed by link name
  ASSERT_EQ(busy.size(), 1u);                      // only non-idle links
  EXPECT_EQ(busy.begin()->first, "(0,0,0)+x");
  const auto& entry = busy.begin()->second.as_object();
  EXPECT_EQ(entry.at("bytes").as_number(), 4096.0);
  EXPECT_GT(entry.at("utilization").as_number(), 0.0);
  EXPECT_EQ(obj.at("busiest_link").as_string(), "(0,0,0)+x");
}

}  // namespace
}  // namespace tme::hw

namespace tme::par {
namespace {

TmeParams trace_test_params() {
  TmeParams tp;
  tp.alpha = alpha_from_tolerance(0.8, 1e-4);
  tp.grid = {32, 32, 32};
  tp.levels = 1;
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  return tp;
}

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

// The conservation invariant tying the two accounting layers together: the
// traffic log accumulates words x hops per message, the link telemetry
// charges 4-byte words to every link on each message's dimension-ordered
// route — on a healthy machine (routes == shortest paths) the totals must
// agree exactly.
TEST(LinkTelemetryConservation, HealthyMachineLinkBytesMatchWordHops) {
  const TorusTopology topo(2, 2, 2);
  const TestSystem sys = random_system(120, 6.4, 31);
  ParallelTme ptme(sys.box, trace_test_params(), topo);
  hw::LinkTelemetry links(topo);
  ptme.set_link_telemetry(&links);
  TrafficLog log;
  (void)ptme.compute(sys.positions, sys.charges, &log);
  EXPECT_GT(log.total_word_hops(), 0u);
  EXPECT_EQ(links.total_bytes(), 4 * log.total_word_hops());
  EXPECT_EQ(links.total_crc_retries(), 0u);
}

TEST(LinkTelemetryConservation, LinkErrorsAddRetriesAndStayConserved) {
  const TorusTopology topo(2, 2, 2);
  const TestSystem sys = random_system(120, 6.4, 31);
  hw::FaultConfig cfg;
  cfg.seed = 5;
  cfg.link_error_rate = 1e-2;
  hw::FaultInjector faults(cfg);

  ParallelTme ptme(sys.box, trace_test_params(), topo);
  ptme.set_fault_injector(&faults);  // stochastic only: no structural faults
  hw::LinkTelemetry links(topo);
  ptme.set_link_telemetry(&links);
  TrafficLog log;
  (void)ptme.compute(sys.positions, sys.charges, &log);
  // Retransmitted words are logged with the same hop count they were
  // charged with, so the invariant includes the retry traffic.
  EXPECT_GT(links.total_crc_retries(), 0u);
  EXPECT_GT(log.words_in("fault retransmission"), 0u);
  EXPECT_EQ(links.total_bytes(), 4 * log.total_word_hops());
}

}  // namespace
}  // namespace tme::par

namespace tme::obs {
namespace {

TEST(Manifest, CarriesBuildFactsAndRuntimeEntries) {
  manifest_set("test_runtime_key", 42.0);
  manifest_set("test_runtime_name", std::string("value"));
  const JsonValue m = manifest_json();
  const auto& obj = m.as_object();
  EXPECT_TRUE(obj.count("git_describe"));
  EXPECT_TRUE(obj.count("build_type"));
  EXPECT_TRUE(obj.count("env"));
  const auto& runtime = obj.at("runtime").as_object();
  EXPECT_EQ(runtime.at("test_runtime_key").as_number(), 42.0);
  EXPECT_EQ(runtime.at("test_runtime_name").as_string(), "value");
}

TEST(StructuredLog, JsonlSinkWritesOneObjectPerLine) {
  const ScratchDir dir;
  const std::string path = dir.file("trace_test_log.jsonl");
  std::remove(path.c_str());
  tme::set_log_json_path(path);
  tme::log_structured(tme::LogLevel::kWarn, "test_event",
                      {{"node", "3"}, {"detail", "quoted \"text\""}});
  tme::log_warn("plain message");
  tme::set_log_json_path("");  // close so the file is flushed and released

  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(json_parse(line));
  }
  ASSERT_EQ(lines.size(), 2u);
  const auto& first = lines[0].as_object();
  EXPECT_EQ(first.at("event").as_string(), "test_event");
  EXPECT_EQ(first.at("level").as_string(), "warn");
  EXPECT_EQ(first.at("node").as_string(), "3");
  EXPECT_EQ(first.at("detail").as_string(), "quoted \"text\"");
  EXPECT_TRUE(first.count("ts_us"));
  EXPECT_TRUE(first.count("tid"));
  const auto& second = lines[1].as_object();
  EXPECT_EQ(second.at("msg").as_string(), "plain message");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tme::obs
