// Low-overhead span tracing with Chrome trace-event / Perfetto JSON export.
//
// The metrics registry (obs/metrics.hpp) answers "how much time did each
// stage take in aggregate"; this module answers "when did every span run,
// on which thread or simulated hardware unit".  Three event sources feed
// one process-wide Tracer:
//  - software spans: every TME_PHASE site (bridged from ScopedPhase) plus
//    explicit TME_TRACE_SPAN scopes, stamped with wall-clock monotonic
//    timestamps on the emitting thread's track;
//  - simulated-hardware spans: schedule tasks, torus-node activity and
//    retry/backoff episodes replayed in *simulated* time onto explicitly
//    registered tracks (hw/track_meta.hpp feeds these from the event
//    simulator and the machine model);
//  - counter samples: per-link traffic/utilization tracks (hw/link_stats).
//
// Recording is wait-free on the hot path: each thread appends into its own
// pre-reserved ring buffer (registered once with the Tracer), and a full
// buffer counts drops instead of blocking or reallocating.  Tracing costs
// one relaxed atomic load when runtime-disabled, and compiles out entirely
// (macros expand to nothing, kTraceEnabled = false) when the build is
// configured with -DTME_TRACE=OFF — mirroring TME_METRICS.  At runtime the
// tracer starts disabled unless the TME_TRACE environment variable is set
// to 1/on/true; benches enable it for --trace-out runs.
//
// TraceJsonWriter is the one Chrome trace-event writer: it owns the pid/tid
// numbering, the process/thread metadata records and the event format.
// Tracer::to_json runs it over one chunk; the fleet merge
// (obs/telemetry.hpp) runs it over the coordinator's chunk plus one process
// per worker incarnation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tme::obs {

class JsonValue;

#if defined(TME_TRACE_ENABLED)
inline constexpr bool kTraceEnabled = true;
#else
inline constexpr bool kTraceEnabled = false;
#endif

// Identifies a (process, thread) row in the exported trace.  Obtain from
// Tracer::track(); the id stays valid until reset_for_testing().
using TrackId = std::uint32_t;

enum class TraceEventType : std::uint8_t {
  kComplete,    // "X": a span with ts + dur
  kInstant,     // "i": a point event
  kCounter,     // "C": a sampled counter value
  kFlowStart,   // "s": flow arrow tail, bound to the enclosing slice
  kFlowFinish,  // "f": flow arrow head (binding point "e")
};

struct TraceEvent {
  TraceEventType type = TraceEventType::kComplete;
  TrackId track = 0;
  double ts_us = 0.0;   // microseconds: wall (since tracer epoch) or sim time
  double dur_us = 0.0;  // kComplete only
  double value = 0.0;   // kCounter only
  std::uint64_t flow = 0;  // kFlowStart/kFlowFinish only: the flow id
  std::string name;
  std::string detail;   // optional; exported as args.detail when non-empty
};

// A self-contained batch of events drained from (or snapshotted out of) a
// Tracer, with its own track table so it can cross a process boundary: the
// worker serialises a chunk over the wire and the coordinator re-binds the
// tracks into its merged timeline (obs/telemetry.hpp).  `emitted` and
// `dropped` are *cumulative* for the producing tracer, so the receiver can
// verify conservation (emitted == merged + dropped) across any number of
// flush boundaries without per-chunk bookkeeping.
struct TraceChunkTrack {
  std::string process;
  std::string name;
};

struct TraceChunk {
  std::vector<TraceChunkTrack> tracks;  // TraceEvent::track indexes this table
  std::vector<TraceEvent> events;
  std::uint64_t emitted = 0;  // cumulative recording attempts (kept + dropped)
  std::uint64_t dropped = 0;  // cumulative events dropped (rings full)
};

// Lays out trace rows and events and serialises them as one Chrome
// trace-event JSON object.  Process rows are written first (in the order
// they were added), then thread rows, then the events sorted stably by
// (pid, tid, ts), so per-track timestamps are monotone.
class TraceJsonWriter {
 public:
  // Adds a tracer's tracks and events with the tracer's own numbering:
  // pids 1, 2, ... by first appearance of a process in track-registration
  // order, tids in registration order.  Call it before add_process.
  void add_chunk(TraceChunk chunk);
  void add_process(std::uint32_t pid, std::string name);
  // Adds a thread row under `pid` and returns its tid, numbered 1, 2, ...
  // across every row added so far (unique within a pid would do; globally
  // unique is simpler and renders identically).
  std::uint32_t add_thread(std::uint32_t pid, std::string name);
  void add_event(std::uint32_t pid, std::uint32_t tid, TraceEvent event);

  // The whole trace-event object, with `other` (an object, which gains
  // "trace_events", the number of events) as its otherData.
  std::string to_json(JsonValue other);

 private:
  struct Row {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;  // 0 for a process row
    std::string name;
  };
  struct PlacedEvent {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    TraceEvent event;
  };

  std::vector<Row> processes_;
  std::vector<Row> threads_;
  std::vector<PlacedEvent> events_;
};

class Tracer {
 public:
  // The process-wide tracer used by all instrumentation macros and feeders.
  static Tracer& global();

  // Runtime switch.  The initial value comes from the TME_TRACE environment
  // variable (1/on/true enables); set_enabled overrides it.  Spans opened
  // while disabled are not recorded even if tracing is enabled before they
  // close (no half-captured spans).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  // Registers (or looks up) a track.  Tracks are grouped by `process` in the
  // trace viewer; `name` labels the row.  Thread-safe; ids are assigned in
  // first-registration order, so a fixed call order gives a fixed layout.
  TrackId track(const std::string& process, const std::string& name);

  // The calling thread's own wall-clock track ("software" process), created
  // on first use as "thread <n>" in registration order.
  TrackId thread_track();

  // Microseconds of monotonic wall clock since the tracer epoch.
  double now_us() const;

  // --- recording (no-ops when runtime-disabled) ---------------------------
  // Wall-clock span/instant on the calling thread's software track.
  void complete(TrackId track, std::string name, double ts_us, double dur_us,
                std::string detail = {});
  void instant(TrackId track, std::string name, double ts_us,
               std::string detail = {});
  void instant_now(std::string name, std::string detail = {});
  // Counter sample (ph "C"): one series named `name` on `track`.
  void counter(TrackId track, std::string name, double ts_us, double value);
  // Flow arrows (ph "s"/"f"): `flow_start` marks the tail inside the slice
  // enclosing ts_us on `track`, `flow_finish` the head.  The coordinator
  // stamps a start on its dispatch span and the worker a finish on the task
  // span, so the merged timeline draws dispatch -> execution arrows.
  void flow_start(TrackId track, std::string name, double ts_us,
                  std::uint64_t flow_id);
  void flow_finish(TrackId track, std::string name, double ts_us,
                   std::uint64_t flow_id);

  // --- export -------------------------------------------------------------
  // Events recorded / events dropped because a thread's ring was full.
  std::size_t event_count() const;
  std::size_t dropped_count() const;

  // --- chunked export (fleet telemetry) -----------------------------------
  // Moves every not-yet-drained event out of the rings into a chunk.  The
  // rings stay append-only (concurrent recorders are never disturbed); a
  // per-buffer consumed cursor advances under the lock.  Chunk counters are
  // cumulative, so the last chunk of a run carries the final totals.
  TraceChunk drain_chunk();
  // Copies everything recorded so far without consuming (coordinator-side
  // merge of its own events while the process keeps tracing).
  TraceChunk snapshot_chunk() const;
  // Events recorded but not yet drained — flush-threshold probe.
  std::size_t undrained_count() const;

  // Serialises snapshot_chunk() through TraceJsonWriter, with the run
  // manifest plus "trace_dropped" as otherData.  Safe to call while other
  // threads record (they keep appending; the export sees a consistent
  // prefix of each buffer).
  std::string to_json() const;

  // to_json() to a file through io::write_file_durable; returns false (and
  // logs nothing) on I/O failure.
  bool write(const std::string& path) const;

  // Per-thread ring capacity for buffers created *after* this call (existing
  // buffers are retired by reset_for_testing).  Default 65536 events,
  // overridable at startup with TME_TRACE_BUFFER.
  void set_buffer_capacity(std::size_t events);
  std::size_t buffer_capacity() const { return capacity_.load(std::memory_order_relaxed); }

  // Drops all recorded events, tracks and thread buffers and re-arms the
  // epoch.  Outstanding TrackIds become invalid.  Tests only.
  void reset_for_testing();

 private:
  friend class TraceSpan;

  struct Buffer {
    std::vector<TraceEvent> events;       // reserved to capacity, append-only
    std::atomic<std::size_t> size{0};     // published length (release on write)
    std::atomic<std::uint64_t> dropped{0};
    std::size_t capacity = 0;
    std::size_t consumed = 0;  // drained prefix; guarded by Tracer::mutex_
  };

  Tracer();
  Buffer& local_buffer();
  void append(TraceEvent event);
  // The one chunk collector: every buffer's events from its drained cursor
  // (consume) or from the start (snapshot).  Consuming advances the
  // cursors, which live in the shared buffers under mutex_.
  TraceChunk collect(bool consume) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{65536};
  std::atomic<std::uint64_t> generation_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  // guards buffers_, tracks_
  std::vector<std::shared_ptr<Buffer>> buffers_;
  std::vector<TraceChunkTrack> tracks_;  // TrackId indexes this table
  std::uint32_t thread_count_ = 0;
};

// True when tracing is compiled in *and* runtime-enabled — the one check
// every feeder performs before doing any work.
inline bool tracing_active() {
  if constexpr (!kTraceEnabled) {
    return false;
  } else {
    return Tracer::global().enabled();
  }
}

// RAII wall-clock span on the calling thread's track.  `name` must outlive
// the scope (string literals at the instrumentation sites).  If tracing is
// disabled at construction the destructor does nothing.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (tracing_active()) {
      name_ = name;
      start_us_ = Tracer::global().now_us();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr && tracing_active()) {
      Tracer& t = Tracer::global();
      const double now = t.now_us();
      t.complete(t.thread_track(), name_, start_us_, now - start_us_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace tme::obs

#if defined(TME_TRACE_ENABLED)

#define TME_TRACE_SPAN(name) \
  ::tme::obs::TraceSpan TME_OBS_TRACE_CONCAT(tme_trace_span_, __LINE__)(name)

#define TME_TRACE_INSTANT(name)                                   \
  do {                                                            \
    if (::tme::obs::tracing_active())                             \
      ::tme::obs::Tracer::global().instant_now(name);             \
  } while (0)

// `detail` may be any std::string-convertible expression; it is evaluated
// only when tracing is active.
#define TME_TRACE_INSTANT_D(name, detail)                         \
  do {                                                            \
    if (::tme::obs::tracing_active())                             \
      ::tme::obs::Tracer::global().instant_now(name, (detail));   \
  } while (0)

#define TME_OBS_TRACE_CONCAT_INNER(a, b) a##b
#define TME_OBS_TRACE_CONCAT(a, b) TME_OBS_TRACE_CONCAT_INNER(a, b)

#else  // tracing compiled out

#define TME_TRACE_SPAN(name) \
  do {                       \
  } while (0)
#define TME_TRACE_INSTANT(name) \
  do {                          \
  } while (0)
#define TME_TRACE_INSTANT_D(name, detail) \
  do {                                    \
    (void)sizeof(detail);                 \
  } while (0)

#endif
