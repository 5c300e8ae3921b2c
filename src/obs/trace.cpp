#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "util/io_shim.hpp"

namespace tme::obs {

namespace {

// obs sits below util in the link order, so it cannot use util/env; the two
// variables read here are simple enough for direct parsing.
bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  return std::strcmp(raw, "1") == 0 || std::strcmp(raw, "on") == 0 ||
         std::strcmp(raw, "ON") == 0 || std::strcmp(raw, "true") == 0 ||
         std::strcmp(raw, "TRUE") == 0;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || v == 0) return fallback;
  return static_cast<std::size_t>(v);
}

void append_number(std::string& out, double v) {
  char buf[32];
  // Timestamps and counter values: fixed microsecond precision keeps the
  // file compact and is far below anything the viewer can display.
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

void TraceJsonWriter::add_chunk(TraceChunk chunk) {
  std::vector<std::uint32_t> tid_of(chunk.tracks.size());
  std::vector<std::uint32_t> pid_of(chunk.tracks.size());
  for (std::size_t t = 0; t < chunk.tracks.size(); ++t) {
    std::string& process = chunk.tracks[t].process;
    std::uint32_t pid = 0;
    for (const Row& p : processes_) {
      if (p.name == process) pid = p.pid;
    }
    if (pid == 0) {
      pid = static_cast<std::uint32_t>(processes_.size() + 1);
      add_process(pid, std::move(process));
    }
    pid_of[t] = pid;
    tid_of[t] = add_thread(pid, std::move(chunk.tracks[t].name));
  }
  events_.reserve(events_.size() + chunk.events.size());
  for (TraceEvent& e : chunk.events) {
    const TrackId t = e.track;
    add_event(pid_of[t], tid_of[t], std::move(e));
  }
}

void TraceJsonWriter::add_process(std::uint32_t pid, std::string name) {
  processes_.push_back(Row{pid, 0, std::move(name)});
}

std::uint32_t TraceJsonWriter::add_thread(std::uint32_t pid, std::string name) {
  const auto tid = static_cast<std::uint32_t>(threads_.size() + 1);
  threads_.push_back(Row{pid, tid, std::move(name)});
  return tid;
}

void TraceJsonWriter::add_event(std::uint32_t pid, std::uint32_t tid,
                                TraceEvent event) {
  events_.push_back(PlacedEvent{pid, tid, std::move(event)});
}

std::string TraceJsonWriter::to_json(JsonValue other) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const PlacedEvent& a, const PlacedEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.event.ts_us < b.event.ts_us;
                   });

  std::string out;
  out.reserve(events_.size() * 96 + 4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // Metadata records: name the processes and track rows.
  for (const Row& p : processes_) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(p.pid);
    out += ",\"tid\":0,\"args\":{\"name\":" + json_quote(p.name) + "}}";
  }
  for (const Row& t : threads_) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(t.pid);
    out += ",\"tid\":";
    out += std::to_string(t.tid);
    out += ",\"args\":{\"name\":" + json_quote(t.name) + "}}";
  }
  for (const PlacedEvent& pe : events_) {
    const TraceEvent& e = pe.event;
    sep();
    out += "{\"ph\":\"";
    switch (e.type) {
      case TraceEventType::kComplete: out += 'X'; break;
      case TraceEventType::kInstant: out += 'i'; break;
      case TraceEventType::kCounter: out += 'C'; break;
      case TraceEventType::kFlowStart: out += 's'; break;
      case TraceEventType::kFlowFinish: out += 'f'; break;
    }
    out += "\",\"name\":" + json_quote(e.name);
    out += ",\"pid\":" + std::to_string(pe.pid);
    out += ",\"tid\":" + std::to_string(pe.tid);
    out += ",\"ts\":";
    append_number(out, e.ts_us);
    if (e.type == TraceEventType::kComplete) {
      out += ",\"dur\":";
      append_number(out, e.dur_us);
    }
    if (e.type == TraceEventType::kInstant) out += ",\"s\":\"t\"";
    if (e.type == TraceEventType::kFlowStart ||
        e.type == TraceEventType::kFlowFinish) {
      out += ",\"cat\":\"flow\",\"id\":" + std::to_string(e.flow);
      if (e.type == TraceEventType::kFlowFinish) out += ",\"bp\":\"e\"";
    }
    if (e.type == TraceEventType::kCounter) {
      out += ",\"args\":{\"value\":";
      append_number(out, e.value);
      out += "}";
    } else if (!e.detail.empty()) {
      out += ",\"args\":{\"detail\":" + json_quote(e.detail) + "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":";
  other.as_object()["trace_events"] =
      JsonValue::make_number(static_cast<double>(events_.size()));
  out += other.dump();
  out += "}\n";
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  enabled_.store(env_flag("TME_TRACE"), std::memory_order_relaxed);
  capacity_.store(env_size("TME_TRACE_BUFFER", 65536), std::memory_order_relaxed);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_us() const {
  const auto delta = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(delta).count();
}

TrackId Tracer::track(const std::string& process, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].process == process && tracks_[i].name == name)
      return static_cast<TrackId>(i);
  }
  tracks_.push_back(TraceChunkTrack{process, name});
  return static_cast<TrackId>(tracks_.size() - 1);
}

Tracer::Buffer& Tracer::local_buffer() {
  struct Local {
    std::shared_ptr<Buffer> buffer;
    std::uint64_t generation = ~std::uint64_t{0};
    TrackId track = 0;
  };
  thread_local Local local;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (local.buffer == nullptr || local.generation != gen) {
    auto buffer = std::make_shared<Buffer>();
    buffer->capacity = capacity_.load(std::memory_order_relaxed);
    buffer->events.reserve(buffer->capacity);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(buffer);
    }
    local.buffer = std::move(buffer);
    local.generation = gen;
  }
  return *local.buffer;
}

TrackId Tracer::thread_track() {
  struct Local {
    TrackId track = 0;
    std::uint64_t generation = ~std::uint64_t{0};
  };
  thread_local Local local;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (local.generation != gen) {
    std::uint32_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      index = thread_count_++;
    }
    local.track = track("software", "thread " + std::to_string(index));
    local.generation = gen;
  }
  return local.track;
}

void Tracer::append(TraceEvent event) {
  Buffer& buf = local_buffer();
  const std::size_t size = buf.size.load(std::memory_order_relaxed);
  if (size >= buf.capacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(std::move(event));
  // Publish after the element is fully constructed so a concurrent export
  // sees only complete events.
  buf.size.store(size + 1, std::memory_order_release);
}

void Tracer::complete(TrackId track, std::string name, double ts_us,
                      double dur_us, std::string detail) {
  if (!enabled()) return;
  TraceEvent e;
  e.type = TraceEventType::kComplete;
  e.track = track;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = std::move(name);
  e.detail = std::move(detail);
  append(std::move(e));
}

void Tracer::instant(TrackId track, std::string name, double ts_us,
                     std::string detail) {
  if (!enabled()) return;
  TraceEvent e;
  e.type = TraceEventType::kInstant;
  e.track = track;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.detail = std::move(detail);
  append(std::move(e));
}

void Tracer::instant_now(std::string name, std::string detail) {
  if (!enabled()) return;
  instant(thread_track(), std::move(name), now_us(), std::move(detail));
}

void Tracer::counter(TrackId track, std::string name, double ts_us,
                     double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.type = TraceEventType::kCounter;
  e.track = track;
  e.ts_us = ts_us;
  e.value = value;
  e.name = std::move(name);
  append(std::move(e));
}

void Tracer::flow_start(TrackId track, std::string name, double ts_us,
                        std::uint64_t flow_id) {
  if (!enabled()) return;
  TraceEvent e;
  e.type = TraceEventType::kFlowStart;
  e.track = track;
  e.ts_us = ts_us;
  e.flow = flow_id;
  e.name = std::move(name);
  append(std::move(e));
}

void Tracer::flow_finish(TrackId track, std::string name, double ts_us,
                         std::uint64_t flow_id) {
  if (!enabled()) return;
  TraceEvent e;
  e.type = TraceEventType::kFlowFinish;
  e.track = track;
  e.ts_us = ts_us;
  e.flow = flow_id;
  e.name = std::move(name);
  append(std::move(e));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buf : buffers_) total += buf->size.load(std::memory_order_acquire);
  return total;
}

std::size_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buf : buffers_)
    total += static_cast<std::size_t>(buf->dropped.load(std::memory_order_relaxed));
  return total;
}

TraceChunk Tracer::collect(bool consume) const {
  TraceChunk chunk;
  std::lock_guard<std::mutex> lock(mutex_);
  chunk.tracks = tracks_;
  for (const auto& buf : buffers_) {
    const std::size_t size = buf->size.load(std::memory_order_acquire);
    const std::uint64_t dropped = buf->dropped.load(std::memory_order_relaxed);
    // `emitted` counts every recording attempt (kept + overflowed), so the
    // receiver's conservation check  emitted == merged + dropped  closes.
    chunk.emitted += size + dropped;
    chunk.dropped += dropped;
    for (std::size_t i = consume ? buf->consumed : 0; i < size; ++i)
      chunk.events.push_back(buf->events[i]);
    if (consume) buf->consumed = size;
  }
  return chunk;
}

TraceChunk Tracer::drain_chunk() { return collect(true); }

TraceChunk Tracer::snapshot_chunk() const { return collect(false); }

std::size_t Tracer::undrained_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buf : buffers_)
    total += buf->size.load(std::memory_order_acquire) - buf->consumed;
  return total;
}

std::string Tracer::to_json() const {
  TraceChunk chunk = snapshot_chunk();
  const std::uint64_t dropped = chunk.dropped;
  TraceJsonWriter writer;
  writer.add_chunk(std::move(chunk));
  JsonValue other = manifest_json();
  other.as_object()["trace_dropped"] = JsonValue::make_number(static_cast<double>(dropped));
  return writer.to_json(std::move(other));
}

bool Tracer::write(const std::string& path) const {
  try {
    io::write_file_durable(path, to_json());
    return true;
  } catch (const io::IoError&) {
    return false;
  }
}

void Tracer::set_buffer_capacity(std::size_t events) {
  if (events == 0) events = 1;
  capacity_.store(events, std::memory_order_relaxed);
}

void Tracer::reset_for_testing() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  tracks_.clear();
  thread_count_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace tme::obs
