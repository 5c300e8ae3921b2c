#include "par/telemetry.hpp"

#include <string>

#include "util/bytes.hpp"

namespace tme::par {

namespace {

constexpr std::uint32_t kTelemetryMagic = 0x314D4C54u;  // "TLM1"
constexpr std::uint64_t kMaxTracks = 1ull << 16;
constexpr std::uint64_t kMaxEvents = 1ull << 22;
constexpr std::uint64_t kMaxStringBytes = 1ull << 20;

void put_string(bytes::Writer& w, const std::string& s) {
  w.u64(s.size());
  w.raw(s.data(), s.size());
}

std::string get_string(bytes::Reader& r) {
  const std::size_t n = r.count(kMaxStringBytes);
  if (n > r.remaining()) throw bytes::Error("telemetry: truncated string");
  std::string s(n, '\0');
  r.raw(s.data(), n);
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_telemetry(const obs::WorkerTelemetry& t) {
  bytes::Writer w;
  w.u32(kTelemetryMagic);
  w.u32(t.rank);
  w.i64(t.pid);
  w.u64(t.seq);
  w.u64(t.chunk.emitted);
  w.u64(t.chunk.dropped);
  w.u64(t.chunk.tracks.size());
  for (const obs::TraceChunkTrack& track : t.chunk.tracks) {
    put_string(w, track.process);
    put_string(w, track.name);
  }
  w.u64(t.chunk.events.size());
  for (const obs::TraceEvent& e : t.chunk.events) {
    const std::uint8_t type = static_cast<std::uint8_t>(e.type);
    w.raw(&type, 1);
    w.u32(e.track);
    w.f64(e.ts_us);
    w.f64(e.dur_us);
    w.f64(e.value);
    w.u64(e.flow);
    put_string(w, e.name);
    put_string(w, e.detail);
  }
  put_string(w, t.metrics_json);
  return w.take();
}

obs::WorkerTelemetry decode_telemetry(
    const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  if (r.u32() != kTelemetryMagic) {
    throw bytes::Error("telemetry: bad payload magic");
  }
  obs::WorkerTelemetry t;
  t.rank = r.u32();
  t.pid = r.i64();
  t.seq = r.u64();
  t.chunk.emitted = r.u64();
  t.chunk.dropped = r.u64();
  const std::size_t n_tracks = r.count(kMaxTracks);
  t.chunk.tracks.reserve(n_tracks);
  for (std::size_t i = 0; i < n_tracks; ++i) {
    obs::TraceChunkTrack track;
    track.process = get_string(r);
    track.name = get_string(r);
    t.chunk.tracks.push_back(std::move(track));
  }
  const std::size_t n_events = r.count(kMaxEvents);
  t.chunk.events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i) {
    obs::TraceEvent e;
    std::uint8_t type = 0;
    r.raw(&type, 1);
    if (type > static_cast<std::uint8_t>(obs::TraceEventType::kFlowFinish)) {
      throw bytes::Error("telemetry: unknown event type");
    }
    e.type = static_cast<obs::TraceEventType>(type);
    e.track = r.u32();
    e.ts_us = r.f64();
    e.dur_us = r.f64();
    e.value = r.f64();
    e.flow = r.u64();
    e.name = get_string(r);
    e.detail = get_string(r);
    if (e.track >= n_tracks) {
      throw bytes::Error("telemetry: event track out of range");
    }
    t.chunk.events.push_back(std::move(e));
  }
  t.metrics_json = get_string(r);
  if (!r.done()) throw bytes::Error("telemetry: trailing bytes");
  return t;
}

}  // namespace tme::par
