#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/io_shim.hpp"

namespace tme::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  // Same fixed microsecond precision as Tracer::to_json, so a merged file
  // and a single-process file format timestamps identically.
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

struct OutEvent {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  TraceEvent event;
};

struct OutTrack {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;
};

}  // namespace

FleetTelemetry::Incarnation& FleetTelemetry::incarnation(std::uint32_t rank,
                                                         std::int64_t pid) {
  for (Incarnation& inc : incarnations_) {
    if (inc.rank == rank && inc.pid == pid) return inc;
  }
  Incarnation inc;
  inc.rank = rank;
  inc.pid = pid;
  incarnations_.push_back(std::move(inc));
  return incarnations_.back();
}

void FleetTelemetry::set_offset(std::uint32_t rank, std::int64_t pid,
                                double offset_us, double rtt_us) {
  Incarnation& inc = incarnation(rank, pid);
  inc.offset_us = offset_us;
  inc.rtt_us = rtt_us;
  inc.has_offset = true;
}

void FleetTelemetry::ingest(WorkerTelemetry telemetry) {
  Incarnation& inc = incarnation(telemetry.rank, telemetry.pid);
  // Cumulative counters: the latest flush carries the largest values.
  inc.emitted = std::max(inc.emitted, telemetry.chunk.emitted);
  inc.dropped = std::max(inc.dropped, telemetry.chunk.dropped);
  if (!telemetry.metrics_json.empty() && telemetry.seq >= inc.last_seq) {
    inc.metrics_json = std::move(telemetry.metrics_json);
  }
  inc.last_seq = std::max(inc.last_seq, telemetry.seq);
  events_merged_ += telemetry.chunk.events.size();
  ++chunk_count_;
  inc.chunks.push_back(std::move(telemetry.chunk));
}

std::uint64_t FleetTelemetry::emitted_total() const {
  std::uint64_t total = 0;
  for (const Incarnation& inc : incarnations_) total += inc.emitted;
  return total;
}

std::uint64_t FleetTelemetry::dropped_total() const {
  std::uint64_t total = 0;
  for (const Incarnation& inc : incarnations_) total += inc.dropped;
  return total;
}

std::map<std::uint32_t, std::string> FleetTelemetry::latest_metrics() const {
  // Later incarnations of a rank overwrite earlier ones (arrival order).
  std::map<std::uint32_t, std::string> latest;
  for (const Incarnation& inc : incarnations_) {
    if (!inc.metrics_json.empty()) latest[inc.rank] = inc.metrics_json;
  }
  return latest;
}

void FleetTelemetry::publish_worker_metrics(Registry& registry) const {
  for (const auto& [rank, json] : latest_metrics()) {
    MetricsSnapshot snap;
    try {
      snap = metrics_from_json(json);
    } catch (const std::exception&) {
      continue;  // malformed shipment: skip, never poison the registry
    }
    const std::string prefix = "fleet/w" + std::to_string(rank) + "/worker/";
    for (const auto& [name, value] : snap.counters)
      registry.gauge_set(prefix + name, static_cast<double>(value));
    for (const auto& [name, value] : snap.gauges)
      registry.gauge_set(prefix + name, value);
    for (const auto& [name, stat] : snap.timers)
      registry.gauge_set(prefix + name + "_s", stat.seconds);
  }
}

std::string FleetTelemetry::to_json(const Tracer& coordinator) const {
  const TraceChunk coord = coordinator.snapshot_chunk();

  // Rebuild the coordinator's pid/tid numbering exactly as Tracer::to_json
  // does: pids by first process appearance in track-registration order,
  // tids globally unique in registration order.
  std::vector<std::string> processes;        // index + 1 == pid
  std::vector<OutTrack> out_tracks;
  std::vector<OutEvent> out_events;
  out_events.reserve(coord.events.size() + events_merged_);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> coord_row;  // per track
  coord_row.reserve(coord.tracks.size());
  for (const TraceChunkTrack& t : coord.tracks) {
    std::uint32_t pid = 0;
    for (std::size_t i = 0; i < processes.size(); ++i) {
      if (processes[i] == t.process) pid = static_cast<std::uint32_t>(i + 1);
    }
    if (pid == 0) {
      processes.push_back(t.process);
      pid = static_cast<std::uint32_t>(processes.size());
    }
    const std::uint32_t tid = static_cast<std::uint32_t>(out_tracks.size() + 1);
    coord_row.emplace_back(pid, tid);
    out_tracks.push_back(OutTrack{pid, tid, t.name});
  }
  for (const TraceEvent& e : coord.events) {
    const auto [pid, tid] = coord_row[e.track];
    out_events.push_back(OutEvent{pid, tid, e});
  }

  // One merged process per worker incarnation, pids from 1001 up in arrival
  // order (stable for a fixed replay, far from the coordinator's 1..P).
  struct WorkerProcess {
    std::uint32_t pid = 0;
    std::string name;
  };
  std::vector<WorkerProcess> worker_processes;
  std::uint32_t next_tid = static_cast<std::uint32_t>(out_tracks.size() + 1);
  for (std::size_t i = 0; i < incarnations_.size(); ++i) {
    const Incarnation& inc = incarnations_[i];
    const std::uint32_t pid = static_cast<std::uint32_t>(1001 + i);
    worker_processes.push_back(
        WorkerProcess{pid, "worker " + std::to_string(inc.rank) + " (pid " +
                               std::to_string(inc.pid) + ")"});
    const double shift = inc.has_offset ? -inc.offset_us : 0.0;
    // Worker-side tracks keep their origin process as a name prefix
    // ("software/thread 0", "tasks/rank 1") under the incarnation's pid.
    std::map<std::string, std::uint32_t> tid_of;
    for (const TraceChunk& chunk : inc.chunks) {
      std::vector<std::uint32_t> row(chunk.tracks.size(), 0);
      for (std::size_t t = 0; t < chunk.tracks.size(); ++t) {
        const std::string key =
            chunk.tracks[t].process + "/" + chunk.tracks[t].name;
        auto it = tid_of.find(key);
        if (it == tid_of.end()) {
          it = tid_of.emplace(key, next_tid++).first;
          out_tracks.push_back(OutTrack{pid, it->second, key});
        }
        row[t] = it->second;
      }
      for (const TraceEvent& e : chunk.events) {
        if (e.track >= row.size()) continue;  // malformed shipment: drop event
        OutEvent oe{pid, row[e.track], e};
        oe.event.ts_us += shift;
        out_events.push_back(std::move(oe));
      }
    }
  }

  std::stable_sort(out_events.begin(), out_events.end(),
                   [](const OutEvent& a, const OutEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.event.ts_us < b.event.ts_us;
                   });

  std::string out;
  out.reserve(out_events.size() * 96 + 4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (std::size_t p = 0; p < processes.size(); ++p) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(p + 1);
    out += ",\"tid\":0,\"args\":{\"name\":" + json_quote(processes[p]) + "}}";
  }
  for (const WorkerProcess& wp : worker_processes) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(wp.pid);
    out += ",\"tid\":0,\"args\":{\"name\":" + json_quote(wp.name) + "}}";
  }
  for (const OutTrack& t : out_tracks) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(t.pid);
    out += ",\"tid\":";
    out += std::to_string(t.tid);
    out += ",\"args\":{\"name\":" + json_quote(t.name) + "}}";
  }
  for (const OutEvent& oe : out_events) {
    const TraceEvent& e = oe.event;
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
    out += ",\"pid\":" + std::to_string(oe.pid);
    out += ",\"tid\":" + std::to_string(oe.tid);
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
  JsonValue other = manifest_json();
  auto& obj = other.as_object();
  obj["trace_events"] =
      JsonValue::make_number(static_cast<double>(out_events.size()));
  obj["trace_dropped"] = JsonValue::make_number(
      static_cast<double>(coord.dropped + dropped_total()));
  obj["telemetry_chunks"] =
      JsonValue::make_number(static_cast<double>(chunk_count_));
  obj["telemetry_events_merged"] =
      JsonValue::make_number(static_cast<double>(events_merged_));
  obj["telemetry_emitted"] =
      JsonValue::make_number(static_cast<double>(emitted_total()));
  obj["telemetry_dropped"] =
      JsonValue::make_number(static_cast<double>(dropped_total()));
  JsonValue offsets = JsonValue::make_array();
  for (const Incarnation& inc : incarnations_) {
    JsonValue row = JsonValue::make_object();
    auto& ro = row.as_object();
    ro["rank"] = JsonValue::make_number(static_cast<double>(inc.rank));
    ro["pid"] = JsonValue::make_number(static_cast<double>(inc.pid));
    ro["offset_us"] = JsonValue::make_number(inc.offset_us);
    ro["rtt_us"] = JsonValue::make_number(inc.rtt_us);
    ro["has_offset"] = JsonValue::make_bool(inc.has_offset);
    offsets.as_array().push_back(std::move(row));
  }
  obj["clock_offsets"] = std::move(offsets);
  out += other.dump();
  out += "}\n";
  return out;
}

bool FleetTelemetry::write(const std::string& path,
                           const Tracer& coordinator) const {
  try {
    io::write_file_durable(path, to_json(coordinator));
    return true;
  } catch (const io::IoError&) {
    return false;
  }
}

void FleetTelemetry::clear() {
  incarnations_.clear();
  chunk_count_ = 0;
  events_merged_ = 0;
}

}  // namespace tme::obs
