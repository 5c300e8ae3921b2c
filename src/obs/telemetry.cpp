#include "obs/telemetry.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/io_shim.hpp"

namespace tme::obs {

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
  TraceChunk coord = coordinator.snapshot_chunk();
  const std::uint64_t coord_dropped = coord.dropped;
  // The coordinator's rows keep Tracer::to_json's numbering.
  TraceJsonWriter writer;
  writer.add_chunk(std::move(coord));

  // One merged process per worker incarnation, pids from 1001 up in arrival
  // order (stable for a fixed replay, far from the coordinator's 1..P).
  for (std::size_t i = 0; i < incarnations_.size(); ++i) {
    const Incarnation& inc = incarnations_[i];
    const std::uint32_t pid = static_cast<std::uint32_t>(1001 + i);
    writer.add_process(pid, "worker " + std::to_string(inc.rank) + " (pid " +
                                std::to_string(inc.pid) + ")");
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
          it = tid_of.emplace(key, writer.add_thread(pid, key)).first;
        }
        row[t] = it->second;
      }
      for (TraceEvent e : chunk.events) {
        if (e.track >= row.size()) continue;  // malformed shipment: drop event
        e.ts_us += shift;
        writer.add_event(pid, row[e.track], std::move(e));
      }
    }
  }

  JsonValue other = manifest_json();
  auto& obj = other.as_object();
  obj["trace_dropped"] = JsonValue::make_number(
      static_cast<double>(coord_dropped + dropped_total()));
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
  return writer.to_json(std::move(other));
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
