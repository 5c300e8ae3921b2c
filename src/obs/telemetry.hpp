// Fleet-wide telemetry aggregation: merge worker trace chunks and metric
// snapshots into one coordinator-side timeline.
//
// Workers run their own process-local Tracer and Registry; the transport
// layer ships sealed TraceChunks (plus a metrics-snapshot JSON) back to the
// coordinator as kTelemetry messages.  This class owns the coordinator-side
// half: it keys every (rank, os pid) incarnation separately — a respawned
// worker has a fresh tracer epoch and must never share a clock mapping with
// its predecessor — applies the per-incarnation clock offset estimated from
// ping/pong round trips (obs/clock.hpp), and writes one Chrome/Perfetto
// JSON with a process track per worker incarnation next to the
// coordinator's own tracks.  The file is laid out and formatted by
// TraceJsonWriter (obs/trace.hpp), the writer Tracer::to_json uses, so the
// coordinator's rows carry the same pids and tids in both files.
//
// Conservation: chunks carry *cumulative* emitted/dropped counters, so for
// a fully-flushed incarnation  emitted == merged events + dropped  holds
// exactly, and the merged file reports fleet-wide totals in otherData.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tme::obs {

class Registry;
class Tracer;

// One telemetry shipment from a worker, decoded off the wire
// (par/telemetry.hpp owns the codec).
struct WorkerTelemetry {
  std::uint32_t rank = 0;
  std::int64_t pid = 0;       // worker os pid, stamps the incarnation
  std::uint64_t seq = 0;      // per-incarnation flush sequence number
  TraceChunk chunk;
  std::string metrics_json;   // obs::to_json of the worker's registry ("" ok)
};

class FleetTelemetry {
 public:
  // Records (or refreshes) the clock offset for a worker incarnation:
  // local = remote - offset_us, error bound rtt_us / 2.  Creates the
  // incarnation record if this is the first contact (init handshake
  // usually lands before any telemetry chunk).
  void set_offset(std::uint32_t rank, std::int64_t pid, double offset_us,
                  double rtt_us);

  void ingest(WorkerTelemetry telemetry);

  std::size_t chunk_count() const { return chunk_count_; }
  std::uint64_t events_merged() const { return events_merged_; }
  // Cumulative totals across incarnations (latest counter per incarnation).
  std::uint64_t emitted_total() const;
  std::uint64_t dropped_total() const;
  std::size_t incarnation_count() const { return incarnations_.size(); }

  // Latest worker metrics-snapshot JSON per rank (most recent incarnation
  // and flush wins).  Empty strings are skipped.
  std::map<std::uint32_t, std::string> latest_metrics() const;

  // Re-publishes every worker's latest counters, gauges and timer seconds
  // into `registry` as gauges named "fleet/w<rank>/worker/<name>", so the
  // fleet view lands in ordinary BENCH_*.json exports.  Malformed snapshots
  // are skipped.
  void publish_worker_metrics(Registry& registry) const;

  // Serialises the merged timeline: the coordinator tracer's own events
  // (snapshot, non-consuming) on its usual process tracks, plus one process
  // per worker incarnation ("worker <rank> (pid <p>)", merged pid 1001+)
  // with timestamps shifted onto the coordinator clock.  Deterministic for
  // a fixed ingest order: byte-identical output for identical inputs.
  std::string to_json(const Tracer& coordinator) const;
  // to_json() through io::write_file_durable; false on I/O failure.
  bool write(const std::string& path, const Tracer& coordinator) const;

  void clear();

 private:
  struct Incarnation {
    std::uint32_t rank = 0;
    std::int64_t pid = 0;
    double offset_us = 0.0;
    double rtt_us = 0.0;
    bool has_offset = false;
    std::uint64_t emitted = 0;  // latest cumulative counters seen
    std::uint64_t dropped = 0;
    std::uint64_t last_seq = 0;
    std::string metrics_json;
    std::vector<TraceChunk> chunks;
  };

  Incarnation& incarnation(std::uint32_t rank, std::int64_t pid);

  std::vector<Incarnation> incarnations_;  // arrival order: stable merge pids
  std::size_t chunk_count_ = 0;
  std::uint64_t events_merged_ = 0;
};

}  // namespace tme::obs
