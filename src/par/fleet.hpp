// WorkerFleet: a NodeExecutor that ships node tasks to worker processes over
// a ProcTransport, with this fault machinery:
//
//   detection    a crashed worker surfaces as a closed connection (EOF on a
//                SIGKILLed process's socket); a hung or starved worker is
//                caught by a per-worker deadline on its oldest unanswered
//                task.
//   retry        deadline expiry retransmits the worker's in-flight tasks
//                with exponential backoff (timeout + base * 2^attempt), the
//                same discipline hw/network_model applies per link; CRC
//                rejects on either side are absorbed the same way.  Tasks
//                are pure and results dedup by task id, so at-least-once
//                delivery cannot change the physics.
//   re-homing    workers talk only to the coordinator (a star, not the
//                torus), so any survivor can host any node: a dead worker's
//                nodes go to the next alive worker in rank order.  With no
//                worker alive, dispatch throws TransportError: the
//                last-survivor refusal.
//   restart      with respawn enabled the dead worker is relaunched and
//                re-initialised from the CRC-sealed context checkpoint, then
//                rejoins the mapping for subsequent work.
//
// The coordinator integrates results in task order regardless of which
// worker (or respawn generation) produced them, so forces after any number
// of recoveries are bitwise identical to the fault-free run.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "hw/link_stats.hpp"
#include "hw/torus.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/executor.hpp"
#include "par/health.hpp"
#include "par/proc_transport.hpp"
#include "par/worker.hpp"

namespace tme::par {

struct FleetConfig {
  // Workers are always processes; kProc is the only value, kept for callers
  // that still name it.
  enum class Backend { kProc = 1 };
  Backend backend = Backend::kProc;
  std::size_t workers = 2;
  long timeout_ms = 2000;      // per-worker deadline on the oldest unanswered task
  int max_retries = 3;         // retransmission rounds before a worker is declared dead
  long backoff_base_ms = 10;   // first retransmission backoff; doubles per round
  bool respawn = true;         // relaunch dead workers from the sealed context
  // >0: kill_worker / quiesce escalation sends SIGTERM and waits this long
  // for a voluntary drain before SIGKILL.
  long term_grace_ms = 0;
  std::string worker_bin;      // fork+exec this binary (empty = plain fork)
  std::string context_path;    // CRC-sealed context checkpoint (empty = in-memory)
  TransportFaultPolicy net_fault;
  // Per-rank misbehaviour drills; shorter than `workers` means default
  // (well-behaved) policies for the remaining ranks.
  std::vector<WorkerFaultPolicy> worker_faults;
  // Arm fleet-wide telemetry: workers run their own tracer + registry and
  // ship sealed chunks back, the coordinator estimates per-worker clock
  // offsets from the init/ping round trips and merges everything into one
  // timeline.  Effective only when tracing is compiled in and
  // runtime-enabled on the coordinator.
  bool telemetry = true;
};

struct FleetStats {
  std::uint64_t tasks_sent = 0;
  std::uint64_t results_received = 0;
  std::uint64_t duplicate_results = 0;  // retransmission echoes, dropped by id
  std::uint64_t retransmissions = 0;    // deadline-expiry resend rounds
  std::uint64_t worker_deaths = 0;      // EOF crashes + hung declarations
  std::uint64_t rehomed_tasks = 0;      // tasks moved to a survivor's worker
  std::uint64_t respawns = 0;
  std::uint64_t reinits = 0;            // successful Init/InitAck handshakes
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_missed = 0;
};

class WorkerFleet : public NodeExecutor {
 public:
  // `topo` is the logical node torus the tasks' node ids index into (the one
  // ParallelTme was built with); worker w hosts nodes {n : n % workers == w}
  // while it is alive.  Both references must outlive the fleet.
  WorkerFleet(const PipelineContext& ctx, const hw::TorusTopology& topo,
              FleetConfig cfg);
  ~WorkerFleet() override;

  std::vector<Grid3d> run_grid(std::vector<GridBlockTask> tasks) override;
  std::vector<ExtendedBlock> run_ca(std::vector<CaBlockTask> tasks) override;
  std::vector<BiBlockResult> run_bi(std::vector<BiBlockTask> tasks) override;
  // "fleet/proc x<workers>", e.g. "fleet/proc x2".
  std::string name() const override;

  // Pings every live worker and waits for the pongs; a miss counts against
  // the worker (and is reported to the health monitor, if any).  Returns the
  // number of workers that answered in time.
  std::size_t heartbeat(std::chrono::milliseconds timeout);

  // Graceful stop: re-seals the context checkpoint (when configured), then
  // runs the kShutdown/kBye handshake with every live worker so processes
  // drain and exit 0 instead of being SIGKILLed by the destructor.  Returns
  // true when every live worker acknowledged.  Idempotent; after a quiesce
  // the destructor only tears down the transport.
  bool quiesce();
  bool quiesced() const { return stopped_; }

  // Swaps the packet drop/corrupt policy mid-run (chaos packet windows).
  void set_net_fault(const TransportFaultPolicy& fault);

  // Drill triggers / introspection.
  void kill_worker(std::size_t w);  // SIGKILL
  // SIGTERM-with-deadline, falling back to SIGKILL.
  void term_worker(std::size_t w, long grace_ms);
  // True when the worker's last process exited voluntarily with status 0 —
  // "asked to stop" rather than "crashed".
  bool worker_exited_cleanly(std::size_t w) const;
  pid_t worker_pid(std::size_t w) const;
  bool worker_alive(std::size_t w) const { return !worker_dead_[w]; }
  std::size_t alive_workers() const;
  // Worker that runs node `node`'s tasks: node % workers while that worker is
  // alive, else the next alive worker in rank order.  Throws TransportError
  // when no worker is alive.
  std::size_t worker_of_node(std::size_t node) const;

  // Heartbeat misses and deaths are attributed to the worker's first torus
  // node on this monitor (PR 4's quarantine machinery).
  void set_health_monitor(HealthMonitor* hm) { health_ = hm; }
  // When set, task/result payload bytes are charged along coordinator->node
  // routes so per-link telemetry reflects the real socket traffic.
  void set_link_telemetry(hw::LinkTelemetry* links) { links_ = links; }

  const FleetStats& stats() const { return stats_; }
  const TransportStats& transport_stats() const { return transport_->stats(); }
  const FleetConfig& config() const { return cfg_; }

  // --- fleet telemetry ------------------------------------------------------
  // True when workers were armed to ship trace chunks + metric snapshots
  // (cfg.telemetry with tracing compiled in and enabled).
  bool telemetry_enabled() const { return telemetry_on_; }
  // Redirects ingested worker telemetry into an aggregator that outlives
  // this fleet (the chaos runner threads one through restarts); null
  // restores the fleet-owned aggregator.  Existing state is not migrated,
  // so swap sinks before any tasks run.
  void set_telemetry_sink(obs::FleetTelemetry* sink);
  obs::FleetTelemetry& telemetry() { return *sink_; }
  const obs::FleetTelemetry& telemetry() const { return *sink_; }
  // Clock mapping for worker w's current incarnation:
  // coordinator_time = worker_time - offset, error bound rtt / 2.
  bool worker_clock_synced(std::size_t w) const;
  double worker_clock_offset_us(std::size_t w) const;
  double worker_clock_rtt_us(std::size_t w) const;
  // Tasks currently in flight to worker w (nonzero only inside dispatch).
  std::size_t outstanding_tasks(std::size_t w) const;
  // Publishes per-worker transport stats, clock offsets, outstanding counts
  // and the aggregated worker metric snapshots into the global registry as
  // "fleet/..." gauges, so the fleet view lands in BENCH_*.json exports.
  void publish_metrics() const;
  // Writes the merged fleet timeline (coordinator tracks + one process per
  // worker incarnation) as Chrome/Perfetto JSON.  False on I/O failure.
  bool write_fleet_trace(const std::string& path) const;
  // Fills `out` (made an object) with the live-introspection section:
  // per-worker health/pid/offset/outstanding plus fleet counters.
  void status_json(obs::JsonValue& out) const;

 private:
  struct Pending;  // one outstanding task (defined in fleet.cpp)

  void spawn_transport();
  bool shutdown_workers();
  std::vector<std::uint8_t> context_bytes_for(std::size_t rank) const;
  bool init_worker(std::size_t w);
  // Declares w dead and, with respawn on, relaunches it from the sealed
  // context; a worker that fails its re-init stays dead.
  void handle_worker_death(std::size_t w, const char* cause);
  void record_transfer(std::size_t node, std::size_t bytes);

  // The shared dispatch loop; encode/decode close over the task vectors.
  void dispatch(std::vector<Pending>& pending);

  // Decodes and routes a kTelemetry message into the sink (no-op for any
  // other type); every recv loop calls this before its own type filter so
  // piggybacked worker chunks are never discarded as strays.
  void maybe_ingest_telemetry(const Message& m, std::size_t w);
  // Stamps an instant on the fleet events track ("worker dead", "worker
  // respawned"); no-op when telemetry is off.
  void note_fleet_instant(const char* name, std::string detail);
  // Feeds one init/ping round trip into worker w's clock estimator and
  // refreshes the sink's offset record.
  void record_clock_sample(std::size_t w, double t0_us, double t1_us,
                           double remote_us);

  const PipelineContext* ctx_;
  const hw::TorusTopology* topo_;
  FleetConfig cfg_;
  std::unique_ptr<ProcTransport> transport_;
  std::vector<std::uint8_t> base_context_;  // rank-0 encoding, the sealed bytes
  std::vector<char> worker_dead_;
  HealthMonitor* health_ = nullptr;
  hw::LinkTelemetry* links_ = nullptr;
  FleetStats stats_;
  std::uint64_t next_task_id_ = 1;
  bool stopped_ = false;  // quiesce() ran: the destructor skips the handshake

  bool telemetry_on_ = false;
  obs::FleetTelemetry own_telemetry_;
  obs::FleetTelemetry* sink_ = &own_telemetry_;
  std::vector<obs::ClockOffsetEstimator> offsets_;  // reset per incarnation
  std::vector<std::int64_t> worker_os_pid_;  // from the InitAck extension
  std::vector<std::size_t> outstanding_;     // in-flight tasks per worker
  std::uint64_t trace_id_ = 0;               // stamped into every task header
  obs::TrackId dispatch_track_ = 0;          // coordinator "fleet/dispatch"
  obs::TrackId events_track_ = 0;            // death/respawn instants
};

}  // namespace tme::par
