#include "par/fleet.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "par/telemetry.hpp"
#include "util/bytes.hpp"

namespace tme::par {

// One outstanding task: the encoded payload (task id baked in) plus a
// callback that decodes and stores the accepted result.
struct WorkerFleet::Pending {
  std::uint64_t id = 0;
  std::size_t node = 0;
  std::size_t worker = 0;
  bool ever_sent = false;
  bool done = false;
  double sent_us = 0.0;  // first-send timestamp, for the latency histogram
  std::vector<std::uint8_t> payload;
  std::function<void(const std::vector<std::uint8_t>&)> accept;
};

WorkerFleet::WorkerFleet(const PipelineContext& ctx,
                         const hw::TorusTopology& topo, FleetConfig cfg)
    : ctx_(&ctx), topo_(&topo), cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) {
    throw std::invalid_argument("WorkerFleet: need at least one worker");
  }
  worker_dead_.assign(cfg_.workers, 0);
  // Start the coordinator's trace clock before any worker forks, so a forked
  // worker that arms no telemetry reads the same epoch.
  obs::Tracer& tracer = obs::Tracer::global();
  telemetry_on_ = cfg_.telemetry && obs::tracing_active();
  offsets_.assign(cfg_.workers, obs::ClockOffsetEstimator{});
  worker_os_pid_.assign(cfg_.workers, -1);
  outstanding_.assign(cfg_.workers, 0);
  trace_id_ = static_cast<std::uint64_t>(::getpid());
  if (telemetry_on_) {
    dispatch_track_ = tracer.track("fleet", "dispatch");
    events_track_ = tracer.track("fleet", "events");
  }
  WorkerContext wc;
  wc.pipeline = *ctx_;
  wc.workers = static_cast<std::uint32_t>(cfg_.workers);
  wc.telemetry = telemetry_on_;
  base_context_ = encode_context(wc);
  if (!cfg_.context_path.empty()) {
    write_context_file(cfg_.context_path, base_context_);
  }
  spawn_transport();
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    if (!init_worker(w)) {
      throw TransportError("fleet: worker " + std::to_string(w) +
                           " failed the init handshake");
    }
  }
}

WorkerFleet::~WorkerFleet() {
  if (!stopped_) shutdown_workers();
}

// The kShutdown/kBye handshake with every live worker.  Returns true when
// all of them acknowledged before their 300ms grace expired.
bool WorkerFleet::shutdown_workers() {
  Message shutdown;
  shutdown.type = MsgType::kShutdown;
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    if (worker_dead_[w]) continue;
    try {
      transport_->send(w, shutdown);
    } catch (...) {
      continue;
    }
  }
  // Give each live worker a moment to answer kBye so processes exit cleanly;
  // the transport destructor reaps any straggler.
  bool all_acked = true;
  Message out;
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    if (worker_dead_[w]) continue;
    bool acked = false;
    for (;;) {
      RecvStatus st;
      try {
        st = transport_->recv(w, out, std::chrono::milliseconds(300));
      } catch (...) {
        break;
      }
      if (st != RecvStatus::kOk) break;
      // Workers flush their final telemetry chunk just before kBye, so the
      // shutdown drain is also the last ingest point.
      maybe_ingest_telemetry(out, w);
      if (out.type == MsgType::kBye) {
        acked = true;
        break;
      }
    }
    all_acked = all_acked && acked;
  }
  return all_acked;
}

bool WorkerFleet::quiesce() {
  if (stopped_) return true;
  // Checkpoint before teardown: re-seal the context file so the next fleet
  // (or a post-restart supervisor) re-initialises workers from exactly the
  // state this one was driving.
  bool ok = true;
  if (!cfg_.context_path.empty()) {
    try {
      write_context_file(cfg_.context_path, base_context_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[fleet] quiesce: context re-seal failed: %s\n",
                   e.what());
      ok = false;
    }
  }
  ok = shutdown_workers() && ok;
  stopped_ = true;
  return ok;
}

void WorkerFleet::set_net_fault(const TransportFaultPolicy& fault) {
  cfg_.net_fault = fault;
  transport_->set_fault_policy(fault);
}

void WorkerFleet::set_telemetry_sink(obs::FleetTelemetry* sink) {
  sink_ = sink != nullptr ? sink : &own_telemetry_;
  if (!telemetry_on_) return;
  // Re-seed the new sink with the offsets estimated during the constructor's
  // init handshakes (the usual case: the runner installs its sink after the
  // fleet is built).
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    if (offsets_[w].has_offset() && worker_os_pid_[w] > 0) {
      sink_->set_offset(static_cast<std::uint32_t>(w), worker_os_pid_[w],
                        offsets_[w].offset_us(), offsets_[w].rtt_us());
    }
  }
}

bool WorkerFleet::worker_clock_synced(std::size_t w) const {
  return w < offsets_.size() && offsets_[w].has_offset();
}

double WorkerFleet::worker_clock_offset_us(std::size_t w) const {
  return worker_clock_synced(w) ? offsets_[w].offset_us() : 0.0;
}

double WorkerFleet::worker_clock_rtt_us(std::size_t w) const {
  return worker_clock_synced(w) ? offsets_[w].rtt_us() : 0.0;
}

std::size_t WorkerFleet::outstanding_tasks(std::size_t w) const {
  return w < outstanding_.size() ? outstanding_[w] : 0;
}

void WorkerFleet::maybe_ingest_telemetry(const Message& m, std::size_t w) {
  if (!telemetry_on_ || m.type != MsgType::kTelemetry) return;
  try {
    sink_->ingest(decode_telemetry(m.payload));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[fleet] worker %zu telemetry rejected: %s\n", w,
                 e.what());
  }
}

void WorkerFleet::note_fleet_instant(const char* name, std::string detail) {
  if (!telemetry_on_) return;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.instant(events_track_, name, tracer.now_us(), std::move(detail));
}

void WorkerFleet::record_clock_sample(std::size_t w, double t0_us,
                                      double t1_us, double remote_us) {
  if (w >= offsets_.size()) return;
  offsets_[w].add_sample(t0_us, t1_us, remote_us);
  if (telemetry_on_ && worker_os_pid_[w] > 0) {
    sink_->set_offset(static_cast<std::uint32_t>(w), worker_os_pid_[w],
                      offsets_[w].offset_us(), offsets_[w].rtt_us());
  }
}

void WorkerFleet::spawn_transport() {
  ProcTransport::Options opts;
  opts.worker_bin = cfg_.worker_bin;
  opts.fault = cfg_.net_fault;
  opts.term_grace_ms = cfg_.term_grace_ms;
  opts.context_path = cfg_.context_path;
  if (opts.worker_bin.empty()) {
    opts.fork_child = [](int fd) {
      FdEndpoint ep(fd);
      try {
        worker_loop(ep);
      } catch (...) {
      }
    };
  }
  transport_ = std::make_unique<ProcTransport>(cfg_.workers, std::move(opts));
}

std::vector<std::uint8_t> WorkerFleet::context_bytes_for(
    std::size_t rank) const {
  // A respawned worker restarts from the CRC-sealed context checkpoint when
  // one was written — the read path validates the seal before trusting it.
  WorkerContext wc = decode_context(cfg_.context_path.empty()
                                        ? base_context_
                                        : read_context_file(cfg_.context_path));
  wc.rank = static_cast<std::uint32_t>(rank);
  wc.workers = static_cast<std::uint32_t>(cfg_.workers);
  wc.fault = rank < cfg_.worker_faults.size() ? cfg_.worker_faults[rank]
                                              : WorkerFaultPolicy{};
  return encode_context(wc);
}

bool WorkerFleet::init_worker(std::size_t w) {
  Message init;
  init.type = MsgType::kInit;
  init.payload = context_bytes_for(w);
  const std::uint32_t crc = crc32(init.payload.data(), init.payload.size());
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    const double t0 = obs::Tracer::global().now_us();
    try {
      transport_->send(w, init);
    } catch (const PeerDead&) {
      return false;
    }
    Message reply;
    const RecvStatus st =
        transport_->recv(w, reply, std::chrono::milliseconds(cfg_.timeout_ms));
    const double t1 = obs::Tracer::global().now_us();
    if (st == RecvStatus::kClosed) return false;
    if (st != RecvStatus::kOk) continue;
    maybe_ingest_telemetry(reply, w);
    if (reply.type != MsgType::kInitAck) continue;
    // u32 context CRC | i64 pid | f64 worker clock, exactly.  A wrong CRC or
    // a short or padded ack is a half-applied context: refuse the worker.
    if (reply.payload.size() != sizeof(std::uint32_t) + 2 * 8) return false;
    bytes::Reader r(reply.payload);
    if (r.u32() != crc) return false;
    // A successful init is a fresh tracer epoch on the worker side, so the
    // old offset is meaningless; the ack's clock reading seeds the new
    // incarnation's estimate from this very round trip.
    if (w < offsets_.size()) offsets_[w].reset();
    worker_os_pid_[w] = r.i64();
    record_clock_sample(w, t0, t1, r.f64());
    ++stats_.reinits;
    return true;
  }
  return false;
}

std::size_t WorkerFleet::worker_of_node(std::size_t node) const {
  const std::size_t home = node % cfg_.workers;
  for (std::size_t k = 0; k < cfg_.workers; ++k) {
    const std::size_t w = (home + k) % cfg_.workers;
    if (!worker_dead_[w]) return w;
  }
  throw TransportError("fleet: no worker is alive to host node " +
                       std::to_string(node));
}

std::size_t WorkerFleet::alive_workers() const {
  std::size_t n = 0;
  for (const char d : worker_dead_) n += d == 0 ? 1 : 0;
  return n;
}

void WorkerFleet::kill_worker(std::size_t w) { transport_->kill(w); }

void WorkerFleet::term_worker(std::size_t w, long grace_ms) {
  transport_->terminate(w, grace_ms);
}

bool WorkerFleet::worker_exited_cleanly(std::size_t w) const {
  return transport_->exited_cleanly(w);
}

pid_t WorkerFleet::worker_pid(std::size_t w) const {
  return transport_->pid(w);
}

void WorkerFleet::handle_worker_death(std::size_t w, const char* cause) {
  if (w >= cfg_.workers || worker_dead_[w]) return;
  worker_dead_[w] = 1;
  ++stats_.worker_deaths;
  TME_COUNTER_ADD("par/fleet/worker_deaths", 1);
  note_fleet_instant("worker dead",
                     "worker " + std::to_string(w) + " (" + cause + ")");
  std::fprintf(stderr, "[fleet] worker %zu declared dead (%s)\n", w, cause);
  if (health_ != nullptr && w < topo_->node_count()) {
    health_->report_violation(w);
  }
  if (cfg_.respawn) {
    transport_->respawn(w);
    ++stats_.respawns;
    TME_COUNTER_ADD("par/fleet/respawns", 1);
    if (init_worker(w)) {
      worker_dead_[w] = 0;
      note_fleet_instant("worker respawned",
                         "worker " + std::to_string(w) + " pid " +
                             std::to_string(worker_os_pid_[w]));
      std::fprintf(stderr, "[fleet] worker %zu respawned from sealed context\n",
                   w);
    }
  }
}

void WorkerFleet::record_transfer(std::size_t node, std::size_t bytes) {
  if (links_ == nullptr) return;
  const std::size_t n = node % topo_->node_count();
  links_->record_transfer(0, n, bytes);
}

void WorkerFleet::dispatch(std::vector<Pending>& pending) {
  if (pending.empty()) return;
  const std::size_t W = cfg_.workers;
  struct WState {
    std::vector<std::size_t> inflight;  // pending indices, oldest first
    int attempts = 0;
    std::chrono::steady_clock::time_point deadline{};
  };
  std::vector<WState> ws(W);
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::deque<std::size_t> to_send;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    by_id.emplace(pending[i].id, i);
    to_send.push_back(i);
  }
  std::size_t remaining = pending.size();
  const auto timeout =
      std::chrono::milliseconds(cfg_.timeout_ms > 0 ? cfg_.timeout_ms : 1);
  const auto now = [] { return std::chrono::steady_clock::now(); };
  // A worker whose fault policy crashes it on every generation would respawn
  // forever; bound the deaths one dispatch tolerates.
  std::size_t deaths_budget = 3 * W + 8;

  std::function<void(std::size_t, const char*)> on_death =
      [&](std::size_t w, const char* cause) {
        if (deaths_budget == 0) {
          throw TransportError(
              "fleet: worker death limit exceeded (crash loop?)");
        }
        --deaths_budget;
        handle_worker_death(w, cause);
        for (const std::size_t pi : ws[w].inflight) {
          if (!pending[pi].done) to_send.push_back(pi);
        }
        ws[w].inflight.clear();
        ws[w].attempts = 0;
        outstanding_[w] = 0;
      };

  const auto send_task = [&](std::size_t pi) {
    Pending& p = pending[pi];
    const std::size_t target = worker_of_node(p.node);
    const double send_us =
        telemetry_on_ ? obs::Tracer::global().now_us() : 0.0;
    Message m;
    m.type = MsgType::kTask;
    m.payload = p.payload;
    try {
      transport_->send(target, m);
    } catch (const PeerDead&) {
      on_death(target, "send to dead worker");
      to_send.push_back(pi);
      return;
    }
    if (p.ever_sent && target != p.worker) {
      ++stats_.rehomed_tasks;
      TME_COUNTER_ADD("par/fleet/rehomed_tasks", 1);
    }
    p.worker = target;
    p.ever_sent = true;
    WState& s = ws[target];
    if (std::find(s.inflight.begin(), s.inflight.end(), pi) ==
        s.inflight.end()) {
      s.inflight.push_back(pi);
    }
    outstanding_[target] = s.inflight.size();
    if (s.inflight.size() == 1) {
      s.attempts = 0;
      s.deadline = now() + timeout;
    }
    ++stats_.tasks_sent;
    TME_COUNTER_ADD("par/fleet/tasks_sent", 1);
    record_transfer(p.node, p.payload.size());
    if (telemetry_on_) {
      // A thin dispatch slice carrying the flow tail: the worker's task span
      // finishes the same flow id, so the merged timeline draws the
      // coordinator -> worker arrow.  Queue depth rides along as a counter
      // sample and a histogram.
      obs::Tracer& tracer = obs::Tracer::global();
      const double end_us = tracer.now_us();
      p.sent_us = send_us;
      tracer.complete(dispatch_track_, "dispatch", send_us, end_us - send_us,
                      "task " + std::to_string(p.id) + " -> w" +
                          std::to_string(target));
      tracer.flow_start(dispatch_track_, "dispatch", send_us, p.id);
      tracer.counter(dispatch_track_, "inflight w" + std::to_string(target),
                     end_us, static_cast<double>(s.inflight.size()));
      obs::Registry::global()
          .histogram("fleet/queue_depth")
          .record(static_cast<double>(s.inflight.size()));
    }
  };

  const auto expire = [&](std::size_t w) {
    WState& s = ws[w];
    ++s.attempts;
    if (s.attempts > cfg_.max_retries) {
      // Retries exhausted: a hung worker holds a live socket, so make the
      // death real before recovering.
      transport_->kill(w);
      on_death(w, "deadline exhausted");
      return;
    }
    ++stats_.retransmissions;
    TME_COUNTER_ADD("par/fleet/retransmissions", 1);
    if (telemetry_on_) {
      obs::Registry::global()
          .counter("fleet/w" + std::to_string(w) + "/retransmissions")
          .add(1);
    }
    const int shift = std::min(s.attempts - 1, 20);
    s.deadline =
        now() + timeout +
        std::chrono::milliseconds(cfg_.backoff_base_ms << shift);
    const std::vector<std::size_t> flight = s.inflight;  // on_death may clear
    for (const std::size_t pi : flight) {
      Pending& p = pending[pi];
      Message m;
      m.type = MsgType::kTask;
      m.payload = p.payload;
      try {
        transport_->send(w, m);
      } catch (const PeerDead&) {
        on_death(w, "send on retransmit");
        return;
      }
      ++stats_.tasks_sent;
      record_transfer(p.node, p.payload.size());
    }
  };

  while (remaining > 0) {
    while (!to_send.empty()) {
      const std::size_t pi = to_send.front();
      to_send.pop_front();
      if (!pending[pi].done) send_task(pi);
    }
    std::vector<char> want(W, 0);
    bool any = false;
    auto earliest = now() + timeout;
    for (std::size_t w = 0; w < W; ++w) {
      if (worker_dead_[w] || ws[w].inflight.empty()) continue;
      want[w] = 1;
      any = true;
      if (ws[w].deadline < earliest) earliest = ws[w].deadline;
    }
    if (!any) {
      if (!to_send.empty()) continue;
      throw TransportError(
          "fleet: tasks outstanding but no live worker owes results");
    }
    auto slice =
        std::chrono::duration_cast<std::chrono::milliseconds>(earliest - now());
    if (slice.count() < 0) slice = std::chrono::milliseconds(0);
    Message out;
    const auto arrived = transport_->recv_any(want, out, slice);
    if (!arrived) {
      const auto t = now();
      for (std::size_t w = 0; w < W; ++w) {
        if (want[w] && ws[w].deadline <= t) expire(w);
      }
      continue;
    }
    if (arrived->status == RecvStatus::kClosed) {
      on_death(arrived->worker, "connection closed");
      continue;
    }
    maybe_ingest_telemetry(out, arrived->worker);
    if (out.type != MsgType::kResult) continue;  // stray pong/ack/telemetry
    const ResultHeader header = peek_result_header(out.payload);
    const auto it = by_id.find(header.task_id);
    if (it == by_id.end()) {
      ++stats_.duplicate_results;
      continue;
    }
    Pending& p = pending[it->second];
    WState& s = ws[arrived->worker];
    const auto f = std::find(s.inflight.begin(), s.inflight.end(), it->second);
    if (f != s.inflight.end()) s.inflight.erase(f);
    outstanding_[arrived->worker] = s.inflight.size();
    s.attempts = 0;
    s.deadline = now() + timeout;
    if (p.done) {
      ++stats_.duplicate_results;
      TME_COUNTER_ADD("par/fleet/duplicate_results", 1);
      continue;
    }
    p.accept(out.payload);
    p.done = true;
    --remaining;
    ++stats_.results_received;
    TME_COUNTER_ADD("par/fleet/results_received", 1);
    record_transfer(p.node, out.payload.size());
    if (telemetry_on_ && p.sent_us > 0.0) {
      const double latency_s =
          (obs::Tracer::global().now_us() - p.sent_us) * 1e-6;
      obs::Registry& reg = obs::Registry::global();
      reg.histogram("fleet/task_latency_s").record(latency_s);
      reg.histogram("fleet/w" + std::to_string(arrived->worker) +
                    "/task_latency_s")
          .record(latency_s);
    }
  }
}

std::vector<Grid3d> WorkerFleet::run_grid(std::vector<GridBlockTask> tasks) {
  TME_PHASE("fleet_grid");
  std::vector<Grid3d> results(tasks.size());
  std::vector<Pending> pending(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Pending& p = pending[i];
    p.id = next_task_id_++;
    p.node = tasks[i].node;
    p.payload = encode_grid_task(p.id, tasks[i], trace_id_, p.id);
    Grid3d* slot = &results[i];
    p.accept = [slot](const std::vector<std::uint8_t>& payload) {
      *slot = decode_grid_result(payload);
    };
  }
  dispatch(pending);
  return results;
}

std::vector<ExtendedBlock> WorkerFleet::run_ca(std::vector<CaBlockTask> tasks) {
  TME_PHASE("fleet_ca");
  std::vector<ExtendedBlock> results(tasks.size());
  std::vector<Pending> pending(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Pending& p = pending[i];
    p.id = next_task_id_++;
    p.node = tasks[i].node;
    p.payload = encode_ca_task(p.id, tasks[i], trace_id_, p.id);
    ExtendedBlock* slot = &results[i];
    p.accept = [slot](const std::vector<std::uint8_t>& payload) {
      *slot = decode_ca_result(payload);
    };
  }
  dispatch(pending);
  return results;
}

std::string WorkerFleet::name() const {
  return "fleet/proc x" + std::to_string(cfg_.workers);
}

std::vector<BiBlockResult> WorkerFleet::run_bi(std::vector<BiBlockTask> tasks) {
  TME_PHASE("fleet_bi");
  std::vector<BiBlockResult> results(tasks.size());
  std::vector<Pending> pending(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Pending& p = pending[i];
    p.id = next_task_id_++;
    p.node = tasks[i].node;
    p.payload = encode_bi_task(p.id, tasks[i], trace_id_, p.id);
    BiBlockResult* slot = &results[i];
    p.accept = [slot](const std::vector<std::uint8_t>& payload) {
      *slot = decode_bi_result(payload);
    };
  }
  dispatch(pending);
  return results;
}

std::size_t WorkerFleet::heartbeat(std::chrono::milliseconds timeout) {
  const std::size_t W = cfg_.workers;
  std::vector<char> want(W, 0);
  std::vector<char> pongd(W, 0);
  std::vector<double> ping_sent_us(W, 0.0);
  const std::uint64_t nonce_base = next_task_id_;
  next_task_id_ += W;
  for (std::size_t w = 0; w < W; ++w) {
    if (worker_dead_[w]) continue;
    bytes::Writer body;
    body.u64(nonce_base + w);
    Message ping;
    ping.type = MsgType::kPing;
    ping.payload = body.take();
    ping_sent_us[w] = obs::Tracer::global().now_us();
    try {
      transport_->send(w, ping);
    } catch (const PeerDead&) {
      handle_worker_death(w, "heartbeat send");
      continue;
    }
    want[w] = 1;
    ++stats_.heartbeats_sent;
    TME_COUNTER_ADD("par/fleet/heartbeats_sent", 1);
  }
  const auto until = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool any = false;
    for (const char wnt : want) any = any || wnt != 0;
    if (!any) break;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    Message out;
    const auto arrived = transport_->recv_any(want, out, left);
    if (!arrived) break;
    if (arrived->status == RecvStatus::kClosed) {
      want[arrived->worker] = 0;
      handle_worker_death(arrived->worker, "heartbeat eof");
      continue;
    }
    maybe_ingest_telemetry(out, arrived->worker);
    if (out.type != MsgType::kPong) continue;  // stale result straggler
    const double pong_recv_us = obs::Tracer::global().now_us();
    // u64 nonce | f64 worker clock, exactly; a malformed pong is no answer.
    // The clock reading turns every heartbeat into an NTP-style offset
    // sample.
    if (out.payload.size() != 2 * 8) continue;
    bytes::Reader r(out.payload);
    if (r.u64() == nonce_base + arrived->worker) {
      pongd[arrived->worker] = 1;
      want[arrived->worker] = 0;
      record_clock_sample(arrived->worker, ping_sent_us[arrived->worker],
                          pong_recv_us, r.f64());
    }
  }
  std::size_t answered = 0;
  for (std::size_t w = 0; w < W; ++w) {
    if (pongd[w]) {
      ++answered;
      continue;
    }
    if (!want[w]) continue;  // never pinged or already handled as dead
    ++stats_.heartbeats_missed;
    TME_COUNTER_ADD("par/fleet/heartbeats_missed", 1);
    if (health_ != nullptr && w < topo_->node_count()) {
      health_->report_violation(w);
    }
  }
  return answered;
}

void WorkerFleet::publish_metrics() const {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set("fleet/workers", static_cast<double>(cfg_.workers));
  reg.gauge_set("fleet/alive_workers", static_cast<double>(alive_workers()));
  reg.gauge_set("fleet/tasks_sent", static_cast<double>(stats_.tasks_sent));
  reg.gauge_set("fleet/results_received",
                static_cast<double>(stats_.results_received));
  reg.gauge_set("fleet/retransmissions",
                static_cast<double>(stats_.retransmissions));
  reg.gauge_set("fleet/worker_deaths",
                static_cast<double>(stats_.worker_deaths));
  reg.gauge_set("fleet/respawns", static_cast<double>(stats_.respawns));
  reg.gauge_set("fleet/heartbeats_missed",
                static_cast<double>(stats_.heartbeats_missed));
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    const std::string base = "fleet/w" + std::to_string(w) + "/";
    const TransportStats& net = transport_->worker_stats(w);
    reg.gauge_set(base + "net/messages_sent",
                  static_cast<double>(net.messages_sent));
    reg.gauge_set(base + "net/bytes_sent", static_cast<double>(net.bytes_sent));
    reg.gauge_set(base + "net/messages_received",
                  static_cast<double>(net.messages_received));
    reg.gauge_set(base + "net/bytes_received",
                  static_cast<double>(net.bytes_received));
    reg.gauge_set(base + "net/crc_rejects",
                  static_cast<double>(net.crc_rejects));
    reg.gauge_set(base + "net/frames_dropped",
                  static_cast<double>(net.frames_dropped));
    reg.gauge_set(base + "net/frames_corrupted",
                  static_cast<double>(net.frames_corrupted));
    reg.gauge_set(base + "alive", worker_dead_[w] ? 0.0 : 1.0);
    reg.gauge_set(base + "outstanding",
                  static_cast<double>(outstanding_[w]));
    if (offsets_[w].has_offset()) {
      reg.gauge_set(base + "clock_offset_us", offsets_[w].offset_us());
      reg.gauge_set(base + "clock_rtt_us", offsets_[w].rtt_us());
    }
  }
  sink_->publish_worker_metrics(reg);
}

bool WorkerFleet::write_fleet_trace(const std::string& path) const {
  return sink_->write(path, obs::Tracer::global());
}

void WorkerFleet::status_json(obs::JsonValue& out) const {
  using obs::JsonValue;
  out = JsonValue::make_object();
  auto& o = out.as_object();
  o["workers"] = JsonValue::make_number(static_cast<double>(cfg_.workers));
  o["alive"] = JsonValue::make_number(static_cast<double>(alive_workers()));
  o["telemetry"] = JsonValue::make_bool(telemetry_on_);
  o["quiesced"] = JsonValue::make_bool(stopped_);
  JsonValue stats = JsonValue::make_object();
  auto& so = stats.as_object();
  so["tasks_sent"] =
      JsonValue::make_number(static_cast<double>(stats_.tasks_sent));
  so["results_received"] =
      JsonValue::make_number(static_cast<double>(stats_.results_received));
  so["retransmissions"] =
      JsonValue::make_number(static_cast<double>(stats_.retransmissions));
  so["worker_deaths"] =
      JsonValue::make_number(static_cast<double>(stats_.worker_deaths));
  so["respawns"] = JsonValue::make_number(static_cast<double>(stats_.respawns));
  so["heartbeats_missed"] =
      JsonValue::make_number(static_cast<double>(stats_.heartbeats_missed));
  o["stats"] = std::move(stats);
  JsonValue workers = JsonValue::make_array();
  auto& wa = workers.as_array();
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    JsonValue row = JsonValue::make_object();
    auto& ro = row.as_object();
    ro["rank"] = JsonValue::make_number(static_cast<double>(w));
    ro["alive"] = JsonValue::make_bool(!worker_dead_[w]);
    ro["pid"] =
        JsonValue::make_number(static_cast<double>(worker_os_pid_[w]));
    ro["outstanding"] =
        JsonValue::make_number(static_cast<double>(outstanding_[w]));
    ro["clock_synced"] = JsonValue::make_bool(offsets_[w].has_offset());
    ro["clock_offset_us"] = JsonValue::make_number(
        offsets_[w].has_offset() ? offsets_[w].offset_us() : 0.0);
    ro["clock_rtt_us"] = JsonValue::make_number(
        offsets_[w].has_offset() ? offsets_[w].rtt_us() : 0.0);
    const TransportStats& net = transport_->worker_stats(w);
    ro["messages_sent"] =
        JsonValue::make_number(static_cast<double>(net.messages_sent));
    ro["messages_received"] =
        JsonValue::make_number(static_cast<double>(net.messages_received));
    ro["crc_rejects"] =
        JsonValue::make_number(static_cast<double>(net.crc_rejects));
    wa.push_back(std::move(row));
  }
  o["per_worker"] = std::move(workers);
  JsonValue trace = JsonValue::make_object();
  auto& to = trace.as_object();
  to["chunks"] =
      JsonValue::make_number(static_cast<double>(sink_->chunk_count()));
  to["events_merged"] =
      JsonValue::make_number(static_cast<double>(sink_->events_merged()));
  to["emitted"] =
      JsonValue::make_number(static_cast<double>(sink_->emitted_total()));
  to["dropped"] =
      JsonValue::make_number(static_cast<double>(sink_->dropped_total()));
  to["incarnations"] =
      JsonValue::make_number(static_cast<double>(sink_->incarnation_count()));
  o["trace"] = std::move(trace);
}

}  // namespace tme::par
