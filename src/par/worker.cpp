#include "par/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/proc_transport.hpp"
#include "par/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/io_shim.hpp"

namespace tme::par {

namespace {

constexpr std::uint32_t kContextMagic = 0x58544354u;  // "TCTX"
constexpr std::uint32_t kContextVersion = 2;  // v2 appended the telemetry flag
constexpr std::uint32_t kContextFileMagic = 0x46435458u;  // "XTCF"

// Guards applied to counts decoded from the wire before any allocation.
constexpr std::uint64_t kMaxGridElems = 1ull << 28;  // 256M doubles = 2 GiB
constexpr std::uint64_t kMaxAtoms = 1ull << 26;
constexpr std::uint64_t kMaxTaps = 1ull << 16;
constexpr std::uint64_t kMaxTerms = 1024;
constexpr std::uint64_t kMaxLevels = 64;

void put_dims(bytes::Writer& w, const GridDims& d) {
  w.u64(d.nx);
  w.u64(d.ny);
  w.u64(d.nz);
}

GridDims get_dims(bytes::Reader& r) {
  GridDims d;
  d.nx = r.count(kMaxGridElems);
  d.ny = r.count(kMaxGridElems);
  d.nz = r.count(kMaxGridElems);
  if (d.nx != 0 && d.ny != 0 && d.total() / (d.nx * d.ny) != d.nz) {
    throw bytes::Error("wire: grid dims overflow");
  }
  if (d.total() > kMaxGridElems) throw bytes::Error("wire: grid too large");
  return d;
}

void put_block(bytes::Writer& w, const ExtendedBlock& b) {
  w.i64(b.x0);
  w.i64(b.y0);
  w.i64(b.z0);
  w.u64(b.nx);
  w.u64(b.ny);
  w.u64(b.nz);
  w.doubles(b.data);
}

ExtendedBlock get_block(bytes::Reader& r) {
  ExtendedBlock b;
  b.x0 = static_cast<long>(r.i64());
  b.y0 = static_cast<long>(r.i64());
  b.z0 = static_cast<long>(r.i64());
  b.nx = r.count(kMaxGridElems);
  b.ny = r.count(kMaxGridElems);
  b.nz = r.count(kMaxGridElems);
  b.data = r.doubles();
  if (b.data.size() != b.nx * b.ny * b.nz) {
    throw bytes::Error("wire: extended block size mismatch");
  }
  return b;
}

void put_kernel(bytes::Writer& w, const Kernel1d& k) {
  w.i64(k.cutoff);
  w.doubles(k.taps);
}

Kernel1d get_kernel(bytes::Reader& r) {
  Kernel1d k;
  k.cutoff = static_cast<int>(r.i64());
  k.taps = r.doubles();
  if (k.taps.size() > kMaxTaps) throw bytes::Error("wire: kernel too wide");
  return k;
}

}  // namespace

// --- Context codec -----------------------------------------------------------

std::vector<std::uint8_t> encode_context(const WorkerContext& ctx) {
  bytes::Writer w;
  w.u32(kContextMagic);
  w.u32(kContextVersion);
  const PipelineContext& p = ctx.pipeline;
  w.f64(p.box.lengths.x);
  w.f64(p.box.lengths.y);
  w.f64(p.box.lengths.z);
  w.f64(p.h.x);
  w.f64(p.h.y);
  w.f64(p.h.z);
  w.i64(p.p);
  put_dims(w, p.fine_global);
  w.doubles(p.j_coeff);
  w.u64(p.kernels.size());
  for (const auto& level : p.kernels) {
    w.u64(level.size());
    for (const SeparableTerm& t : level) {
      put_kernel(w, t.kx);
      put_kernel(w, t.ky);
      put_kernel(w, t.kz);
    }
  }
  w.u32(ctx.rank);
  w.u32(ctx.workers);
  w.i64(ctx.fault.crash_after_tasks);
  w.i64(ctx.fault.hang_after_tasks);
  w.i64(ctx.fault.delay_ms);
  w.u32(ctx.telemetry ? 1u : 0u);
  return w.take();
}

WorkerContext decode_context(const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  if (r.u32() != kContextMagic) {
    throw TransportError("worker context: bad magic");
  }
  if (const std::uint32_t v = r.u32(); v != kContextVersion) {
    throw TransportError("worker context: unsupported version " +
                         std::to_string(v));
  }
  WorkerContext ctx;
  PipelineContext& p = ctx.pipeline;
  p.box.lengths.x = r.f64();
  p.box.lengths.y = r.f64();
  p.box.lengths.z = r.f64();
  p.h.x = r.f64();
  p.h.y = r.f64();
  p.h.z = r.f64();
  p.p = static_cast<int>(r.i64());
  p.fine_global = get_dims(r);
  p.j_coeff = r.doubles();
  const std::size_t n_levels = r.count(kMaxLevels);
  p.kernels.resize(n_levels);
  for (auto& level : p.kernels) {
    level.resize(r.count(kMaxTerms));
    for (SeparableTerm& t : level) {
      t.kx = get_kernel(r);
      t.ky = get_kernel(r);
      t.kz = get_kernel(r);
    }
  }
  ctx.rank = r.u32();
  ctx.workers = r.u32();
  ctx.fault.crash_after_tasks = static_cast<long>(r.i64());
  ctx.fault.hang_after_tasks = static_cast<long>(r.i64());
  ctx.fault.delay_ms = static_cast<long>(r.i64());
  ctx.telemetry = r.u32() != 0;
  if (!r.done()) throw TransportError("worker context: trailing bytes");
  return ctx;
}

// --- Context file ------------------------------------------------------------

void write_context_file(const std::string& path,
                        const std::vector<std::uint8_t>& context_bytes) {
  // The context file is what a respawned worker re-inits from, so it is
  // sealed and written as durably as a checkpoint: a torn or cached-only
  // write here would turn a survivable crash into an unrecoverable one.
  bytes::Writer w;
  w.u32(kContextFileMagic);
  w.u64(context_bytes.size());
  w.raw(context_bytes.data(), context_bytes.size());
  bytes::seal(w);
  try {
    io::write_file_durable(path, w.bytes());
  } catch (const io::IoError& e) {
    throw TransportError(std::string("context file: ") + e.what());
  }
}

std::vector<std::uint8_t> read_context_file(const std::string& path) {
  try {
    const std::vector<std::uint8_t> file = io::read_file(path);
    bytes::Reader r(bytes::unseal(file));
    if (r.u32() != kContextFileMagic) {
      throw TransportError("context file: bad magic: " + path);
    }
    std::vector<std::uint8_t> payload(r.count(r.remaining()));
    r.raw(payload.data(), payload.size());
    if (!r.done()) {
      throw TransportError("context file: length mismatch: " + path);
    }
    return payload;
  } catch (const io::IoError& e) {
    throw TransportError(std::string("context file: ") + e.what());
  } catch (const bytes::Error& e) {
    throw TransportError(std::string("context file: ") + e.what() + ": " +
                         path);
  }
}

// --- Task codecs -------------------------------------------------------------

namespace {

void put_task_header(bytes::Writer& w, std::uint64_t task_id, TaskClass cls,
                     std::uint64_t trace_id = 0,
                     std::uint64_t parent_span = 0) {
  w.u64(task_id);
  w.u16(static_cast<std::uint16_t>(cls));
  w.u64(trace_id);
  w.u64(parent_span);
}

}  // namespace

std::vector<std::uint8_t> encode_grid_task(std::uint64_t task_id,
                                           const GridBlockTask& t,
                                           std::uint64_t trace_id,
                                           std::uint64_t parent_span) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kGrid, trace_id, parent_span);
  w.u16(static_cast<std::uint16_t>(t.kind));
  w.u64(t.node);
  put_block(w, t.halo);
  w.i64(t.ox);
  w.i64(t.oy);
  w.i64(t.oz);
  put_dims(w, t.out_dims);
  w.i64(t.axis);
  w.i64(t.reach);
  w.u64(t.n_axis);
  w.i64(t.level);
  w.u64(t.term);
  return w.take();
}

std::vector<std::uint8_t> encode_ca_task(std::uint64_t task_id,
                                         const CaBlockTask& t,
                                         std::uint64_t trace_id,
                                         std::uint64_t parent_span) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kCa, trace_id, parent_span);
  w.u64(t.node);
  w.vec3s(t.positions);
  w.doubles(t.charges);
  w.i64(t.x0);
  w.i64(t.y0);
  w.i64(t.z0);
  w.u64(t.ex);
  w.u64(t.ey);
  w.u64(t.ez);
  return w.take();
}

std::vector<std::uint8_t> encode_bi_task(std::uint64_t task_id,
                                         const BiBlockTask& t,
                                         std::uint64_t trace_id,
                                         std::uint64_t parent_span) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kBi, trace_id, parent_span);
  w.u64(t.node);
  put_block(w, t.halo);
  w.vec3s(t.positions);
  w.doubles(t.charges);
  return w.take();
}

namespace {

struct TaskHeader {
  std::uint64_t task_id = 0;
  TaskClass task_class = TaskClass::kGrid;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

TaskHeader get_task_header(bytes::Reader& r) {
  TaskHeader h;
  h.task_id = r.u64();
  const std::uint16_t cls = r.u16();
  if (cls > static_cast<std::uint16_t>(TaskClass::kBi)) {
    throw TransportError("worker: unknown task class " + std::to_string(cls));
  }
  h.task_class = static_cast<TaskClass>(cls);
  h.trace_id = r.u64();
  h.parent_span = r.u64();
  return h;
}

GridBlockTask get_grid_task(bytes::Reader& r) {
  GridBlockTask t;
  const std::uint16_t kind = r.u16();
  if (kind > static_cast<std::uint16_t>(GridBlockTask::Kind::kConvolve)) {
    throw TransportError("worker: unknown grid task kind");
  }
  t.kind = static_cast<GridBlockTask::Kind>(kind);
  t.node = r.u64();
  t.halo = get_block(r);
  t.ox = static_cast<long>(r.i64());
  t.oy = static_cast<long>(r.i64());
  t.oz = static_cast<long>(r.i64());
  t.out_dims = get_dims(r);
  t.axis = static_cast<int>(r.i64());
  t.reach = static_cast<long>(r.i64());
  t.n_axis = static_cast<std::size_t>(r.u64());
  t.level = static_cast<int>(r.i64());
  t.term = static_cast<std::size_t>(r.u64());
  return t;
}

CaBlockTask get_ca_task(bytes::Reader& r) {
  CaBlockTask t;
  t.node = r.u64();
  t.positions = r.vec3s();
  t.charges = r.doubles();
  if (t.positions.size() != t.charges.size() ||
      t.positions.size() > kMaxAtoms) {
    throw TransportError("worker: CA task atom arrays mismatch");
  }
  t.x0 = static_cast<long>(r.i64());
  t.y0 = static_cast<long>(r.i64());
  t.z0 = static_cast<long>(r.i64());
  t.ex = r.count(kMaxGridElems);
  t.ey = r.count(kMaxGridElems);
  t.ez = r.count(kMaxGridElems);
  return t;
}

BiBlockTask get_bi_task(bytes::Reader& r) {
  BiBlockTask t;
  t.node = r.u64();
  t.halo = get_block(r);
  t.positions = r.vec3s();
  t.charges = r.doubles();
  if (t.positions.size() != t.charges.size() ||
      t.positions.size() > kMaxAtoms) {
    throw TransportError("worker: BI task atom arrays mismatch");
  }
  return t;
}

std::vector<std::uint8_t> encode_grid_result(std::uint64_t task_id,
                                             const Grid3d& g) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kGrid);
  put_dims(w, g.dims());
  w.doubles(g.values());
  return w.take();
}

std::vector<std::uint8_t> encode_ca_result(std::uint64_t task_id,
                                           const ExtendedBlock& b) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kCa);
  put_block(w, b);
  return w.take();
}

std::vector<std::uint8_t> encode_bi_result(std::uint64_t task_id,
                                           const BiBlockResult& res) {
  bytes::Writer w;
  put_task_header(w, task_id, TaskClass::kBi);
  w.vec3s(res.forces);
  w.f64(res.q_phi);
  return w.take();
}

}  // namespace

ResultHeader peek_result_header(const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  const TaskHeader h = get_task_header(r);
  return ResultHeader{h.task_id, h.task_class};
}

Grid3d decode_grid_result(const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  (void)get_task_header(r);
  const GridDims dims = get_dims(r);
  std::vector<double> values = r.doubles();
  if (values.size() != dims.total()) {
    throw TransportError("worker result: grid size mismatch");
  }
  Grid3d g(dims);
  g.values() = std::move(values);
  return g;
}

ExtendedBlock decode_ca_result(const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  (void)get_task_header(r);
  return get_block(r);
}

BiBlockResult decode_bi_result(const std::vector<std::uint8_t>& payload) {
  bytes::Reader r(payload);
  (void)get_task_header(r);
  BiBlockResult res;
  res.forces = r.vec3s();
  res.q_phi = r.f64();
  return res;
}

// --- Worker loop -------------------------------------------------------------

void worker_loop(FdEndpoint& ep) { worker_loop(ep, WorkerLoopOptions{}); }

void worker_loop(FdEndpoint& ep, const WorkerLoopOptions& opts) {
  WorkerContext ctx;
  std::vector<std::uint8_t> ctx_bytes;
  bool inited = false;
  long tasks_done = 0;
  bool hung = false;
  // Worker-side telemetry: armed by the context (process workers only).
  // Chunks flush once enough spans accumulate, and unconditionally on
  // shutdown/drain so a graceful quiesce loses nothing.
  bool telemetry_armed = false;
  std::uint64_t telemetry_seq = 0;
  obs::TrackId task_track = 0;
  constexpr std::size_t kFlushThreshold = 48;
  auto flush_telemetry = [&](bool force) {
    if (!telemetry_armed) return true;
    obs::Tracer& tracer = obs::Tracer::global();
    if (!force && tracer.undrained_count() < kFlushThreshold) return true;
    obs::WorkerTelemetry t;
    t.rank = ctx.rank;
    t.pid = static_cast<std::int64_t>(::getpid());
    t.seq = ++telemetry_seq;
    t.chunk = tracer.drain_chunk();
    if (!force && t.chunk.events.empty()) return true;
    t.metrics_json = obs::to_json(obs::Registry::global().snapshot());
    Message m;
    m.type = MsgType::kTelemetry;
    m.payload = encode_telemetry(t);
    return ep.send(m);
  };
  // Drain path: a requested stop is honoured between messages — the task
  // being executed always finishes and its result is sent, so the
  // coordinator never loses acknowledged work to a graceful shutdown.
  auto drain = [&]() {
    if (inited && !opts.context_flush_path.empty()) {
      try {
        write_context_file(opts.context_flush_path, ctx_bytes);
      } catch (const std::exception&) {
        // Flushing the context is best-effort on the way out; the
        // coordinator still owns an authoritative copy.
      }
    }
    flush_telemetry(true);
    Message bye;
    bye.type = MsgType::kBye;
    ep.send(bye);
  };
  // A stoppable worker polls at 100ms so a SIGTERM drains promptly; the
  // plain loop keeps the old 1s cadence.
  const auto recv_wait =
      std::chrono::milliseconds(opts.stop_requested ? 100 : 1000);
  Message msg;
  for (;;) {
    if (opts.stop_requested && opts.stop_requested()) {
      drain();
      return;
    }
    const RecvStatus st = ep.recv(msg, recv_wait);
    if (st == RecvStatus::kClosed) return;  // coordinator gone: exit quietly
    if (st == RecvStatus::kTimeout) continue;
    switch (msg.type) {
      case MsgType::kInit: {
        ctx = decode_context(msg.payload);
        ctx_bytes = msg.payload;
        inited = true;
        tasks_done = 0;
        hung = false;
        telemetry_armed = ctx.telemetry && obs::kTraceEnabled;
        if (telemetry_armed) {
          // A fork-mode child inherits the coordinator's buffers, tracks and
          // epoch; start this incarnation from a clean slate so its chunks
          // carry only worker-side events on the worker's own clock.
          obs::Tracer& tracer = obs::Tracer::global();
          tracer.reset_for_testing();
          tracer.set_enabled(true);
          obs::Registry::global().reset();
          telemetry_seq = 0;
          task_track =
              tracer.track("tasks", "rank " + std::to_string(ctx.rank));
        }
        // InitAck: the context's CRC-32, the worker's os pid and a
        // tracer-clock reading sampled mid-round-trip (the coordinator's
        // first clock-offset estimate for this incarnation).
        Message ack;
        ack.type = MsgType::kInitAck;
        bytes::Writer w;
        w.u32(crc32(msg.payload.data(), msg.payload.size()));
        w.i64(static_cast<std::int64_t>(::getpid()));
        w.f64(obs::Tracer::global().now_us());
        ack.payload = w.take();
        if (!ep.send(ack)) return;
        break;
      }
      case MsgType::kPing: {
        if (hung) break;  // a hung worker misses heartbeats too
        // Pong: the ping's nonce and a tracer-clock reading for the
        // coordinator's offset estimator.
        Message pong;
        pong.type = MsgType::kPong;
        bytes::Writer w;
        w.raw(msg.payload.data(), msg.payload.size());
        w.f64(obs::Tracer::global().now_us());
        pong.payload = w.take();
        if (!ep.send(pong)) return;
        break;
      }
      case MsgType::kTask: {
        if (!inited) {
          throw TransportError("worker: task received before init");
        }
        if (hung) break;  // drill: swallow the task, keep the socket open
        if (ctx.fault.hang_after_tasks >= 0 &&
            tasks_done >= ctx.fault.hang_after_tasks) {
          hung = true;
          break;
        }
        if (ctx.fault.crash_after_tasks >= 0 &&
            tasks_done >= ctx.fault.crash_after_tasks) {
          ep.crash();  // SIGKILL: never returns
          return;
        }
        bytes::Reader r(msg.payload);
        const TaskHeader header = get_task_header(r);
        obs::Tracer& tracer = obs::Tracer::global();
        const double span_start = telemetry_armed ? tracer.now_us() : 0.0;
        const char* span_name = "task";
        Message result;
        result.type = MsgType::kResult;
        switch (header.task_class) {
          case TaskClass::kGrid: {
            span_name = "grid task";
            const GridBlockTask t = get_grid_task(r);
            result.payload =
                encode_grid_result(header.task_id,
                                   execute_grid_task(ctx.pipeline, t));
            break;
          }
          case TaskClass::kCa: {
            span_name = "ca task";
            const CaBlockTask t = get_ca_task(r);
            result.payload = encode_ca_result(
                header.task_id, execute_ca_task(ctx.pipeline, t));
            break;
          }
          case TaskClass::kBi: {
            span_name = "bi task";
            const BiBlockTask t = get_bi_task(r);
            result.payload = encode_bi_result(
                header.task_id, execute_bi_task(ctx.pipeline, t));
            break;
          }
        }
        if (telemetry_armed) {
          const double span_end = tracer.now_us();
          // The flow head lands at the span's start inside the task span,
          // tying it back to the coordinator's dispatch flow tail.
          const std::uint64_t flow_id =
              header.parent_span != 0 ? header.parent_span : header.task_id;
          tracer.complete(task_track, span_name, span_start,
                          span_end - span_start,
                          "task " + std::to_string(header.task_id));
          tracer.flow_finish(task_track, "dispatch", span_start, flow_id);
          obs::Registry::global().counter("worker/tasks").add(1);
          obs::Registry::global().timer_add(
              "worker/task_s", (span_end - span_start) * 1e-6);
        }
        if (ctx.fault.delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(ctx.fault.delay_ms));
        }
        ++tasks_done;
        if (!ep.send(result)) return;
        if (!flush_telemetry(false)) return;
        break;
      }
      case MsgType::kShutdown: {
        // Final telemetry flush first: the chunk must precede kBye so the
        // coordinator's shutdown loop ingests it before closing the book.
        flush_telemetry(true);
        Message bye;
        bye.type = MsgType::kBye;
        ep.send(bye);
        return;
      }
      default:
        break;  // unexpected types are ignored (stale retransmissions)
    }
  }
}

}  // namespace tme::par
