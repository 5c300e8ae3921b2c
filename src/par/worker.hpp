// Worker protocol: what travels inside transport Messages.
//
// The coordinator sends one kInit carrying the full WorkerContext (pipeline
// geometry + kernels + this worker's rank and fault-drill policy); the
// worker replies kInitAck (u32 context CRC-32 | i64 os pid | f64 worker
// clock) so a half-applied init is detected before any task runs; a kPong
// is the ping's u64 nonce plus an f64 worker clock.  Coordinator and worker
// are one build behind the versioned context, so both are parsed exactly:
// a short or padded ack refuses the worker.  Tasks and results are keyed by a
// u64 task id: retransmitted tasks are simply re-executed (every kernel is a
// pure function) and duplicate results are deduplicated by id on the
// coordinator, so at-least-once delivery still yields bitwise identical
// forces.
//
// The same context bytes are also persisted as a CRC-sealed context file —
// the restart checkpoint a respawned worker (or the standalone tme_worker
// binary) can be re-initialised from.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "par/executor.hpp"
#include "par/transport.hpp"

namespace tme::par {

class FdEndpoint;  // par/proc_transport.hpp

// Deterministic misbehaviour drills, applied inside the worker loop.
struct WorkerFaultPolicy {
  long crash_after_tasks = -1;  // >=0: SIGKILL itself after N completed tasks
  long hang_after_tasks = -1;   // >=0: stop answering after N completed tasks
  long delay_ms = 0;            // slow worker: sleep before each result
};

struct WorkerContext {
  PipelineContext pipeline;
  std::uint32_t rank = 0;
  std::uint32_t workers = 1;
  WorkerFaultPolicy fault;
  // Arm worker-side tracing + metrics: the worker restarts its own tracer
  // ring and registry and ships sealed chunks back as kTelemetry messages.
  bool telemetry = false;
};

// Context payload codec.  decode throws bytes::Error / TransportError on any
// malformed byte stream.
std::vector<std::uint8_t> encode_context(const WorkerContext& ctx);
WorkerContext decode_context(const std::vector<std::uint8_t>& bytes);

// CRC-sealed context file: magic + length + payload + CRC-32, written through
// io::write_file_durable.  Both throw TransportError: write on any IO
// failure (the temp file unlinked), read on a missing file, truncation or
// seal mismatch.
void write_context_file(const std::string& path,
                        const std::vector<std::uint8_t>& context_bytes);
std::vector<std::uint8_t> read_context_file(const std::string& path);

// Task payloads open with `u64 task_id | u16 task_class | u64 trace_id |
// u64 parent_span`; results echo the same header shape (trace fields zero).
// The trace fields propagate the coordinator's trace context: `parent_span`
// is the flow id of the dispatch span, so worker task spans nest under (and
// draw arrows from) the coordinator side in the merged timeline.
enum class TaskClass : std::uint16_t { kGrid = 0, kCa = 1, kBi = 2 };

std::vector<std::uint8_t> encode_grid_task(std::uint64_t task_id,
                                           const GridBlockTask& t,
                                           std::uint64_t trace_id = 0,
                                           std::uint64_t parent_span = 0);
std::vector<std::uint8_t> encode_ca_task(std::uint64_t task_id,
                                         const CaBlockTask& t,
                                         std::uint64_t trace_id = 0,
                                         std::uint64_t parent_span = 0);
std::vector<std::uint8_t> encode_bi_task(std::uint64_t task_id,
                                         const BiBlockTask& t,
                                         std::uint64_t trace_id = 0,
                                         std::uint64_t parent_span = 0);

struct ResultHeader {
  std::uint64_t task_id = 0;
  TaskClass task_class = TaskClass::kGrid;
};
ResultHeader peek_result_header(const std::vector<std::uint8_t>& payload);

Grid3d decode_grid_result(const std::vector<std::uint8_t>& payload);
ExtendedBlock decode_ca_result(const std::vector<std::uint8_t>& payload);
BiBlockResult decode_bi_result(const std::vector<std::uint8_t>& payload);

// Graceful-shutdown knobs for worker_loop.  `stop_requested` is polled
// between messages (and consulted before picking up new work): when it
// returns true the worker finishes the task it is executing, flushes its
// sealed context to `context_flush_path` (if set and it has one), and
// returns cleanly — the SIGTERM drain path, as opposed to the SIGKILL
// crash drills.  The functor must be async-signal-safe to *set* (the
// standalone binary backs it with a volatile sig_atomic_t).
struct WorkerLoopOptions {
  std::function<bool()> stop_requested;  // null: never stops voluntarily
  std::string context_flush_path;        // empty: no drain-time flush
};

// Runs one worker: Init -> InitAck, then Task -> Result / Ping -> Pong until
// kShutdown (answers kBye), a drain request via opts.stop_requested, or the
// coordinator's connection closes.  All compute goes through
// execute_*_task — the exact code path SerialExecutor uses in-process.
void worker_loop(FdEndpoint& ep);
void worker_loop(FdEndpoint& ep, const WorkerLoopOptions& opts);

}  // namespace tme::par
