// Message transport between the TME coordinator and its workers.
//
// Every message travels in a CRC-32-framed envelope with a per-connection
// sequence number — the same detect-and-retransmit discipline the
// hw/network_model gives the simulated torus links, now applied to real
// inter-process traffic.  Two backends implement the interface:
//
//   InProcTransport   workers are threads, channels are in-memory byte
//                     queues.  The frames still go through the full
//                     encode/CRC/decode path, and a seeded fault policy can
//                     drop or corrupt coordinator->worker frames to exercise
//                     the retransmission machinery deterministically.
//   ProcTransport     workers are real processes (fork, or fork+exec of the
//                     tme_worker binary) over Unix-domain socketpairs.
//                     Deadlines run on poll(); a SIGKILLed worker surfaces
//                     as EOF/POLLHUP within one poll interval.
//
// The coordinator-side Transport owns one connection per worker; the
// worker-side Endpoint is the other end of exactly one connection.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace tme::par {

enum class MsgType : std::uint16_t {
  kInit = 1,   // coordinator -> worker: pipeline context
  kInitAck,    // worker -> coordinator: echo of the context CRC
  kTask,       // coordinator -> worker: one encoded node task
  kResult,     // worker -> coordinator: the task's result
  kPing,       // heartbeat request
  kPong,       // heartbeat reply (echoes the ping payload)
  kShutdown,   // coordinator -> worker: exit cleanly
  kBye,        // worker -> coordinator: acknowledging shutdown
  kTelemetry,  // worker -> coordinator: sealed trace chunk + metrics snapshot
};

struct Message {
  MsgType type = MsgType::kPing;
  std::uint64_t seq = 0;  // stamped by the sending side's connection
  std::vector<std::uint8_t> payload;
};

// Frame layout: u32 magic | u16 type | u16 reserved | u64 seq |
//               u64 payload_len | payload | u32 CRC-32 over all of the above.
inline constexpr std::uint32_t kFrameMagic = 0x544D4D47u;  // "TMMG"
inline constexpr std::size_t kFrameHeaderBytes = 24;
inline constexpr std::size_t kFrameTrailerBytes = 4;
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by send() when the peer's connection is gone (crashed worker).
class PeerDead : public TransportError {
 public:
  PeerDead(std::size_t worker, const std::string& what)
      : TransportError(what), worker_(worker) {}
  std::size_t worker() const { return worker_; }

 private:
  std::size_t worker_;
};

std::vector<std::uint8_t> encode_frame(const Message& m, std::uint64_t seq);

enum class DecodeStatus { kNeedMore, kOk, kBadCrc };

// Tries to decode one frame from the front of [data, data+len).  On kOk the
// message is in `out`; on kOk and kBadCrc, `consumed` bytes must be dropped
// from the stream (a CRC-rejected frame is discarded whole, keeping the
// stream in sync).  Throws TransportError on a magic/length violation the
// stream cannot recover from.
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t len,
                          Message& out, std::size_t& consumed);

struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t crc_rejects = 0;       // inbound frames discarded on CRC
  std::uint64_t frames_dropped = 0;    // outbound frames eaten by fault policy
  std::uint64_t frames_corrupted = 0;  // outbound frames bit-flipped by policy
};

enum class RecvStatus { kOk, kTimeout, kClosed };

// Worker side of one coordinator<->worker connection.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual RecvStatus recv(Message& out, std::chrono::milliseconds deadline) = 0;
  // Returns false when the peer is gone (no exception: a dying coordinator
  // just means the worker exits).
  virtual bool send(const Message& m) = 0;
  // Abrupt self-inflicted death for drills: SIGKILL in a process worker,
  // hard channel teardown in an in-proc worker.
  virtual void crash() = 0;
};

// Seeded coordinator->worker frame mangling, for deterministic
// retransmission drills on either backend.
struct TransportFaultPolicy {
  std::uint64_t seed = 2021;
  double drop_rate = 0.0;     // frame silently discarded before delivery
  double corrupt_rate = 0.0;  // one payload bit flipped; receiver CRC-rejects
  // Added outbound latency per coordinator->worker frame.  Because only one
  // leg of the round trip is delayed this injects *asymmetric* path delay —
  // exactly the adversary the clock-offset estimator's RTT/2 error bound is
  // tested against.
  long delay_ms = 0;
  bool active() const { return drop_rate > 0.0 || corrupt_rate > 0.0; }
};

// Coordinator side: one connection per worker, deadline-driven receives.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* name() const = 0;
  virtual std::size_t worker_count() const = 0;
  virtual bool alive(std::size_t worker) const = 0;
  // Throws PeerDead if the worker's connection is (or becomes) closed.
  virtual void send(std::size_t worker, const Message& m) = 0;
  virtual RecvStatus recv(std::size_t worker, Message& out,
                          std::chrono::milliseconds deadline) = 0;

  struct AnyResult {
    std::size_t worker = 0;
    RecvStatus status = RecvStatus::kOk;  // kOk (out valid) or kClosed
  };
  // Waits for a message from any worker with want[w] != 0.  Reports a closed
  // wanted connection (queue drained) as kClosed — the caller must clear
  // want[w] after handling it or the same report repeats.  nullopt on
  // deadline expiry.
  virtual std::optional<AnyResult> recv_any(const std::vector<char>& want,
                                            Message& out,
                                            std::chrono::milliseconds deadline) = 0;

  // Hard-kills the worker (SIGKILL / channel teardown).  Queued inbound
  // messages remain readable.
  virtual void kill(std::size_t worker) = 0;
  // Replaces a dead worker with a fresh one on a fresh connection (the new
  // worker is blank: the caller must re-send Init).
  virtual void respawn(std::size_t worker) = 0;

  // Swaps the coordinator->worker frame-mangling policy mid-run and reseeds
  // its RNG, so the chaos harness can open and close packet-fault windows at
  // scheduled steps and a replay mangles the same frames.  Must be called
  // from the coordinator thread (the same thread that calls send).
  virtual void set_fault_policy(const TransportFaultPolicy& fault) {
    (void)fault;
  }

  const TransportStats& stats() const { return stats_; }

  // The same counters split per worker connection, so the fleet can export
  // per-worker traffic/corruption gauges into the metrics registry.  A
  // worker index the backend never initialised reads as all-zero.
  const TransportStats& worker_stats(std::size_t worker) const {
    static const TransportStats kZero{};
    return worker < worker_stats_.size() ? worker_stats_[worker] : kZero;
  }

 protected:
  TransportStats stats_;
  std::vector<TransportStats> worker_stats_;

  // Bumps both the aggregate and the per-worker row (growing it on demand).
  TransportStats& per_worker(std::size_t worker) {
    if (worker >= worker_stats_.size()) worker_stats_.resize(worker + 1);
    return worker_stats_[worker];
  }

  // The outbound fault policy on one encoded coordinator->worker frame,
  // shared by both backends so a replayed schedule mangles bit-identical
  // frames: the drill delay, then a seeded drop (returns false; the
  // deadline layer retransmits) or one flipped payload-or-CRC bit, which the
  // receiver's CRC check rejects without desynchronising.
  bool mangle_outbound(std::size_t worker, const TransportFaultPolicy& fault,
                       Rng& rng, std::vector<std::uint8_t>& frame);
  // Book one sent or received frame, or `n` CRC rejects, on the aggregate
  // and on the worker's row.
  void count_sent(std::size_t worker, std::size_t frame_bytes);
  void count_received(std::size_t worker, std::size_t frame_bytes);
  void count_crc_rejects(std::size_t worker, std::uint64_t n);
};

// In-process backend: one thread per worker, lock-protected frame queues.
class InProcTransport : public Transport {
 public:
  using WorkerMain = std::function<void(Endpoint&)>;

  InProcTransport(std::size_t workers, WorkerMain worker_main,
                  TransportFaultPolicy fault = {});
  ~InProcTransport() override;

  const char* name() const override { return "inproc"; }
  std::size_t worker_count() const override;
  bool alive(std::size_t worker) const override;
  void send(std::size_t worker, const Message& m) override;
  RecvStatus recv(std::size_t worker, Message& out,
                  std::chrono::milliseconds deadline) override;
  std::optional<AnyResult> recv_any(const std::vector<char>& want, Message& out,
                                    std::chrono::milliseconds deadline) override;
  void kill(std::size_t worker) override;
  void respawn(std::size_t worker) override;
  void set_fault_policy(const TransportFaultPolicy& fault) override;

  struct State;  // shared with the worker-side endpoints

 private:
  void spawn(std::size_t worker);
  std::shared_ptr<State> state_;
  WorkerMain worker_main_;
  TransportFaultPolicy fault_;
};

}  // namespace tme::par
