// Wire format between the TME coordinator and its worker processes.
//
// Every message travels in a CRC-32-framed envelope with a per-connection
// sequence number — the same detect-and-retransmit discipline the
// hw/network_model gives the simulated torus links, now applied to real
// inter-process traffic.  The connections themselves live in
// par/proc_transport.hpp: ProcTransport owns the coordinator side of one
// Unix-domain socketpair per worker process, FdEndpoint is the worker side.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

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

// Seeded coordinator->worker frame mangling, for deterministic
// retransmission drills.
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

}  // namespace tme::par
