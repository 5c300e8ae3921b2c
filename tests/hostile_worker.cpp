// A misbehaving fleet worker for the handshake tests.  WorkerFleet
// fork+execs it through FleetConfig::worker_bin (`hostile_worker --fd N`);
// it speaks the frame protocol but answers with malformed replies, chosen by
// the HOSTILE_WORKER_MODE environment variable it inherits:
//   short   the InitAck is one byte short
//   padded  the InitAck carries one trailing byte
//   crc     the InitAck echoes a wrong context CRC
//   pong    the InitAck is well formed and every Pong is one byte short
// A Shutdown is answered with Bye, so a fleet that survived the handshake
// stops cleanly.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "par/proc_transport.hpp"
#include "par/transport.hpp"
#include "util/args.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace {

using tme::par::Message;
using tme::par::MsgType;

Message init_ack(const std::string& mode, const Message& init) {
  std::uint32_t crc = tme::crc32(init.payload.data(), init.payload.size());
  if (mode == "crc") crc ^= 1u;
  tme::bytes::Writer w;
  w.u32(crc);
  w.i64(static_cast<std::int64_t>(::getpid()));
  w.f64(0.0);
  Message ack;
  ack.type = MsgType::kInitAck;
  ack.payload = w.take();
  if (mode == "short") ack.payload.pop_back();
  if (mode == "padded") ack.payload.push_back(0);
  return ack;
}

Message short_pong(const Message& ping) {
  Message pong;
  pong.type = MsgType::kPong;
  pong.payload = ping.payload;  // the nonce, without the clock reading
  pong.payload.resize(pong.payload.size() + 7, 0);
  return pong;
}

}  // namespace

int main(int argc, char** argv) {
  const tme::Args args(argc, argv);
  const int fd = args.get_int("fd", -1);
  const char* raw_mode = std::getenv("HOSTILE_WORKER_MODE");
  if (fd < 0 || raw_mode == nullptr) return 2;
  const std::string mode = raw_mode;

  tme::par::FdEndpoint ep(fd);
  Message msg;
  for (;;) {
    const tme::par::RecvStatus st = ep.recv(msg, std::chrono::milliseconds(1000));
    if (st == tme::par::RecvStatus::kClosed) return 0;
    if (st != tme::par::RecvStatus::kOk) continue;
    Message reply;
    if (msg.type == MsgType::kInit) {
      reply = init_ack(mode, msg);
    } else if (msg.type == MsgType::kPing) {
      reply = short_pong(msg);
    } else if (msg.type == MsgType::kShutdown) {
      reply.type = MsgType::kBye;
      ep.send(reply);
      return 0;
    } else {
      continue;
    }
    if (!ep.send(reply)) return 0;
  }
}
