#include "par/transport.hpp"

#include "util/bytes.hpp"

namespace tme::par {

static_assert(kFrameTrailerBytes == bytes::kSealBytes);

std::vector<std::uint8_t> encode_frame(const Message& m, std::uint64_t seq) {
  bytes::Writer w;
  w.reserve(kFrameHeaderBytes + m.payload.size() + kFrameTrailerBytes);
  w.u32(kFrameMagic);
  w.u16(static_cast<std::uint16_t>(m.type));
  w.u16(0);  // reserved
  w.u64(seq);
  w.u64(m.payload.size());
  w.raw(m.payload.data(), m.payload.size());
  bytes::seal(w);
  return w.take();
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t len,
                          Message& out, std::size_t& consumed) {
  consumed = 0;
  if (len < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  bytes::Reader header({data, kFrameHeaderBytes});
  if (header.u32() != kFrameMagic) {
    throw TransportError("transport: bad frame magic (stream desynchronised)");
  }
  const std::uint16_t type = header.u16();
  header.u16();  // reserved
  const std::uint64_t seq = header.u64();
  const std::uint64_t payload_len = header.u64();
  if (payload_len > kMaxPayloadBytes) {
    throw TransportError("transport: frame length exceeds limit");
  }
  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(payload_len) +
                            kFrameTrailerBytes;
  if (len < total) return DecodeStatus::kNeedMore;
  consumed = total;
  std::span<const std::uint8_t> body;
  try {
    body = bytes::unseal({data, total});
  } catch (const bytes::Error&) {
    return DecodeStatus::kBadCrc;
  }
  out.type = static_cast<MsgType>(type);
  out.seq = seq;
  out.payload.assign(body.begin() + kFrameHeaderBytes, body.end());
  return DecodeStatus::kOk;
}

}  // namespace tme::par
