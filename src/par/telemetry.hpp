// Wire codec for kTelemetry shipments (worker -> coordinator).
//
// Payload layout (little-endian, inside the usual CRC-framed envelope):
//   u32 magic 'TLM1' | u32 rank | i64 pid | u64 seq |
//   u64 emitted | u64 dropped                      (cumulative counters)
//   u64 n_tracks | n x (str process, str name)     (chunk track table)
//   u64 n_events | n x (u8 type | u32 track | f64 ts | f64 dur | f64 value |
//                       u64 flow | str name | str detail)
//   str metrics_json                               ("" when metrics are off)
// where `str` is u64 length + raw bytes.  Decoding rejects oversized
// counts/strings loudly (bytes::Error) instead of resizing into garbage.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"

namespace tme::par {

std::vector<std::uint8_t> encode_telemetry(const obs::WorkerTelemetry& t);
obs::WorkerTelemetry decode_telemetry(const std::vector<std::uint8_t>& bytes);

}  // namespace tme::par
