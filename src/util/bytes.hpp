// Byte-level serialisation shared by every format that leaves the process:
// transport frames, worker tasks/results and contexts, TLM1 telemetry, the
// sealed worker context file and MD checkpoints.
//
// Little-endian, fixed-width writes of plain scalars and double arrays.
// The Reader is bounded: any overrun or implausible element count throws
// bytes::Error, so a truncated or malformed input is rejected loudly instead
// of read as garbage.  seal()/unseal() are the one CRC-32 trailer: seal
// appends the CRC over everything written so far, unseal verifies it and
// hands back the body it covers.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/vec3.hpp"

namespace tme::bytes {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::size_t kSealBytes = sizeof(std::uint32_t);

// Vec3 arrays travel as raw doubles, x/y/z interleaved.
static_assert(sizeof(Vec3) == 3 * sizeof(double));

class Writer {
 public:
  // Sizing the buffer up front keeps a known-size message to one allocation.
  void reserve(std::size_t len) { bytes_.reserve(len); }
  void raw(const void* data, std::size_t len) {
    // An empty vector's data() may be null, which memcpy must not receive.
    if (len == 0) return;
    const std::size_t old = bytes_.size();
    bytes_.resize(old + len);
    std::memcpy(bytes_.data() + old, data, len);
  }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void vec3s(const std::vector<Vec3>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(Vec3));
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), len_(bytes.size()) {}

  void raw(void* out, std::size_t len) {
    if (len > len_ - pos_) throw Error("bytes: truncated payload");
    if (len == 0) return;
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  std::uint16_t u16() { return value<std::uint16_t>(); }
  std::uint32_t u32() { return value<std::uint32_t>(); }
  std::uint64_t u64() { return value<std::uint64_t>(); }
  std::int64_t i64() { return value<std::int64_t>(); }
  double f64() { return value<double>(); }
  // Element-count sanity bound: a corrupted length must fail here, not in a
  // multi-gigabyte resize.
  std::size_t count(std::uint64_t max_elems) {
    const std::uint64_t n = u64();
    if (n > max_elems) throw Error("bytes: element count out of range");
    return static_cast<std::size_t>(n);
  }
  std::vector<double> doubles() {
    const std::size_t n = count(remaining() / sizeof(double));
    std::vector<double> v(n);
    raw(v.data(), n * sizeof(double));
    return v;
  }
  std::vector<Vec3> vec3s() {
    const std::size_t n = count(remaining() / sizeof(Vec3));
    std::vector<Vec3> v(n);
    raw(v.data(), n * sizeof(Vec3));
    return v;
  }
  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  template <typename T>
  T value() {
    T v;
    raw(&v, sizeof(T));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// Appends the CRC-32 of every byte written so far.
inline void seal(Writer& w) {
  w.u32(crc32(w.bytes().data(), w.bytes().size()));
}

// Verifies the trailing CRC-32 of a sealed buffer and returns the body it
// covers; throws Error when the buffer is shorter than the seal or the CRC
// disagrees (a flipped bit, a torn tail).
inline std::span<const std::uint8_t> unseal(
    std::span<const std::uint8_t> sealed) {
  if (sealed.size() < kSealBytes) throw Error("bytes: sealed input too short");
  const std::span<const std::uint8_t> body =
      sealed.first(sealed.size() - kSealBytes);
  std::uint32_t stored;
  std::memcpy(&stored, sealed.data() + body.size(), kSealBytes);
  if (crc32(body.data(), body.size()) != stored) {
    throw Error("bytes: CRC mismatch");
  }
  return body;
}

}  // namespace tme::bytes
