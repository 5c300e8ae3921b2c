#include "md/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/io_shim.hpp"

namespace tme {

namespace {

constexpr char kMagic[8] = {'T', 'M', 'E', 'C', 'K', 'P', 'T', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kPerParticleBytes =
    3 * 3 * sizeof(double) + 2 * sizeof(double);  // 3 Vec3 arrays + 2 scalars
constexpr std::uint64_t kHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t) +
                                       2 * sizeof(std::uint64_t) +
                                       3 * sizeof(double);

// Particle arrays travel as raw doubles (Vec3 x/y/z interleaved).
template <typename T>
void put_array(bytes::Writer& w, const std::vector<T>& v) {
  w.raw(v.data(), v.size() * sizeof(T));
}

template <typename T>
void get_array(bytes::Reader& r, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  r.raw(v.data(), n * sizeof(T));
}

}  // namespace

void write_checkpoint(const std::string& path, const ParticleSystem& system,
                      std::uint64_t step) {
  bytes::Writer w;
  w.reserve(kHeaderBytes + system.size() * kPerParticleBytes +
            bytes::kSealBytes);
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.u64(step);
  w.u64(system.size());
  w.f64(system.box.lengths.x);
  w.f64(system.box.lengths.y);
  w.f64(system.box.lengths.z);
  put_array(w, system.positions);
  put_array(w, system.velocities);
  put_array(w, system.forces);
  put_array(w, system.masses);
  put_array(w, system.charges);
  bytes::seal(w);
  try {
    io::write_file_durable(path, w.bytes());
  } catch (const io::IoError& e) {
    throw CheckpointError(e.error() == ENOSPC ? CheckpointFault::kNoSpace
                                              : CheckpointFault::kIoError,
                          std::string("checkpoint: ") + e.what());
  }
  TME_COUNTER_ADD("md/checkpoint/writes", 1);
}

Checkpoint read_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> file;
  try {
    file = io::read_file(path);
  } catch (const io::IoError& e) {
    throw CheckpointError(CheckpointFault::kMissingFile,
                          std::string("checkpoint: ") + e.what());
  }
  // Too short to hold the header is truncated, whatever the bytes say.
  if (file.size() < kHeaderBytes + bytes::kSealBytes) {
    throw CheckpointError(CheckpointFault::kTruncated,
                          "checkpoint: truncated file");
  }
  std::span<const std::uint8_t> body;
  try {
    body = bytes::unseal(file);
  } catch (const bytes::Error&) {
    throw CheckpointError(CheckpointFault::kCrcMismatch,
                          "checkpoint: CRC mismatch (corrupted file)");
  }

  // The header fits (checked above) and the arrays are sized exactly
  // (checked below), so no read in this function can overrun.
  bytes::Reader r(body);
  char magic[8];
  r.raw(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(CheckpointFault::kBadMagic,
                          "checkpoint: bad magic (not a TME checkpoint)");
  }
  if (const std::uint32_t version = r.u32(); version != kVersion) {
    throw CheckpointError(CheckpointFault::kBadVersion,
                          "checkpoint: unsupported version " +
                              std::to_string(version));
  }
  Checkpoint ckpt;
  ckpt.step = r.u64();
  const std::uint64_t declared_n = r.u64();
  // Defensive header validation: the declared particle count fixes the exact
  // payload size, so verify it against the file length BEFORE sizing any
  // allocation from it.  A forged or bit-rotted count that happens to carry
  // a matching CRC must fail here, not in a multi-gigabyte resize.
  const std::uint64_t array_bytes = body.size() - kHeaderBytes;
  if (array_bytes % kPerParticleBytes != 0 ||
      declared_n != array_bytes / kPerParticleBytes) {
    throw CheckpointError(
        CheckpointFault::kBadLength,
        "checkpoint: declared particle count " + std::to_string(declared_n) +
            " does not match the payload size " + std::to_string(body.size()));
  }
  // Bounded allocation hook: the restore buffers are the one place this
  // layer sizes memory from external input, so ask the shim before
  // committing.  Under allocator pressure the caller falls back to an older
  // (typically smaller or already-resident) generation instead of dying in
  // a bad_alloc mid-recovery.
  if (!io::IoShim::instance().alloc_allowed(
          static_cast<std::size_t>(declared_n * kPerParticleBytes))) {
    throw CheckpointError(CheckpointFault::kResource,
                          "checkpoint: restore allocation of " +
                              std::to_string(declared_n * kPerParticleBytes) +
                              " bytes refused");
  }
  const auto n = static_cast<std::size_t>(declared_n);
  ckpt.system.box.lengths.x = r.f64();
  ckpt.system.box.lengths.y = r.f64();
  ckpt.system.box.lengths.z = r.f64();
  get_array(r, ckpt.system.positions, n);
  get_array(r, ckpt.system.velocities, n);
  get_array(r, ckpt.system.forces, n);
  get_array(r, ckpt.system.masses, n);
  get_array(r, ckpt.system.charges, n);
  TME_COUNTER_ADD("md/checkpoint/restores", 1);
  return ckpt;
}

const char* to_string(CheckpointFault fault) {
  switch (fault) {
    case CheckpointFault::kMissingFile:
      return "missing-file";
    case CheckpointFault::kTruncated:
      return "truncated";
    case CheckpointFault::kCrcMismatch:
      return "crc-mismatch";
    case CheckpointFault::kBadMagic:
      return "bad-magic";
    case CheckpointFault::kBadVersion:
      return "bad-version";
    case CheckpointFault::kBadLength:
      return "bad-length";
    case CheckpointFault::kIoError:
      return "io-error";
    case CheckpointFault::kNoSpace:
      return "no-space";
    case CheckpointFault::kResource:
      return "resource";
  }
  return "unknown";
}

namespace {

std::string generation_path(const std::string& path, int gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

}  // namespace

void write_checkpoint_rotating(const std::string& path,
                               const ParticleSystem& system,
                               std::uint64_t step, int keep) {
  if (keep < 1) {
    throw CheckpointError(CheckpointFault::kIoError,
                          "checkpoint: keep must be >= 1");
  }
  // Shift older generations out of the way, oldest first.  A missing
  // generation is fine (rename just fails); a crash mid-shift leaves every
  // file either at its old or its new slot, all still self-validating.
  for (int gen = keep - 1; gen >= 1; --gen) {
    std::rename(generation_path(path, gen - 1).c_str(),
                generation_path(path, gen).c_str());
  }
  write_checkpoint(path, system, step);
}

Checkpoint read_latest_checkpoint(const std::string& path, int keep,
                                  std::string* used) {
  std::optional<CheckpointError> newest_error;
  for (int gen = 0; gen < std::max(keep, 1); ++gen) {
    const std::string candidate = generation_path(path, gen);
    try {
      Checkpoint ckpt = read_checkpoint(candidate);
      if (used != nullptr) *used = candidate;
      return ckpt;
    } catch (const CheckpointError& e) {
      TME_COUNTER_ADD("md/checkpoint/fallbacks", 1);
      if (!newest_error) newest_error = e;
    }
  }
  throw *newest_error;
}

}  // namespace tme
