// Binary checkpoint / restart for MD runs.
//
// A checkpoint captures the complete integrator-visible state of a
// ParticleSystem — positions, velocities, *and* forces (Velocity-Verlet's
// first half-kick uses the forces of the previous step), plus masses,
// charges, box and step counter — so a restored run continues
// bitwise-identically to one that never stopped.  The payload carries a
// trailing CRC-32; a flipped bit or truncated file is rejected on read
// rather than silently resuming from garbage.
//
// Format (little-endian, version 1):
//   magic "TMECKPT\0" | u32 version | u64 step | u64 n_particles |
//   box lengths 3 x f64 |
//   positions 3n x f64 | velocities 3n x f64 | forces 3n x f64 |
//   masses n x f64 | charges n x f64 |
//   u32 CRC-32 over everything above
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "md/system.hpp"

namespace tme {

struct Checkpoint {
  std::uint64_t step = 0;
  ParticleSystem system;
};

// What exactly was wrong with a rejected checkpoint file.  Callers that
// distinguish "no file yet" (fresh start) from "file exists but is damaged"
// (fall back to an older generation, alert) switch on this instead of
// parsing message strings.
enum class CheckpointFault {
  kMissingFile,   // cannot open or read
  kTruncated,     // shorter than its own structure claims
  kCrcMismatch,   // seal does not cover the bytes on disk
  kBadMagic,      // not a TME checkpoint at all
  kBadVersion,    // format newer/older than this build understands
  kBadLength,     // declared particle count disagrees with the payload size
  kIoError,       // write-side open/write/fsync/rename failure
  kNoSpace,       // ENOSPC or persistent short write: the device is full
  kResource,      // allocation refused while sizing the restore buffers
};

const char* to_string(CheckpointFault fault);

class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointFault fault, const std::string& what)
      : std::runtime_error(what), fault_(fault) {}
  CheckpointFault fault() const { return fault_; }

 private:
  CheckpointFault fault_;
};

// Writes atomically *and durably* through io::write_file_durable: after a
// power cut `path` holds either the previous checkpoint or a complete new
// one, never a torn or merely-cached write.  All IO goes through
// tme::io::IoShim, so the chaos harness can inject ENOSPC / short writes /
// EINTR storms / fsync failures; those surface as typed CheckpointErrors
// (kNoSpace for ENOSPC or a write that stops making progress, kIoError for
// the rest) with the temp file unlinked, leaving older generations
// untouched.
void write_checkpoint(const std::string& path, const ParticleSystem& system,
                      std::uint64_t step);

// Throws CheckpointError (a std::runtime_error) on a missing file, bad
// magic, unsupported version, truncation, or CRC mismatch.  Every header
// field is validated against the actual file size before any allocation is
// sized from it.
Checkpoint read_checkpoint(const std::string& path);

// Generational writes: shifts path -> path.1 -> ... -> path.<keep-1> before
// renaming the fresh checkpoint into `path`, so a write torn by a crash (or
// a disk that lies) still leaves the previous generation intact.
void write_checkpoint_rotating(const std::string& path,
                               const ParticleSystem& system,
                               std::uint64_t step, int keep = 2);

// Restores the newest readable generation: `path` first, then path.1, ...
// A damaged newer file is skipped (and counted under
// md/checkpoint/fallbacks); if no generation is readable the error from the
// newest file is rethrown.  `used`, when non-null, reports which file loaded.
Checkpoint read_latest_checkpoint(const std::string& path, int keep = 2,
                                  std::string* used = nullptr);

}  // namespace tme
