// Injectable POSIX-IO fault shim for the storage path, and the one durable
// whole-file writer that drives it.
//
// write_file_durable() is the only write-all/fsync/rename/dir-fsync
// sequence in the tree: checkpoints, the fleet's sealed context file, chaos
// replay files and trace/telemetry timelines all go through it, so every
// open/write/fsync/rename passes this process-global shim.  Unarmed
// it is a transparent passthrough to the real syscalls; armed with an
// IoFaultPlan it deterministically injects the resource-exhaustion faults a
// week-long production run actually meets — ENOSPC part-way through a
// write, short writes, EINTR storms, fsync and rename failures — so the
// chaos harness (src/chaos) can prove the checkpoint rotation and the
// fleet's sealed-context fallback survive them with typed errors instead of
// crashes or silent corruption.
//
// The shim also carries a *bounded allocation-failure hook*: restore paths
// that size large buffers from on-disk headers ask `alloc_allowed(bytes)`
// first, so an armed plan can model allocator pressure (the next N guarded
// allocations fail) without touching the global operator new.
//
// Plans match on a path substring, so a test can target `*.ckpt` files
// while trace/bench output writes normally.  All mutation is
// mutex-guarded: the TSan tier runs fleet + chaos tests against this
// singleton.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <sys/types.h>
#include <vector>

namespace tme::io {

// Which faults an armed plan injects on matching paths.  Counters of what
// actually fired are in IoStats (realized-event log feeds on them).
struct IoFaultPlan {
  std::string path_substring;     // empty matches every shimmed path
  bool fail_open = false;         // open() fails with EACCES
  long enospc_after_bytes = -1;   // >=0: bytes beyond this fail with ENOSPC
  bool short_writes = false;      // every write() accepts at most half
  bool zero_progress_writes = false;  // every write() accepts nothing, returns 0
  int eintr_every = 0;            // >0: every Nth write()/fsync() EINTRs once
  bool fail_fsync = false;        // fsync() fails with EIO
  bool fail_rename = false;       // rename() fails with EIO
  long fail_allocs = 0;           // >0: the next N guarded allocations fail
  std::size_t alloc_min_bytes = 0;  // only allocations at least this large

  bool any() const {
    return fail_open || enospc_after_bytes >= 0 || short_writes ||
           zero_progress_writes || eintr_every > 0 || fail_fsync || fail_rename || fail_allocs > 0;
  }
};

struct IoStats {
  std::uint64_t injected_enospc = 0;
  std::uint64_t injected_short_writes = 0;
  std::uint64_t injected_zero_writes = 0;
  std::uint64_t injected_eintr = 0;
  std::uint64_t injected_fsync_failures = 0;
  std::uint64_t injected_rename_failures = 0;
  std::uint64_t injected_open_failures = 0;
  std::uint64_t injected_alloc_failures = 0;
};

class IoShim {
 public:
  static IoShim& instance();

  // Replaces the active plan and resets the per-plan write budget.  Stats
  // accumulate across plans until reset_stats().
  void arm(IoFaultPlan plan);
  void disarm();
  bool armed() const;
  IoFaultPlan plan() const;
  IoStats stats() const;
  void reset_stats();

  // POSIX-shaped calls: same return/errno contract as the syscalls they
  // wrap, with faults injected first on armed matching paths.
  int open_for_write(const std::string& path);
  ssize_t write_some(int fd, const void* buf, std::size_t len,
                     const std::string& path);
  int fsync_fd(int fd, const std::string& path);
  int close_fd(int fd);
  int rename_file(const std::string& from, const std::string& to);
  // fsyncs the directory containing `path` (durability of the rename
  // itself); returns 0 when the directory cannot be opened read-only on
  // this platform — only a real or injected fsync failure reports -1.
  int fsync_parent_dir(const std::string& path);

  // Allocation-failure hook: returns false (and consumes one failure budget
  // token) when a guarded allocation of `bytes` should fail.
  bool alloc_allowed(std::size_t bytes);

 private:
  IoShim() = default;
  bool matches(const std::string& path) const;  // callers hold mu_

  mutable std::mutex mu_;
  bool armed_ = false;
  IoFaultPlan plan_;
  IoStats stats_;
  long bytes_written_ = 0;  // against enospc_after_bytes, since arm()
  int op_count_ = 0;        // against eintr_every
};

// RAII arm/disarm for tests: arms on construction, restores the previous
// plan (or disarms) on destruction.
class ScopedIoFaults {
 public:
  explicit ScopedIoFaults(IoFaultPlan plan);
  ~ScopedIoFaults();
  ScopedIoFaults(const ScopedIoFaults&) = delete;
  ScopedIoFaults& operator=(const ScopedIoFaults&) = delete;

 private:
  bool was_armed_;
  IoFaultPlan previous_;
};

// The step of a whole-file write or read that failed.
enum class IoStep { kOpen, kWrite, kFsync, kClose, kRename, kSyncDir, kRead };

// A failed write_file_durable / read_file: which step failed, on which
// path, with which errno.  A write that stops making progress reports
// ENOSPC, like the device-full error it almost always is.
class IoError : public std::runtime_error {
 public:
  IoError(IoStep step, const std::string& path, int err);
  IoStep step() const { return step_; }
  int error() const { return error_; }

 private:
  IoStep step_;
  int error_;
};

// Writes `bytes` to `path` atomically and durably: stage <path>.tmp, write
// all of it (retrying EINTR; eight zero-progress writes in a row count as
// ENOSPC), fsync, close, rename over `path`, fsync the parent directory.
// After a crash `path` holds either its previous contents or all of
// `bytes`.  Any failure before the rename unlinks the temp file and throws
// IoError, leaving `path` untouched.
void write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> bytes);
void write_file_durable(const std::string& path, const std::string& text);

// Whole-file read; throws IoError (kOpen, kRead) on failure.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace tme::io
