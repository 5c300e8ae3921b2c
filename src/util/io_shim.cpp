#include "util/io_shim.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

namespace tme::io {

namespace {

const char* to_string(IoStep step) {
  constexpr const char* kNames[] = {"open",   "write",  "fsync",
                                    "close",  "rename", "directory fsync",
                                    "read"};
  return kNames[static_cast<int>(step)];
}

}  // namespace

IoShim& IoShim::instance() {
  static IoShim shim;
  return shim;
}

void IoShim::arm(IoFaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  armed_ = plan_.any();
  bytes_written_ = 0;
  op_count_ = 0;
}

void IoShim::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  plan_ = IoFaultPlan{};
  bytes_written_ = 0;
  op_count_ = 0;
}

bool IoShim::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

IoFaultPlan IoShim::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

IoStats IoShim::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IoShim::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IoStats{};
}

bool IoShim::matches(const std::string& path) const {
  return plan_.path_substring.empty() ||
         path.find(plan_.path_substring) != std::string::npos;
}

int IoShim::open_for_write(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && plan_.fail_open && matches(path)) {
      ++stats_.injected_open_failures;
      errno = EACCES;
      return -1;
    }
  }
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

ssize_t IoShim::write_some(int fd, const void* buf, std::size_t len,
                           const std::string& path) {
  std::size_t allowed = len;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && matches(path)) {
      if (plan_.eintr_every > 0 && ++op_count_ % plan_.eintr_every == 0) {
        ++stats_.injected_eintr;
        errno = EINTR;
        return -1;
      }
      if (plan_.enospc_after_bytes >= 0 &&
          bytes_written_ >= plan_.enospc_after_bytes) {
        ++stats_.injected_enospc;
        errno = ENOSPC;
        return -1;
      }
      if (plan_.zero_progress_writes) {
        ++stats_.injected_zero_writes;
        return 0;
      }
      if (plan_.enospc_after_bytes >= 0) {
        const long budget = plan_.enospc_after_bytes - bytes_written_;
        if (static_cast<long>(allowed) > budget) {
          allowed = static_cast<std::size_t>(budget);
        }
      }
      if (plan_.short_writes && allowed > 1) {
        allowed = (allowed + 1) / 2;
        ++stats_.injected_short_writes;
      }
    }
  }
  const ssize_t n = ::write(fd, buf, allowed);
  if (n > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_written_ += n;
  }
  return n;
}

int IoShim::fsync_fd(int fd, const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && matches(path)) {
      if (plan_.eintr_every > 0 && ++op_count_ % plan_.eintr_every == 0) {
        ++stats_.injected_eintr;
        errno = EINTR;
        return -1;
      }
      if (plan_.fail_fsync) {
        ++stats_.injected_fsync_failures;
        errno = EIO;
        return -1;
      }
    }
  }
  return ::fsync(fd);
}

int IoShim::close_fd(int fd) { return ::close(fd); }

int IoShim::rename_file(const std::string& from, const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && plan_.fail_rename && (matches(from) || matches(to))) {
      ++stats_.injected_rename_failures;
      errno = EIO;
      return -1;
    }
  }
  return ::rename(from.c_str(), to.c_str());
}

int IoShim::fsync_parent_dir(const std::string& path) {
  std::string dir = ".";
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && plan_.fail_fsync && matches(path)) {
      ++stats_.injected_fsync_failures;
      errno = EIO;
      return -1;
    }
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) return 0;  // directory fsync is best-effort by platform
  const int rc = ::fsync(dfd);
  ::close(dfd);
  return rc;
}

bool IoShim::alloc_allowed(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || plan_.fail_allocs <= 0 || bytes < plan_.alloc_min_bytes) {
    return true;
  }
  --plan_.fail_allocs;
  ++stats_.injected_alloc_failures;
  return false;
}

ScopedIoFaults::ScopedIoFaults(IoFaultPlan plan) {
  auto& shim = IoShim::instance();
  was_armed_ = shim.armed();
  previous_ = shim.plan();
  shim.arm(std::move(plan));
}

ScopedIoFaults::~ScopedIoFaults() {
  auto& shim = IoShim::instance();
  if (was_armed_) {
    shim.arm(previous_);
  } else {
    shim.disarm();
  }
}

IoError::IoError(IoStep step, const std::string& path, int err)
    : std::runtime_error(std::string(to_string(step)) + " of " + path +
                         " failed: " + std::strerror(err)),
      step_(step),
      error_(err) {}

void write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  IoShim& shim = IoShim::instance();
  const std::string tmp = path + ".tmp";
  const int fd = shim.open_for_write(tmp);
  if (fd < 0) throw IoError(IoStep::kOpen, tmp, errno);
  // fd is owned from here on: any failure unlinks the temp file so a full
  // disk is not further polluted and the previous file stays in place.
  const auto fail = [&](IoStep step, int err) {
    shim.close_fd(fd);
    std::remove(tmp.c_str());
    throw IoError(step, tmp, err);
  };

  // A write that keeps returning 0 without an error is out-of-space, not a
  // reason to spin forever.
  const std::uint8_t* data = bytes.data();
  std::size_t remaining = bytes.size();
  int zero_progress = 0;
  while (remaining > 0) {
    const ssize_t n = shim.write_some(fd, data, remaining, tmp);
    if (n < 0) {
      if (errno != EINTR) fail(IoStep::kWrite, errno);
    } else if (n == 0) {
      if (++zero_progress >= 8) fail(IoStep::kWrite, ENOSPC);
    } else {
      zero_progress = 0;
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
  }
  // The bytes must be on the device before the rename publishes them, or a
  // crash can leave `path` pointing at a hole.  A failed fsync leaves the
  // page cache in an undefined state, so the write is abandoned.
  while (shim.fsync_fd(fd, tmp) != 0) {
    if (errno != EINTR) fail(IoStep::kFsync, errno);
  }
  if (shim.close_fd(fd) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw IoError(IoStep::kClose, tmp, err);
  }
  if (shim.rename_file(tmp, path) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw IoError(IoStep::kRename, path, err);
  }
  // The rename itself lives in the directory: fsync it so the new name
  // survives a power cut too.
  if (shim.fsync_parent_dir(path) != 0) {
    throw IoError(IoStep::kSyncDir, path, errno);
  }
}

void write_file_durable(const std::string& path, const std::string& text) {
  write_file_durable(
      path, std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError(IoStep::kOpen, path, errno);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) != 0;) {
    if (n > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      throw IoError(IoStep::kRead, path, err);
    }
  }
  ::close(fd);
  return bytes;
}

}  // namespace tme::io
