#include "par/proc_transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

namespace tme::par {

namespace {

// Drain everything currently readable on `fd` into `buf`.  Returns false on
// EOF or a hard error (peer gone), true while the connection lives.
bool drain_fd(int fd, std::vector<std::uint8_t>& buf) {
  for (;;) {
    std::uint8_t chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET & friends: the peer crashed
  }
}

// Decode every complete frame in `buf` into `q`, counting CRC rejections.
void decode_buffered(std::vector<std::uint8_t>& buf, std::deque<Message>& q,
                     std::uint64_t* crc_rejects) {
  std::size_t off = 0;
  for (;;) {
    Message m;
    std::size_t consumed = 0;
    const DecodeStatus st =
        decode_frame(buf.data() + off, buf.size() - off, m, consumed);
    if (st == DecodeStatus::kNeedMore) break;
    off += consumed;
    if (st == DecodeStatus::kBadCrc) {
      ++*crc_rejects;
      continue;
    }
    q.push_back(std::move(m));
  }
  if (off > 0) buf.erase(buf.begin(), buf.begin() + static_cast<long>(off));
}

int clamp_poll_ms(std::chrono::steady_clock::time_point until) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      until - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  return static_cast<int>(std::min<long long>(left.count(), 50));
}

}  // namespace

// --- FdEndpoint --------------------------------------------------------------

FdEndpoint::~FdEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

RecvStatus FdEndpoint::recv(Message& out, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    // Serve from the buffer first.
    std::size_t consumed = 0;
    const DecodeStatus st =
        decode_frame(rxbuf_.data(), rxbuf_.size(), out, consumed);
    if (consumed > 0) {
      rxbuf_.erase(rxbuf_.begin(), rxbuf_.begin() + static_cast<long>(consumed));
    }
    if (st == DecodeStatus::kOk) return RecvStatus::kOk;
    if (st == DecodeStatus::kBadCrc) continue;

    struct pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, clamp_poll_ms(until));
    if (pr < 0 && errno != EINTR) return RecvStatus::kClosed;
    if (pr > 0) {
      if (!drain_fd(fd_, rxbuf_)) {
        // Peer gone — decode whatever arrived before the EOF.
        const DecodeStatus last =
            decode_frame(rxbuf_.data(), rxbuf_.size(), out, consumed);
        if (consumed > 0) {
          rxbuf_.erase(rxbuf_.begin(),
                       rxbuf_.begin() + static_cast<long>(consumed));
        }
        return last == DecodeStatus::kOk ? RecvStatus::kOk : RecvStatus::kClosed;
      }
      continue;
    }
    if (std::chrono::steady_clock::now() >= until) return RecvStatus::kTimeout;
  }
}

bool FdEndpoint::send(const Message& m) {
  const std::vector<std::uint8_t> frame = encode_frame(m, tx_seq_++);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd{fd_, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    return false;  // EPIPE/ECONNRESET: the coordinator is gone
  }
  return true;
}

void FdEndpoint::crash() { ::raise(SIGKILL); }

// --- ProcTransport -----------------------------------------------------------

ProcTransport::ProcTransport(std::size_t workers, Options opts)
    : opts_(std::move(opts)), fault_rng_(opts_.fault.seed) {
  if (workers == 0) {
    throw std::invalid_argument("ProcTransport: need at least one worker");
  }
  if (opts_.worker_bin.empty() && !opts_.fork_child) {
    throw std::invalid_argument(
        "ProcTransport: need a worker binary or a fork_child entry");
  }
  peers_.resize(workers);
  worker_stats_.assign(workers, TransportStats{});
  for (std::size_t w = 0; w < workers; ++w) spawn(w);
}

ProcTransport::~ProcTransport() {
  for (std::size_t w = 0; w < peers_.size(); ++w) {
    Peer& p = peers_[w];
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    if (p.alive && p.pid > 0) {
      ::kill(p.pid, SIGKILL);
      p.alive = false;
      p.reaped = false;
    }
    if (!p.reaped && p.pid > 0) {
      int status = 0;
      ::waitpid(p.pid, &status, 0);
      p.reaped = true;
    }
  }
}

void ProcTransport::spawn(std::size_t worker) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw TransportError("proc transport: socketpair failed");
  }
  // Generous kernel buffers reduce (but cannot eliminate — pump() handles
  // the rest) the chance of coordinator and worker blocking on each other's
  // full send buffers.
  const int buf_bytes = 1 << 20;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
  ::setsockopt(sv[0], SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));

  const pid_t child = ::fork();
  if (child < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw TransportError("proc transport: fork failed");
  }
  if (child == 0) {
    // Child: keep only our end of our socket.
    ::close(sv[0]);
    for (const Peer& other : peers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    if (!opts_.worker_bin.empty()) {
      char fd_arg[16];
      std::snprintf(fd_arg, sizeof(fd_arg), "%d", sv[1]);
      if (opts_.context_path.empty()) {
        ::execl(opts_.worker_bin.c_str(), opts_.worker_bin.c_str(), "--fd",
                fd_arg, static_cast<char*>(nullptr));
      } else {
        ::execl(opts_.worker_bin.c_str(), opts_.worker_bin.c_str(), "--fd",
                fd_arg, "--ctx", opts_.context_path.c_str(),
                static_cast<char*>(nullptr));
      }
      _exit(127);  // exec failed
    }
    opts_.fork_child(sv[1]);
    // _exit (not exit): a forked worker must not run the parent's atexit
    // handlers or LSan's end-of-process checks.
    _exit(0);
  }
  ::close(sv[1]);
  Peer& p = peers_[worker];
  p.pid = child;
  p.fd = sv[0];
  p.alive = true;
  p.reaped = false;
  p.have_status = false;
  p.exit_status = 0;
  p.rxbuf.clear();
  p.rxq.clear();
  p.tx_seq = 0;
}

void ProcTransport::reap(std::size_t worker, bool block) {
  Peer& p = peers_[worker];
  if (p.reaped || p.pid <= 0) return;
  int status = 0;
  const pid_t r = ::waitpid(p.pid, &status, block ? 0 : WNOHANG);
  if (r == p.pid) {
    p.reaped = true;
    p.have_status = true;
    p.exit_status = status;
  } else if (r < 0 && errno == ECHILD) {
    p.reaped = true;
  }
}

void ProcTransport::mark_dead(std::size_t worker) {
  Peer& p = peers_[worker];
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  p.alive = false;
  reap(worker, false);
}

void ProcTransport::pump(int timeout_ms, int want_writable_fd, bool* writable) {
  if (writable != nullptr) *writable = false;
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> owner;
  for (std::size_t w = 0; w < peers_.size(); ++w) {
    if (peers_[w].fd < 0) continue;
    short events = POLLIN;
    if (peers_[w].fd == want_writable_fd) events |= POLLOUT;
    pfds.push_back({peers_[w].fd, events, 0});
    owner.push_back(w);
  }
  if (pfds.empty()) return;
  const int pr = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (pr <= 0) return;
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    const std::size_t w = owner[i];
    Peer& p = peers_[w];
    if (pfds[i].revents & POLLOUT) {
      if (writable != nullptr) *writable = true;
    }
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      // Read before honouring HUP: the kernel may hold final bytes (a last
      // result, a Bye) sent just before the peer died.
      const bool open = drain_fd(p.fd, p.rxbuf);
      std::uint64_t rejects = 0;
      decode_buffered(p.rxbuf, p.rxq, &rejects);
      count_crc_rejects(w, rejects);
      if (!open) mark_dead(w);
    }
  }
}

bool ProcTransport::alive(std::size_t worker) const {
  return peers_[worker].alive;
}

pid_t ProcTransport::pid(std::size_t worker) const {
  return peers_[worker].pid;
}

void ProcTransport::send(std::size_t worker, const Message& m) {
  Peer& p = peers_[worker];
  if (!p.alive) {
    throw PeerDead(worker, "proc transport: worker " + std::to_string(worker) +
                               " is gone");
  }
  std::vector<std::uint8_t> frame = encode_frame(m, p.tx_seq++);
  if (!mangle_outbound(worker, frame)) return;
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(p.fd, frame.data() + off, frame.size() - off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The worker's receive buffer is full — almost certainly because it is
      // busy sending us results.  Drain every socket while waiting for
      // writability; this breaks the mutual-blocking cycle.
      pump(20, p.fd, nullptr);
      if (!p.alive) {
        throw PeerDead(worker, "proc transport: worker " +
                                   std::to_string(worker) + " died mid-send");
      }
      continue;
    }
    mark_dead(worker);
    throw PeerDead(worker, "proc transport: send to worker " +
                               std::to_string(worker) + " failed: " +
                               std::strerror(errno));
  }
  count_sent(worker, frame.size());
}

RecvStatus ProcTransport::recv(std::size_t worker, Message& out,
                               std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    Peer& p = peers_[worker];
    if (!p.rxq.empty()) {
      out = std::move(p.rxq.front());
      p.rxq.pop_front();
      count_received(worker, kFrameHeaderBytes + out.payload.size() +
                                 kFrameTrailerBytes);
      return RecvStatus::kOk;
    }
    if (!p.alive) return RecvStatus::kClosed;
    if (std::chrono::steady_clock::now() >= until) return RecvStatus::kTimeout;
    pump(clamp_poll_ms(until));
  }
}

std::optional<ProcTransport::AnyResult> ProcTransport::recv_any(
    const std::vector<char>& want, Message& out,
    std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    for (std::size_t w = 0; w < peers_.size(); ++w) {
      if (w >= want.size() || !want[w]) continue;
      Peer& p = peers_[w];
      if (!p.rxq.empty()) {
        out = std::move(p.rxq.front());
        p.rxq.pop_front();
        count_received(w, kFrameHeaderBytes + out.payload.size() +
                              kFrameTrailerBytes);
        return AnyResult{w, RecvStatus::kOk};
      }
    }
    for (std::size_t w = 0; w < peers_.size(); ++w) {
      if (w >= want.size() || !want[w]) continue;
      if (!peers_[w].alive) return AnyResult{w, RecvStatus::kClosed};
    }
    if (std::chrono::steady_clock::now() >= until) return std::nullopt;
    pump(clamp_poll_ms(until));
  }
}

void ProcTransport::kill(std::size_t worker) {
  terminate(worker, opts_.term_grace_ms);
}

void ProcTransport::terminate(std::size_t worker, long grace_ms) {
  Peer& p = peers_[worker];
  if (p.alive && p.pid > 0 && grace_ms > 0) {
    // Graceful path: ask first, and keep draining sockets while waiting so
    // the worker's final result and kBye are not lost with the connection.
    ::kill(p.pid, SIGTERM);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(grace_ms);
    while (std::chrono::steady_clock::now() < until) {
      reap(worker, false);
      if (p.reaped) break;
      pump(10);
    }
  }
  if (p.pid > 0 && !p.reaped) ::kill(p.pid, SIGKILL);
  // Drain any final bytes, then tear the connection down.
  if (p.fd >= 0) {
    drain_fd(p.fd, p.rxbuf);
    std::uint64_t rejects = 0;
    decode_buffered(p.rxbuf, p.rxq, &rejects);
    count_crc_rejects(worker, rejects);
  }
  mark_dead(worker);
  reap(worker, true);
}

void ProcTransport::set_fault_policy(const TransportFaultPolicy& fault) {
  opts_.fault = fault;
  fault_rng_ = Rng(fault.seed);
}

bool ProcTransport::exited_cleanly(std::size_t worker) const {
  const Peer& p = peers_[worker];
  return p.have_status && WIFEXITED(p.exit_status) &&
         WEXITSTATUS(p.exit_status) == 0;
}

bool ProcTransport::mangle_outbound(std::size_t worker,
                                    std::vector<std::uint8_t>& frame) {
  const TransportFaultPolicy& fault = opts_.fault;
  if (fault.delay_ms > 0) {
    // Outbound leg only: asymmetric delay for the clock-offset drills.
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
  }
  if (!fault.active()) return true;
  if (fault.drop_rate > 0.0 && fault_rng_.uniform() < fault.drop_rate) {
    ++stats_.frames_dropped;
    ++worker_stats_[worker].frames_dropped;
    return false;
  }
  if (fault.corrupt_rate > 0.0 && fault_rng_.uniform() < fault.corrupt_rate) {
    const std::size_t bit = static_cast<std::size_t>(
        fault_rng_.next_u64() % ((frame.size() - kFrameHeaderBytes) * 8));
    frame[kFrameHeaderBytes + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.frames_corrupted;
    ++worker_stats_[worker].frames_corrupted;
  }
  return true;
}

void ProcTransport::count_sent(std::size_t worker, std::size_t frame_bytes) {
  for (TransportStats* s : {&stats_, &worker_stats_[worker]}) {
    s->bytes_sent += frame_bytes;
    ++s->messages_sent;
  }
}

void ProcTransport::count_received(std::size_t worker,
                                   std::size_t frame_bytes) {
  for (TransportStats* s : {&stats_, &worker_stats_[worker]}) {
    s->bytes_received += frame_bytes;
    ++s->messages_received;
  }
}

void ProcTransport::count_crc_rejects(std::size_t worker, std::uint64_t n) {
  stats_.crc_rejects += n;
  worker_stats_[worker].crc_rejects += n;
}

void ProcTransport::respawn(std::size_t worker) {
  Peer& p = peers_[worker];
  if (p.alive) kill(worker);
  reap(worker, true);
  p.rxbuf.clear();
  p.rxq.clear();
  spawn(worker);
}

}  // namespace tme::par
