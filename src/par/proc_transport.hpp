// Worker processes and their connections: the coordinator side of one
// Unix-domain socketpair per worker (ProcTransport) and the worker side
// (FdEndpoint).
//
// Workers are spawned either by fork() (the worker loop runs in the child —
// the default for tests, no binary needed) or by fork()+exec() of the
// standalone `tme_worker` binary with the socket on an inherited fd.  The
// coordinator multiplexes every connection through poll(), so deadlines are
// real wall-clock deadlines and a SIGKILLed worker surfaces as POLLHUP/EOF
// on its socket — crash *detection*, not simulation.
//
// Forked children never touch the thread pool (see par/node_kernels.hpp) and
// terminate with _exit() so they cannot run the parent's atexit handlers or
// leak-check machinery.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "par/transport.hpp"
#include "util/rng.hpp"

namespace tme::par {

// Worker side of one fd-backed connection: the forked child's end of its
// socketpair, or the tme_worker binary's inherited fd (exec mode).
class FdEndpoint {
 public:
  explicit FdEndpoint(int fd) : fd_(fd) {}
  ~FdEndpoint();
  FdEndpoint(const FdEndpoint&) = delete;
  FdEndpoint& operator=(const FdEndpoint&) = delete;

  RecvStatus recv(Message& out, std::chrono::milliseconds deadline);
  // Returns false when the peer is gone (no exception: a dying coordinator
  // just means the worker exits).
  bool send(const Message& m);
  // Real abrupt death for drills: SIGKILL to self.  The coordinator sees EOF.
  void crash();

 private:
  int fd_;
  std::vector<std::uint8_t> rxbuf_;
  std::uint64_t tx_seq_ = 0;
};

// Coordinator side: one worker process and connection per rank,
// deadline-driven receives.
class ProcTransport {
 public:
  struct Options {
    // Non-empty: fork+exec this binary with `--fd N`.  Empty: plain fork,
    // running `fork_child(fd)` in the child (which must not return).
    std::string worker_bin;
    std::function<void(int fd)> fork_child;
    TransportFaultPolicy fault;
    // >0: kill() sends SIGTERM first and gives the worker this long to
    // drain and exit on its own before escalating to SIGKILL.  0 keeps the
    // abrupt SIGKILL semantics the crash drills rely on.
    long term_grace_ms = 0;
    // Exec-mode workers get `--ctx <path>` so a SIGTERM drain can flush
    // their sealed context; empty omits the flag.
    std::string context_path;
  };

  ProcTransport(std::size_t workers, Options opts);
  ~ProcTransport();
  ProcTransport(const ProcTransport&) = delete;
  ProcTransport& operator=(const ProcTransport&) = delete;

  bool alive(std::size_t worker) const;
  // Throws PeerDead if the worker's connection is (or becomes) closed.
  void send(std::size_t worker, const Message& m);
  RecvStatus recv(std::size_t worker, Message& out,
                  std::chrono::milliseconds deadline);

  struct AnyResult {
    std::size_t worker = 0;
    RecvStatus status = RecvStatus::kOk;  // kOk (out valid) or kClosed
  };
  // Waits for a message from any worker with want[w] != 0.  Reports a closed
  // wanted connection (queue drained) as kClosed — the caller must clear
  // want[w] after handling it or the same report repeats.  nullopt on
  // deadline expiry.
  std::optional<AnyResult> recv_any(const std::vector<char>& want, Message& out,
                                    std::chrono::milliseconds deadline);

  // With term_grace_ms == 0: SIGKILL + reap, the real thing, usable as a
  // drill trigger from tests.  With a grace period: SIGTERM, wait for a
  // voluntary exit up to the deadline (draining sockets meanwhile, so the
  // final result and kBye still land), then SIGKILL whatever remains.
  // Queued inbound messages remain readable either way.
  void kill(std::size_t worker);
  // kill() with an explicit grace period, overriding Options::term_grace_ms
  // for this one call.
  void terminate(std::size_t worker, long grace_ms);
  // Replaces a dead worker with a fresh process on a fresh connection (the
  // new worker is blank: the caller must re-send Init).
  void respawn(std::size_t worker);

  // Swaps the coordinator->worker frame-mangling policy mid-run and reseeds
  // its RNG, so the chaos harness can open and close packet-fault windows at
  // scheduled steps and a replay mangles the same frames.
  void set_fault_policy(const TransportFaultPolicy& fault);

  pid_t pid(std::size_t worker) const;
  // True when the worker's most recently reaped process exited voluntarily
  // with status 0 ("asked to stop", after a SIGTERM drain) rather than
  // crashing (signal death or a nonzero exit).
  bool exited_cleanly(std::size_t worker) const;

  const TransportStats& stats() const { return stats_; }
  // The same counters split per worker connection, so the fleet can export
  // per-worker traffic/corruption gauges into the metrics registry.
  const TransportStats& worker_stats(std::size_t worker) const {
    return worker_stats_[worker];
  }

 private:
  struct Peer {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    bool reaped = true;
    bool have_status = false;
    int exit_status = 0;
    std::vector<std::uint8_t> rxbuf;
    std::deque<Message> rxq;
    std::uint64_t tx_seq = 0;
  };

  void spawn(std::size_t worker);
  void mark_dead(std::size_t worker);
  void reap(std::size_t worker, bool block);
  // Drains every readable socket into the per-peer queues; optionally waits
  // up to `timeout_ms` for readiness, watching `want_writable_fd` for
  // writability (sets *writable).
  void pump(int timeout_ms, int want_writable_fd = -1, bool* writable = nullptr);
  // The outbound fault policy on one encoded coordinator->worker frame, so a
  // replayed schedule mangles bit-identical frames: the drill delay, then a
  // seeded drop (returns false; the deadline layer retransmits) or one
  // flipped payload-or-CRC bit, which the receiver's CRC check rejects
  // without desynchronising.
  bool mangle_outbound(std::size_t worker, std::vector<std::uint8_t>& frame);
  // Book one sent or received frame, or `n` CRC rejects, on the aggregate
  // and on the worker's row.
  void count_sent(std::size_t worker, std::size_t frame_bytes);
  void count_received(std::size_t worker, std::size_t frame_bytes);
  void count_crc_rejects(std::size_t worker, std::uint64_t n);

  std::vector<Peer> peers_;
  Options opts_;
  Rng fault_rng_{2021};
  TransportStats stats_;
  std::vector<TransportStats> worker_stats_;
};

}  // namespace tme::par
