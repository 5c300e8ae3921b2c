#include "par/transport.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tme::par {

// --- Frame codec -------------------------------------------------------------

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

// --- shared backend bookkeeping ----------------------------------------------

bool Transport::mangle_outbound(std::size_t worker,
                                const TransportFaultPolicy& fault, Rng& rng,
                                std::vector<std::uint8_t>& frame) {
  if (fault.delay_ms > 0) {
    // Outbound leg only: asymmetric delay for the clock-offset drills.
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
  }
  if (!fault.active()) return true;
  if (fault.drop_rate > 0.0 && rng.uniform() < fault.drop_rate) {
    ++stats_.frames_dropped;
    ++per_worker(worker).frames_dropped;
    return false;
  }
  if (fault.corrupt_rate > 0.0 && rng.uniform() < fault.corrupt_rate) {
    const std::size_t bit = static_cast<std::size_t>(
        rng.next_u64() % ((frame.size() - kFrameHeaderBytes) * 8));
    frame[kFrameHeaderBytes + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.frames_corrupted;
    ++per_worker(worker).frames_corrupted;
  }
  return true;
}

void Transport::count_sent(std::size_t worker, std::size_t frame_bytes) {
  for (TransportStats* s : {&stats_, &per_worker(worker)}) {
    s->bytes_sent += frame_bytes;
    ++s->messages_sent;
  }
}

void Transport::count_received(std::size_t worker, std::size_t frame_bytes) {
  for (TransportStats* s : {&stats_, &per_worker(worker)}) {
    s->bytes_received += frame_bytes;
    ++s->messages_received;
  }
}

void Transport::count_crc_rejects(std::size_t worker, std::uint64_t n) {
  stats_.crc_rejects += n;
  per_worker(worker).crc_rejects += n;
}

// --- InProcTransport ---------------------------------------------------------

namespace {

// One coordinator->worker byte-queue channel.
struct Chan {
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::vector<std::uint8_t>> q;
  bool closed = false;

  void push(std::vector<std::uint8_t> frame) {
    {
      std::lock_guard<std::mutex> lock(m);
      if (closed) return;
      q.push_back(std::move(frame));
    }
    cv.notify_all();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(m);
      closed = true;
    }
    cv.notify_all();
  }
};

}  // namespace

// All worker->coordinator queues share one lock and condition variable so the
// coordinator's recv_any can wait on every connection at once.
struct InProcTransport::State {
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::deque<std::vector<std::uint8_t>>> inbox;  // frames per worker
  std::vector<char> closed;
  std::vector<std::shared_ptr<Chan>> to_worker;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> tx_seq;  // coordinator->worker seq counters
  Rng fault_rng{2021};
};

namespace {

class InProcEndpoint : public Endpoint {
 public:
  InProcEndpoint(std::shared_ptr<InProcTransport::State> state,
                 std::shared_ptr<Chan> rx, std::size_t worker)
      : state_(std::move(state)), rx_(std::move(rx)), worker_(worker) {}

  RecvStatus recv(Message& out, std::chrono::milliseconds deadline) override {
    const auto until = std::chrono::steady_clock::now() + deadline;
    for (;;) {
      std::vector<std::uint8_t> frame;
      {
        std::unique_lock<std::mutex> lock(rx_->m);
        if (!rx_->cv.wait_until(lock, until, [&] {
              return !rx_->q.empty() || rx_->closed;
            })) {
          return RecvStatus::kTimeout;
        }
        if (rx_->q.empty()) return RecvStatus::kClosed;
        frame = std::move(rx_->q.front());
        rx_->q.pop_front();
      }
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_frame(frame.data(), frame.size(), out, consumed);
      if (st == DecodeStatus::kOk) return RecvStatus::kOk;
      // A corrupted frame is dropped whole; the sender's deadline machinery
      // retransmits.  Keep waiting for the remaining budget.
    }
  }

  bool send(const Message& m) override {
    std::vector<std::uint8_t> frame = encode_frame(m, tx_seq_++);
    {
      std::lock_guard<std::mutex> lock(state_->m);
      if (state_->closed[worker_]) return false;
      state_->inbox[worker_].push_back(std::move(frame));
    }
    state_->cv.notify_all();
    return true;
  }

  void crash() override {
    rx_->close();
    {
      std::lock_guard<std::mutex> lock(state_->m);
      state_->closed[worker_] = 1;
    }
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<InProcTransport::State> state_;
  std::shared_ptr<Chan> rx_;
  std::size_t worker_;
  std::uint64_t tx_seq_ = 0;
};

}  // namespace

InProcTransport::InProcTransport(std::size_t workers, WorkerMain worker_main,
                                 TransportFaultPolicy fault)
    : state_(std::make_shared<State>()),
      worker_main_(std::move(worker_main)),
      fault_(fault) {
  if (workers == 0) {
    throw std::invalid_argument("InProcTransport: need at least one worker");
  }
  state_->inbox.resize(workers);
  state_->closed.assign(workers, 0);
  state_->to_worker.resize(workers);
  state_->threads.resize(workers);
  state_->tx_seq.assign(workers, 0);
  state_->fault_rng = Rng(fault.seed);
  worker_stats_.assign(workers, TransportStats{});
  for (std::size_t w = 0; w < workers; ++w) spawn(w);
}

void InProcTransport::spawn(std::size_t worker) {
  auto chan = std::make_shared<Chan>();
  state_->to_worker[worker] = chan;
  auto state = state_;
  auto main = worker_main_;
  state_->threads[worker] = std::thread([state, chan, worker, main] {
    InProcEndpoint ep(state, chan, worker);
    main(ep);
    // Worker returned (clean shutdown or crash drill): the connection closes,
    // exactly like a process exiting closes its socket.
    ep.crash();
  });
}

InProcTransport::~InProcTransport() {
  for (std::size_t w = 0; w < state_->to_worker.size(); ++w) {
    if (state_->to_worker[w]) state_->to_worker[w]->close();
  }
  {
    std::lock_guard<std::mutex> lock(state_->m);
    for (auto& c : state_->closed) c = 1;
  }
  state_->cv.notify_all();
  for (auto& t : state_->threads) {
    if (t.joinable()) t.join();
  }
}

std::size_t InProcTransport::worker_count() const {
  return state_->to_worker.size();
}

bool InProcTransport::alive(std::size_t worker) const {
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->closed[worker] == 0;
}

void InProcTransport::send(std::size_t worker, const Message& m) {
  {
    std::lock_guard<std::mutex> lock(state_->m);
    if (state_->closed[worker]) {
      throw PeerDead(worker, "inproc transport: worker " +
                                 std::to_string(worker) + " is gone");
    }
  }
  std::vector<std::uint8_t> frame =
      encode_frame(m, state_->tx_seq[worker]++);
  if (!mangle_outbound(worker, fault_, state_->fault_rng, frame)) return;
  count_sent(worker, frame.size());
  state_->to_worker[worker]->push(std::move(frame));
}

RecvStatus InProcTransport::recv(std::size_t worker, Message& out,
                                 std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    std::vector<std::uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(state_->m);
      if (!state_->cv.wait_until(lock, until, [&] {
            return !state_->inbox[worker].empty() || state_->closed[worker];
          })) {
        return RecvStatus::kTimeout;
      }
      if (state_->inbox[worker].empty()) return RecvStatus::kClosed;
      frame = std::move(state_->inbox[worker].front());
      state_->inbox[worker].pop_front();
    }
    std::size_t consumed = 0;
    if (decode_frame(frame.data(), frame.size(), out, consumed) ==
        DecodeStatus::kOk) {
      count_received(worker, frame.size());
      return RecvStatus::kOk;
    }
    count_crc_rejects(worker, 1);
  }
}

std::optional<Transport::AnyResult> InProcTransport::recv_any(
    const std::vector<char>& want, Message& out,
    std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    std::size_t ready = want.size();
    std::size_t dead = want.size();
    std::vector<std::uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(state_->m);
      const auto scan = [&] {
        ready = dead = want.size();
        for (std::size_t w = 0; w < want.size(); ++w) {
          if (!want[w]) continue;
          if (!state_->inbox[w].empty()) {
            ready = w;
            return true;
          }
          if (state_->closed[w] && dead == want.size()) dead = w;
        }
        return dead != want.size();
      };
      if (!state_->cv.wait_until(lock, until, scan)) return std::nullopt;
      if (ready == want.size()) {
        return AnyResult{dead, RecvStatus::kClosed};
      }
      frame = std::move(state_->inbox[ready].front());
      state_->inbox[ready].pop_front();
    }
    std::size_t consumed = 0;
    if (decode_frame(frame.data(), frame.size(), out, consumed) ==
        DecodeStatus::kOk) {
      count_received(ready, frame.size());
      return AnyResult{ready, RecvStatus::kOk};
    }
    count_crc_rejects(ready, 1);
  }
}

void InProcTransport::set_fault_policy(const TransportFaultPolicy& fault) {
  // Coordinator-thread only, like send(): fault_ and the shared rng are
  // never touched by worker threads.  Reseeding makes a replayed schedule
  // mangle bit-identical frames.
  fault_ = fault;
  state_->fault_rng = Rng(fault.seed);
}

void InProcTransport::kill(std::size_t worker) {
  state_->to_worker[worker]->close();
  {
    std::lock_guard<std::mutex> lock(state_->m);
    state_->closed[worker] = 1;
  }
  state_->cv.notify_all();
}

void InProcTransport::respawn(std::size_t worker) {
  kill(worker);
  if (state_->threads[worker].joinable()) state_->threads[worker].join();
  {
    std::lock_guard<std::mutex> lock(state_->m);
    state_->closed[worker] = 0;
    state_->inbox[worker].clear();
    state_->tx_seq[worker] = 0;
  }
  spawn(worker);
}

}  // namespace tme::par
