// Live run introspection: an on-demand JSON status snapshot.
//
// Long soak and chaos runs are opaque without a debugger; this reporter
// makes them inspectable from the outside.  Two triggers write a snapshot:
//  - SIGUSR1 (arm_signal() installs the handler; the handler only sets a
//    flag — the file is written from poll() on the main loop, never from
//    signal context);
//  - every N steps when set_every(N) / TME_STATUS_EVERY is configured.
//
// The snapshot is published through io::write_file_durable, the one staged
// and fsynced whole-file writer that checkpoints and traces use, so a reader
// never observes a torn file.  Its schema ("tme-status-v1") is a flat
// object: step, pid, wall-clock stamp, one section per registered provider
// — the fleet contributes per-worker health/offset/outstanding, the chaos
// runner its event and oracle counters — and a "metrics" section (counters,
// gauges, histogram percentiles from the global registry).  Providers run
// first, so registry gauges a provider refreshes land in the same snapshot.
//
// obs sits below util in the link order, so the two env knobs are parsed
// locally.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace tme::obs {

class StatusReporter {
 public:
  static StatusReporter& global();

  void set_path(std::string path);
  std::string path() const;
  // 0 disables step-periodic writes (signal-only).
  void set_every(std::uint64_t every);
  std::uint64_t every() const;

  // Registers a section writer: on each snapshot, `fill` receives a fresh
  // JSON object that becomes the top-level member `key`.  Returns a handle
  // for remove_provider (RAII at the call sites: fleets and runners remove
  // themselves on destruction).  Providers run on the polling thread.
  int add_provider(std::string key, std::function<void(JsonValue&)> fill);
  void remove_provider(int id);

  // Installs the SIGUSR1 handler (idempotent).  The handler sets a
  // sig_atomic_t flag; nothing is written until the next poll().
  void arm_signal();

  // Reads TME_STATUS_OUT (path) and TME_STATUS_EVERY (step period) and
  // arms the signal handler when a path is configured.
  void configure_from_env();

  // Main-loop hook: writes a snapshot when SIGUSR1 arrived since the last
  // poll or when `step` hits the configured period.  Returns true when a
  // snapshot was written.  No-op (false) without a configured path.
  bool poll(std::uint64_t step);

  // Unconditional snapshot write (still needs a path).  Returns false on
  // IO failure; never throws one, since a status write must not end a run.
  bool write_now(std::uint64_t step);

  // True when SIGUSR1 arrived and has not yet been consumed by poll().
  static bool signal_pending();

  void reset_for_testing();

 private:
  StatusReporter() = default;

  struct Provider {
    int id = 0;
    std::string key;
    std::function<void(JsonValue&)> fill;
  };

  mutable std::mutex mutex_;
  std::string path_;
  std::uint64_t every_ = 0;
  int next_id_ = 1;
  std::vector<Provider> providers_;
};

}  // namespace tme::obs
