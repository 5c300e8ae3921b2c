// ChaosSchedule: a seeded, declarative fault timeline for the whole stack.
//
// PRs 3/4/8 each grew a fault surface with its own hand-written drill: dead
// nodes and links (hw/fault + par/recovery), SDC bursts with ABFT recovery
// (hw/sdc_guard), transport packet loss and worker kill/hang/delay
// (par/fleet), checkpoint rotation (md/checkpoint), and now the IO shim's
// resource exhaustion (util/io_shim).  A ChaosSpec composes any number of
// them into one timeline: a list of ChaosEvents, each firing at a step (or
// holding over a [step, until_step) window), driven by one seed so the whole
// adversarial run — which frames drop, which bits flip, which draw kills
// which worker — is exactly reproducible.  Specs round-trip through JSON
// (the replay-file format examples/chaos_drill consumes) and can be
// assembled from TME_CHAOS_* environment knobs for CI one-liners.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tme::chaos {

// Every independently injectable fault surface the repo owns.  kSabotage is
// the deliberately *undetectable* fault — a force corruption injected past
// every defense layer — used to prove the harness's oracles and the shrinker
// actually catch a lethal schedule.
enum class Surface {
  kNode = 0,   // structural: kill torus node `a` (traffic re-homed, physics intact)
  kLink,       // stochastic: per-transfer corruption at `rate` on the sim machine
  kSdc,        // compute bit flips at `rate` through the ABFT-guarded pipeline
  kPacket,     // transport frames dropped (`rate`) / corrupted (`rate2`) in a window
  kWorker,     // process drill on rank `a`: detail selects it (see ChaosEvent)
  kBitrot,     // flip byte `a` of the newest on-disk checkpoint generation
  kIo,         // arm the IO shim on the checkpoint path: detail selects the fault
  kAlloc,      // refuse the next `a` guarded restore allocations
  kSigterm,    // graceful drain: checkpoint, quiesce the fleet, restart, resume
  kSabotage,   // lethal: corrupt one force component after every defense ran
};

const char* to_string(Surface surface);
bool surface_from_string(const std::string& name, Surface* out);

struct ChaosEvent {
  std::uint64_t step = 0;        // fires before this step's force evaluation
  Surface surface = Surface::kPacket;
  double rate = 0.0;             // primary probability / error rate
  double rate2 = 0.0;            // kPacket: corrupt rate alongside drop `rate`
  long a = -1;                   // surface-specific id: node, rank, byte, count
  long b = -1;                   // secondary knob (e.g. term grace ms)
  std::uint64_t until_step = 0;  // >step: window [step, until_step); else one-shot
  // kIo: "enospc" | "short" | "eintr" | "fsync" | "open".
  // kWorker: "kill" (SIGKILL now) | "term" (SIGTERM, `b` = grace ms) |
  // "crash" / "hang" after `b` tasks | "delay" every result by `b` ms — the
  // last three set the rank's fault policy for every later incarnation.
  // Free-form note elsewhere.
  std::string detail;
};

// Bounds every spec source enforces.  Fewer than eight water molecules put
// periodic images inside the LJ core and the run blows up by construction.
constexpr std::size_t kMinAtoms = 24;
constexpr std::size_t kMaxAtoms = 1000000;
constexpr std::size_t kMaxWorkers = 64;

struct ChaosSpec {
  std::uint64_t seed = 2021;
  std::uint64_t steps = 8;
  std::size_t atoms = 96;                // water atoms: atoms / 3 molecules
  std::size_t workers = 2;
  std::uint64_t checkpoint_interval = 2; // steps between rotating writes
  int checkpoint_keep = 3;               // generations retained
  long timeout_ms = 4000;                // per-worker transport deadline
  long step_deadline_ms = 120000;        // recovery-within-deadline oracle
  std::vector<ChaosEvent> events;
};

// JSON round-trip.  spec_from_json / parse_spec throw std::runtime_error,
// naming the field, on malformed input: an unknown surface, a
// non-integral or out-of-range count (atoms in [kMinAtoms, kMaxAtoms],
// workers in [1, kMaxWorkers], steps >= 1, checkpoint_keep >= 1), a rate
// outside [0, 1], or a top-level or event key the spec does not know (so a
// misspelled field never silently runs its default).  Missing fields fall
// back to the defaults above, so hand-written repro specs stay short; the
// retired top-level "backend" key is accepted and ignored, so older replay
// files still parse.
obs::JsonValue spec_to_json(const ChaosSpec& spec);
ChaosSpec spec_from_json(const obs::JsonValue& json);
std::string dump_spec(const ChaosSpec& spec);
ChaosSpec parse_spec(const std::string& text);

// Reads and parses a JSON spec file; throws io::IoError when the file
// cannot be read and std::runtime_error on a malformed spec.
ChaosSpec read_spec_file(const std::string& path);

// Builds a spec from the environment on top of `base`:
//   TME_CHAOS_SEED / TME_CHAOS_STEPS / TME_CHAOS_ATOMS / TME_CHAOS_WORKERS
//   TME_CHAOS_SURFACES=a,b,...  overwrite the event list with a seeded
//                               random schedule over the named surfaces
ChaosSpec spec_from_env(ChaosSpec base = {});

// Seeded random timeline composing the named surfaces over `steps`: each
// surface contributes 1-2 events at deterministically drawn steps with
// rates low enough that every defense layer is exercised but expected to
// hold (kSabotage, if listed, is still lethal by design).
ChaosSpec random_spec(std::uint64_t seed, std::uint64_t steps,
                      const std::vector<Surface>& surfaces);

}  // namespace tme::chaos
