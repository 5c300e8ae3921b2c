#include "chaos/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "ewald/splitting.hpp"
#include "hw/fault.hpp"
#include "hw/sdc_guard.hpp"
#include "md/checkpoint.hpp"
#include "md/simulation.hpp"
#include "md/water_box.hpp"
#include "obs/status.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/fleet.hpp"
#include "par/par_tme.hpp"
#include "util/io_shim.hpp"

namespace tme::chaos {

namespace {

bool bitwise_equal(const CoulombResult& a, const CoulombResult& b) {
  if (a.energy != b.energy || a.forces.size() != b.forces.size()) return false;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    if (a.forces[i].x != b.forces[i].x || a.forces[i].y != b.forces[i].y ||
        a.forces[i].z != b.forces[i].z) {
      return false;
    }
  }
  return true;
}

bool bitwise_equal(const ParticleSystem& a, const ParticleSystem& b) {
  if (a.size() != b.size()) return false;
  if (a.box.lengths.x != b.box.lengths.x ||
      a.box.lengths.y != b.box.lengths.y ||
      a.box.lengths.z != b.box.lengths.z) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.positions[i].x != b.positions[i].x ||
        a.positions[i].y != b.positions[i].y ||
        a.positions[i].z != b.positions[i].z ||
        a.velocities[i].x != b.velocities[i].x ||
        a.velocities[i].y != b.velocities[i].y ||
        a.velocities[i].z != b.velocities[i].z ||
        a.forces[i].x != b.forces[i].x || a.forces[i].y != b.forces[i].y ||
        a.forces[i].z != b.forces[i].z || a.masses[i] != b.masses[i] ||
        a.charges[i] != b.charges[i]) {
      return false;
    }
  }
  return true;
}

bool bitwise_equal(const StepReport& a, const StepReport& b) {
  const EnergyReport& x = a.energies;
  const EnergyReport& y = b.energies;
  return a.kinetic == b.kinetic && x.coulomb_short == y.coulomb_short &&
         x.coulomb_long == y.coulomb_long &&
         x.coulomb_exclusion == y.coulomb_exclusion && x.lj == y.lj &&
         x.bonds == y.bonds && x.angles == y.angles &&
         x.dihedrals == y.dihedrals;
}

std::uint64_t io_faults_total(const io::IoStats& s) {
  return s.injected_enospc + s.injected_short_writes + s.injected_zero_writes +
         s.injected_eintr +
         s.injected_fsync_failures + s.injected_rename_failures +
         s.injected_open_failures + s.injected_alloc_failures;
}

// Disarms the process-global shim on every exit path of run().
struct ShimDisarm {
  ~ShimDisarm() { io::IoShim::instance().disarm(); }
};

// TME on a water box of edge `length` split at `r_cut`: the finest grid is
// a power of two >= 16 (which the 2x2x1 torus divides) with spacing
// <= 0.1 nm.
TmeParams water_tme_params(double length, double r_cut) {
  TmeParams tp;
  tp.alpha = alpha_from_tolerance(r_cut, 1e-4);
  std::size_t n = 16;
  while (0.1 * static_cast<double>(n) < length) n *= 2;
  tp.grid = {n, n, n};
  tp.levels = 1;
  tp.grid_cutoff = 4;
  tp.num_gaussians = 3;
  return tp;
}

}  // namespace

std::string failure_signature(const ChaosRunResult& result) {
  if (result.ok) return "ok";
  return result.failed_oracle + "@" + std::to_string(result.failed_step);
}

ChaosRunner::ChaosRunner(ChaosSpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

ChaosRunResult ChaosRunner::run() {
  using clock = std::chrono::steady_clock;
  ChaosRunResult result;
  io::IoShim& shim = io::IoShim::instance();
  shim.disarm();
  shim.reset_stats();
  ShimDisarm disarm_on_exit;

  const std::string ckpt_path = options_.workdir + "/chaos.ckpt";
  const std::string ctx_path = options_.workdir + "/chaos.ctx";
  // Stale generations from a previous run (the shrinker re-runs dozens in
  // the same workdir) must not leak into this run's fallback chain.
  std::remove((ckpt_path + ".tmp").c_str());
  std::remove(ckpt_path.c_str());
  for (int g = 1; g < spec_.checkpoint_keep; ++g) {
    std::remove((ckpt_path + "." + std::to_string(g)).c_str());
  }
  std::remove(ctx_path.c_str());

  // Chaos events land on their own coordinator track so the merged timeline
  // shows exactly when each fault fired relative to the fleet's spans.
  obs::TrackId chaos_track = 0;
  if (obs::tracing_active()) {
    chaos_track = obs::Tracer::global().track("chaos", "events");
  }

  const auto note = [&](std::uint64_t step, Surface surface,
                        const std::string& what) {
    result.log.push_back({step, to_string(surface), what});
    if (obs::tracing_active()) {
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.instant(chaos_track, to_string(surface), tracer.now_us(), what);
    }
    if (options_.verbose) {
      std::printf("  [chaos] step %llu %s: %s\n",
                  static_cast<unsigned long long>(step), to_string(surface),
                  what.c_str());
    }
  };
  const auto fail = [&](const char* oracle, std::uint64_t step,
                        const std::string& detail) {
    result.ok = false;
    result.failed_oracle = oracle;
    result.failed_step = step;
    result.failure_detail = detail;
    if (options_.verbose) {
      std::printf("  [chaos] ORACLE FAILED %s@%llu: %s\n", oracle,
                  static_cast<unsigned long long>(step), detail.c_str());
    }
  };

  // --- the physics: SETTLE TIP3P water at liquid density, run twice ---------
  WaterBoxSpec water_spec;
  water_spec.molecules = spec_.atoms / 3;
  water_spec.seed = spec_.seed;
  const WaterBox water = build_water_box(water_spec);
  const Box& box = water.system.box;
  ShortRangeParams sr;
  sr.cutoff = std::min(0.9, 0.45 * box.lengths.x);  // inside the minimum image
  const TmeParams tp = water_tme_params(box.lengths.x, sr.cutoff);
  sr.alpha = tp.alpha;
  const hw::TorusTopology topo(2, 2, 1);
  const std::size_t node_count = topo.node_count();

  // Chaos side: ParallelTme dispatched through a worker fleet.  Clean twin:
  // the same pipeline on its inline SerialExecutor, no faults armed, ever.
  auto chaos_solver = std::make_unique<par::ParallelTme>(box, tp, topo);
  par::ParallelTme& distributed = *chaos_solver;
  const ForceField ff(sr, std::move(chaos_solver));
  const ForceField twin_ff(sr,
                           std::make_unique<par::ParallelTme>(box, tp, topo));
  // VelocityVerlet keeps no per-run state, so both sides share one.
  const VelocityVerlet integrator(water.topology, water.system,
                                  IntegratorParams{});

  par::FleetConfig fc;
  fc.workers = spec_.workers;
  fc.timeout_ms = spec_.timeout_ms;
  fc.term_grace_ms = 1000;
  fc.worker_bin = options_.worker_bin;
  fc.context_path = ctx_path;
  // Runner-owned telemetry aggregator: it outlives the fleet restarts below,
  // so worker chunks from every fleet generation merge into one timeline.
  obs::FleetTelemetry fleet_telemetry;
  std::unique_ptr<par::WorkerFleet> fleet;
  bool packet_window_open = false;
  const auto start_fleet = [&] {
    fleet = std::make_unique<par::WorkerFleet>(distributed.context(),
                                               distributed.topology(), fc);
    fleet->set_telemetry_sink(&fleet_telemetry);
    distributed.set_executor(fleet.get());
  };
  // Fleet counters accumulate over every generation, folded in at retirement.
  const auto harvest = [&] {
    const par::FleetStats& fs = fleet->stats();
    const par::TransportStats& ts = fleet->transport_stats();
    result.worker_deaths += fs.worker_deaths;
    result.respawns += fs.respawns;
    result.retransmissions += fs.retransmissions;
    result.frames_dropped += ts.frames_dropped;
    result.frames_corrupted += ts.frames_corrupted;
  };
  // The one quiesce-and-rebuild path (SIGTERM drain, worker drills): the new
  // fleet starts from the current FleetConfig with a default transport.
  const auto restart_fleet = [&]() -> bool {
    const bool acked = fleet->quiesce();
    result.quiesces++;
    harvest();
    fleet.reset();
    start_fleet();
    packet_window_open = false;
    return acked;
  };
  start_fleet();

  // Both sides under the guardrail at its defaults, abort on any violation;
  // only the chaos side checkpoints.  Constructing each driver primes it.
  ParticleSystem sys = water.system;
  ParticleSystem ref = water.system;
  SimulationParams params;
  params.guardrail.policy = GuardrailPolicy::kAbort;
  Simulation twin(ref, water.topology, twin_ff, integrator, params);
  params.checkpoint_path = ckpt_path;
  params.checkpoint_interval = spec_.checkpoint_interval;
  params.checkpoint_keep = spec_.checkpoint_keep;
  Simulation sim(sys, water.topology, ff, integrator, params);
  const auto sync_checkpoint_stats = [&] {
    result.checkpoint_writes = sim.result().checkpoint_writes;
    result.checkpoint_write_failures = sim.result().checkpoint_write_failures;
  };
  std::vector<Checkpoint> snapshots;  // every write that reported success
  if (sim.result().checkpoint_writes > 0) snapshots.push_back({0, sys});
  sync_checkpoint_stats();

  // Live introspection: the fleet and the runner each contribute a section
  // to SIGUSR1 / periodic status snapshots while this run is live.  The
  // fleet's provider also refreshes its registry gauges; the reporter reads
  // the registry after its providers, so the same snapshot carries them.
  obs::StatusReporter& status = obs::StatusReporter::global();
  const int fleet_section =
      status.add_provider("fleet", [&fleet](obs::JsonValue& v) {
        fleet->publish_metrics();
        fleet->status_json(v);
      });
  const int chaos_section = status.add_provider(
      "chaos", [&result, &sim, &spec = spec_](obs::JsonValue& v) {
        v = obs::JsonValue::make_object();
        auto& o = v.as_object();
        const auto num = [](auto x) {
          return obs::JsonValue::make_number(static_cast<double>(x));
        };
        o["steps_total"] = num(spec.steps);
        o["steps_completed"] = num(sim.result().steps_completed);
        o["events_fired"] = num(result.log.size());
        o["checkpoint_writes"] = num(sim.result().checkpoint_writes);
        o["quiesces"] = num(result.quiesces);
        o["sdc_injected"] = num(result.sdc_injected);
        o["abft_violations"] = num(result.abft_violations);
        o["ok"] = obs::JsonValue::make_bool(result.ok);
        o["failed_oracle"] = obs::JsonValue::make_string(result.failed_oracle);
      });
  struct SectionGuard {
    obs::StatusReporter& reporter;
    int id;
    ~SectionGuard() { reporter.remove_provider(id); }
  };
  SectionGuard fleet_section_guard{status, fleet_section};
  SectionGuard chaos_section_guard{status, chaos_section};

  // ABFT baseline: the guarded hardware-functional pipeline with every check
  // disabled and no injector — SDC-burst steps must match it bitwise after
  // recovery (the fleet's library-path forces are a *different* datapath, so
  // they are not the comparison point).
  hw::GuardedTmeConfig clean_cfg;
  clean_cfg.checks_enabled = false;
  const hw::GuardedTmePipeline clean_guarded(box, tp, clean_cfg, nullptr);

  // Degraded-machine state: rebuilt whenever a node/link event lands (the
  // injector's config is fixed at construction).
  std::set<std::size_t> dead_nodes;
  double link_rate = 0.0;
  std::unique_ptr<hw::FaultInjector> machine;
  const auto rebuild_machine = [&]() -> bool {
    hw::FaultConfig mc;
    mc.seed = spec_.seed ^ 0x5eedull;
    mc.link_error_rate = link_rate;
    auto next = std::make_unique<hw::FaultInjector>(mc);
    for (const std::size_t n : dead_nodes) next->kill_node(n);
    try {
      distributed.set_fault_injector(next.get());
    } catch (const std::exception& e) {
      fail("machine-partition", result.steps_completed, e.what());
      return false;
    }
    machine = std::move(next);
    return true;
  };

  std::uint64_t alloc_refusals_armed = 0;
  std::optional<double> reference_energy;  // drift reference, as the guardrail

  const auto stats_total = [&]() { return io_faults_total(shim.stats()); };

  for (std::uint64_t s = 0; s < spec_.steps; ++s) {
    // ---- schedule: one-shot events firing before this step ----------------
    bool sabotage = false;
    long sabotage_at = 0;
    double sdc_rate = 0.0;
    for (const ChaosEvent& e : spec_.events) {
      if (e.step != s || e.until_step > e.step) continue;
      switch (e.surface) {
        case Surface::kNode: {
          const std::size_t node =
              static_cast<std::size_t>(e.a < 0 ? 0 : e.a) % node_count;
          dead_nodes.insert(node);
          note(s, e.surface, "kill node " + std::to_string(node));
          if (!rebuild_machine()) return result;
          break;
        }
        case Surface::kLink: {
          link_rate = e.rate;
          note(s, e.surface,
               "link error rate -> " + std::to_string(link_rate));
          if (!rebuild_machine()) return result;
          break;
        }
        case Surface::kSdc:
          sdc_rate = e.rate;
          break;
        case Surface::kWorker: {
          const std::size_t rank =
              static_cast<std::size_t>(e.a < 0 ? 0 : e.a) % spec_.workers;
          if (e.detail == "term") {
            fleet->term_worker(rank, e.b > 0 ? e.b : 500);
            note(s, e.surface,
                 "SIGTERM worker " + std::to_string(rank) +
                     (fleet->worker_exited_cleanly(rank) ? " (exited 0)"
                                                         : " (escalated)"));
          } else if (e.detail == "crash" || e.detail == "hang" ||
                     e.detail == "delay") {
            // Misbehaviour drill: the rank's policy holds for every later
            // incarnation of that worker.
            if (fc.worker_faults.size() <= rank) {
              fc.worker_faults.resize(rank + 1);
            }
            par::WorkerFaultPolicy& policy = fc.worker_faults[rank];
            const long b = e.b < 0 ? 0 : e.b;
            if (e.detail == "crash") {
              policy.crash_after_tasks = b;
            } else if (e.detail == "hang") {
              policy.hang_after_tasks = b;
            } else {
              policy.delay_ms = b;
            }
            restart_fleet();
            note(s, e.surface,
                 "worker " + std::to_string(rank) + " drill armed: " +
                     e.detail + " " + std::to_string(b) +
                     (e.detail == "delay" ? " ms per task" : " tasks") +
                     ", fleet restarted");
          } else {
            fleet->kill_worker(rank);
            note(s, e.surface, "SIGKILL worker " + std::to_string(rank));
          }
          break;
        }
        case Surface::kBitrot: {
          std::fstream f(ckpt_path,
                         std::ios::in | std::ios::out | std::ios::binary);
          if (!f) {
            note(s, e.surface, "no checkpoint on disk yet, skipped");
            break;
          }
          f.seekg(0, std::ios::end);
          const auto size = static_cast<long>(f.tellg());
          if (size <= 0) break;
          const long at = (e.a < 0 ? 0 : e.a) % size;
          f.seekg(at);
          char byte = 0;
          f.read(&byte, 1);
          byte = static_cast<char>(byte ^ 0x40);
          f.seekp(at);
          f.write(&byte, 1);
          note(s, e.surface,
               "flipped bit 6 of byte " + std::to_string(at) + " in " +
                   ckpt_path);
          break;
        }
        case Surface::kIo:
          break;  // handled as a window below
        case Surface::kAlloc:
          alloc_refusals_armed += static_cast<std::uint64_t>(e.a < 1 ? 1 : e.a);
          note(s, e.surface,
               "armed " + std::to_string(e.a < 1 ? 1 : e.a) +
                   " allocation refusals");
          break;
        case Surface::kSigterm: {
          // Graceful drain: checkpoint the current state, quiesce the fleet
          // (which re-seals the worker context), rebuild it, then resume
          // through the driver's restore path and prove it bitwise.
          const ParticleSystem drained_state = sys;
          const bool drained = sim.checkpoint();
          sync_checkpoint_stats();
          if (drained) {
            snapshots.push_back({s, sys});
          } else {
            note(s, e.surface,
                 "drain checkpoint refused, resume check skipped");
          }
          note(s, e.surface,
               restart_fleet() ? "fleet quiesced, all workers acked"
                               : "fleet quiesced with unacked workers");
          if (drained) {
            try {
              if (sim.restore() != s || !bitwise_equal(sys, drained_state)) {
                fail("sigterm-resume", s,
                     "drain checkpoint did not restore bitwise-identically");
                return result;
              }
              note(s, e.surface, "resumed bitwise-identically from drain");
            } catch (const CheckpointError& ce) {
              fail("sigterm-resume", s,
                   std::string("drain checkpoint unreadable: ") + ce.what());
              return result;
            }
          }
          break;
        }
        case Surface::kSabotage:
          sabotage = true;
          sabotage_at = e.a < 0 ? 0 : e.a;
          break;
        case Surface::kPacket:
          break;  // windows handled below
      }
    }

    // ---- windows: transport packet faults and the IO shim -----------------
    const ChaosEvent* packet = nullptr;
    const ChaosEvent* io_event = nullptr;
    for (const ChaosEvent& e : spec_.events) {
      const std::uint64_t until =
          e.until_step > e.step ? e.until_step : e.step + 1;
      if (s < e.step || s >= until) continue;
      if (e.surface == Surface::kPacket) packet = &e;
      if (e.surface == Surface::kIo) io_event = &e;
    }
    if (packet != nullptr && !packet_window_open) {
      par::TransportFaultPolicy policy;
      policy.seed = spec_.seed ^ (0xAB00ull + packet->step);
      policy.drop_rate = packet->rate;
      policy.corrupt_rate = packet->rate2;
      fleet->set_net_fault(policy);
      packet_window_open = true;
      note(s, Surface::kPacket,
           "window open: drop " + std::to_string(policy.drop_rate) +
               ", corrupt " + std::to_string(policy.corrupt_rate));
    } else if (packet == nullptr && packet_window_open) {
      fleet->set_net_fault(par::TransportFaultPolicy{});
      packet_window_open = false;
      note(s, Surface::kPacket, "window closed");
    }

    const std::uint64_t alloc_left =
        alloc_refusals_armed > shim.stats().injected_alloc_failures
            ? alloc_refusals_armed - shim.stats().injected_alloc_failures
            : 0;
    io::IoFaultPlan plan;
    plan.path_substring = "chaos.ckpt";
    if (io_event != nullptr) {
      if (io_event->detail == "enospc") {
        plan.enospc_after_bytes = io_event->a >= 0 ? io_event->a : 128;
      } else if (io_event->detail == "short") {
        plan.short_writes = true;
      } else if (io_event->detail == "eintr") {
        plan.eintr_every = 2;  // 1 would starve the retry loops forever
      } else if (io_event->detail == "open") {
        plan.fail_open = true;
      } else {
        plan.fail_fsync = true;
      }
      note(s, Surface::kIo, "shim armed: " + io_event->detail);
    }
    plan.fail_allocs = static_cast<long>(alloc_left);
    if (plan.any()) {
      shim.arm(plan);
    } else {
      shim.disarm();
    }

    // ---- the step: the chaos side under the deadline, then the clean twin --
    const std::uint64_t writes_before = sim.result().checkpoint_writes;
    const std::uint64_t refusals_before =
        sim.result().checkpoint_write_failures;
    const auto t0 = clock::now();
    try {
      sim.advance();
    } catch (const std::exception& e) {
      fail("recovery", s, e.what());
      return result;
    }
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() - t0)
            .count();
    twin.advance();
    sync_checkpoint_stats();
    if (elapsed_ms > spec_.step_deadline_ms) {
      fail("recovery-deadline", s,
           "step took " + std::to_string(elapsed_ms) + " ms (deadline " +
               std::to_string(spec_.step_deadline_ms) + " ms)");
      return result;
    }

    // Oracle: guardrail cleanliness (NaN / blow-up / NVE drift in the run).
    if (sim.result().aborted) {
      fail("guardrail", s, sim.guardrail().violations().back().what);
      return result;
    }

    if (sabotage) {
      const std::size_t i = static_cast<std::size_t>(sabotage_at) % sys.size();
      sys.forces[i].x += 1.0;
      note(s, Surface::kSabotage,
           "corrupted force[" + std::to_string(i) + "].x past every defense");
    }

    // Oracle: the whole post-step state and the step energies match the
    // clean twin bitwise.
    if (!bitwise_equal(sys, ref) ||
        !bitwise_equal(sim.result().last_report, twin.result().last_report)) {
      fail("force-parity", s, "post-step state diverged from the clean twin");
      return result;
    }

    // Oracle: SDC burst through the guarded pipeline recovers bitwise.
    if (sdc_rate > 0.0) {
      hw::FaultConfig sc;
      sc.seed = spec_.seed ^ (0x5dc0ull + s);
      sc.sdc_rate = sdc_rate;
      hw::FaultInjector sdc_inj(sc);
      hw::GuardedTmeConfig gcfg;  // checks enabled
      const hw::GuardedTmePipeline guarded(box, tp, gcfg, &sdc_inj);
      hw::GuardedTmeReport report;
      const CoulombResult shielded =
          guarded.compute(sys.positions, sys.charges, &report);
      const CoulombResult baseline =
          clean_guarded.compute(sys.positions, sys.charges, nullptr);
      result.sdc_injected += sdc_inj.injected_sdc();
      result.abft_violations += report.violations;
      note(s, Surface::kSdc,
           "burst at rate " + std::to_string(sdc_rate) + ": " +
               std::to_string(sdc_inj.injected_sdc()) + " flips, " +
               std::to_string(report.violations) + " caught, " +
               std::to_string(report.stage_recomputes) + " recomputes");
      if (!report.recovered || !bitwise_equal(shielded, baseline)) {
        fail("abft-recovery", s,
             report.recovered
                 ? "guarded forces differ from the checks-off baseline"
                 : "a stage stayed bad after its recompute budget");
        return result;
      }
    }

    // Rotating durable checkpoint (written by the driver); typed IO refusals
    // are survival, not death.
    if (sim.result().checkpoint_writes > writes_before) {
      snapshots.push_back({s + 1, sys});
    }
    if (sim.result().checkpoint_write_failures > refusals_before) {
      note(s, Surface::kIo,
           "checkpoint write refused, typed (older generations intact)");
    }
    const double energy = sim.result().last_report.total();
    if (!reference_energy) reference_energy = energy;
    result.max_energy_drift = std::max(
        result.max_energy_drift,
        std::abs(energy - *reference_energy) /
            std::max(std::abs(*reference_energy),
                     params.guardrail.energy_floor));
    result.steps_completed = s + 1;
  }

  // ---- end of run: the checkpoint-resume oracle ---------------------------
  shim.disarm();
  if (alloc_refusals_armed > shim.stats().injected_alloc_failures) {
    io::IoFaultPlan plan;  // leftover alloc refusals hit the restore below
    plan.fail_allocs = static_cast<long>(alloc_refusals_armed -
                                         shim.stats().injected_alloc_failures);
    shim.arm(plan);
  }
  if (!snapshots.empty()) {
    std::string used;
    try {
      const Checkpoint last =
          read_latest_checkpoint(ckpt_path, spec_.checkpoint_keep, &used);
      if (used != ckpt_path) {
        // path.N: N newer generations were skipped as damaged/refused.
        const std::string suffix = used.substr(ckpt_path.size() + 1);
        result.checkpoint_fallbacks =
            static_cast<std::uint64_t>(std::stoul(suffix));
        note(spec_.steps, Surface::kBitrot,
             "restore fell back " + std::to_string(result.checkpoint_fallbacks) +
                 " generation(s) to " + used);
      }
      const Checkpoint* match = nullptr;
      for (const Checkpoint& snap : snapshots) {
        if (snap.step == last.step) match = &snap;
      }
      if (match == nullptr) {
        fail("checkpoint-resume", spec_.steps,
             "restored step " + std::to_string(last.step) +
                 " was never successfully written");
      } else if (!bitwise_equal(match->system, last.system)) {
        fail("checkpoint-resume", spec_.steps,
             "restored state differs bitwise from the in-memory snapshot");
      }
    } catch (const CheckpointError& ce) {
      fail("checkpoint-resume", spec_.steps,
           std::string("no generation restorable: ") + ce.what());
    }
    if (!result.ok) return result;
  }
  shim.disarm();

  // ---- harvest ------------------------------------------------------------
  harvest();
  result.io_faults_injected = stats_total();
  fleet->quiesce();  // final worker chunks arrive in the shutdown drain
  result.quiesces++;
  fleet->publish_metrics();
  if (!options_.trace_out.empty()) {
    if (fleet->write_fleet_trace(options_.trace_out)) {
      if (options_.verbose) {
        std::printf("  [chaos] merged fleet trace -> %s\n",
                    options_.trace_out.c_str());
      }
    } else {
      std::fprintf(stderr, "[chaos] failed to write fleet trace %s\n",
                   options_.trace_out.c_str());
    }
  }
  std::remove(ctx_path.c_str());
  return result;
}

// --- replay file -------------------------------------------------------------

void write_replay_file(const std::string& path, const ChaosSpec& spec,
                       const ChaosRunResult& result) {
  obs::JsonValue root = obs::JsonValue::make_object();
  auto& obj = root.as_object();
  obj["spec"] = spec_to_json(spec);
  obs::JsonValue res = obs::JsonValue::make_object();
  auto& ro = res.as_object();
  ro["ok"] = obs::JsonValue::make_number(result.ok ? 1 : 0);
  ro["signature"] = obs::JsonValue::make_string(failure_signature(result));
  ro["failed_oracle"] = obs::JsonValue::make_string(result.failed_oracle);
  ro["failed_step"] =
      obs::JsonValue::make_number(static_cast<double>(result.failed_step));
  ro["failure_detail"] = obs::JsonValue::make_string(result.failure_detail);
  ro["steps_completed"] =
      obs::JsonValue::make_number(static_cast<double>(result.steps_completed));
  obs::JsonValue log = obs::JsonValue::make_array();
  for (const RealizedEvent& e : result.log) {
    obs::JsonValue ev = obs::JsonValue::make_object();
    auto& eo = ev.as_object();
    eo["step"] = obs::JsonValue::make_number(static_cast<double>(e.step));
    eo["surface"] = obs::JsonValue::make_string(e.surface);
    eo["what"] = obs::JsonValue::make_string(e.what);
    log.as_array().push_back(std::move(ev));
  }
  ro["events"] = std::move(log);
  obs::JsonValue stats = obs::JsonValue::make_object();
  auto& so = stats.as_object();
  const auto put = [&](const char* key, std::uint64_t v) {
    so[key] = obs::JsonValue::make_number(static_cast<double>(v));
  };
  put("checkpoint_writes", result.checkpoint_writes);
  put("checkpoint_write_failures", result.checkpoint_write_failures);
  put("checkpoint_fallbacks", result.checkpoint_fallbacks);
  put("worker_deaths", result.worker_deaths);
  put("respawns", result.respawns);
  put("retransmissions", result.retransmissions);
  put("frames_dropped", result.frames_dropped);
  put("frames_corrupted", result.frames_corrupted);
  put("sdc_injected", result.sdc_injected);
  put("abft_violations", result.abft_violations);
  put("io_faults_injected", result.io_faults_injected);
  put("quiesces", result.quiesces);
  so["max_energy_drift"] = obs::JsonValue::make_number(result.max_energy_drift);
  ro["stats"] = std::move(stats);
  obj["result"] = std::move(res);

  io::write_file_durable(path, root.dump() + "\n");
}

ChaosSpec read_replay_spec(const std::string& path) {
  const std::vector<std::uint8_t> text = io::read_file(path);
  const obs::JsonValue root =
      obs::json_parse(std::string(text.begin(), text.end()));
  // Accept both a full replay file and a bare spec.
  if (root.contains("spec")) return spec_from_json(root.at("spec"));
  return spec_from_json(root);
}

}  // namespace tme::chaos
