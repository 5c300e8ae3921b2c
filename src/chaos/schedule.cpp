#include "chaos/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/env.hpp"
#include "util/io_shim.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace tme::chaos {

namespace {

constexpr const char* kSurfaceNames[] = {
    "node", "link", "sdc", "packet", "worker",
    "bitrot", "io", "alloc", "sigterm", "sabotage",
};
constexpr std::size_t kSurfaceCount =
    sizeof(kSurfaceNames) / sizeof(kSurfaceNames[0]);

// The one guard in front of every JSON double -> integer conversion (which
// is undefined out of range): the value must be an integer in [lo, hi].
// NaN, fractions and out-of-range values throw, naming the field.
double integer_or(const obs::JsonValue& obj, const char* key, double fallback,
                  double lo, double hi) {
  if (!obj.contains(key)) return fallback;
  const double v = obj.at(key).as_number();
  if (!(v >= lo && v <= hi && v == std::trunc(v))) {
    std::ostringstream msg;
    msg << "chaos spec: '" << key << "' = " << v << " is not an integer in ["
        << lo << ", " << hi << "]";
    throw std::runtime_error(msg.str());
  }
  return v;
}

double rate_or(const obs::JsonValue& obj, const char* key) {
  if (!obj.contains(key)) return 0.0;
  const double v = obj.at(key).as_number();
  if (!(v >= 0.0 && v <= 1.0)) {
    std::ostringstream msg;
    msg << "chaos spec: '" << key << "' = " << v << " is not a rate in [0, 1]";
    throw std::runtime_error(msg.str());
  }
  return v;
}

// Refuses a key outside `known`, so a misspelled field cannot silently
// fall back to its default.
void require_known_keys(const obs::JsonValue& obj,
                        std::initializer_list<std::string_view> known,
                        const char* where) {
  for (const auto& [key, value] : obj.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::runtime_error(std::string("chaos spec: unknown ") + where + " key '" +
                               key + "'");
    }
  }
}

std::string str_or(const obs::JsonValue& obj, const char* key,
                   const std::string& fallback) {
  if (!obj.contains(key)) return fallback;
  return obj.at(key).as_string();
}

}  // namespace

const char* to_string(Surface surface) {
  const auto i = static_cast<std::size_t>(surface);
  return i < kSurfaceCount ? kSurfaceNames[i] : "unknown";
}

bool surface_from_string(const std::string& name, Surface* out) {
  for (std::size_t i = 0; i < kSurfaceCount; ++i) {
    if (name == kSurfaceNames[i]) {
      *out = static_cast<Surface>(i);
      return true;
    }
  }
  return false;
}

obs::JsonValue spec_to_json(const ChaosSpec& spec) {
  obs::JsonValue root = obs::JsonValue::make_object();
  auto& obj = root.as_object();
  obj["seed"] = obs::JsonValue::make_number(static_cast<double>(spec.seed));
  obj["steps"] = obs::JsonValue::make_number(static_cast<double>(spec.steps));
  obj["atoms"] = obs::JsonValue::make_number(static_cast<double>(spec.atoms));
  obj["workers"] =
      obs::JsonValue::make_number(static_cast<double>(spec.workers));
  obj["checkpoint_interval"] = obs::JsonValue::make_number(
      static_cast<double>(spec.checkpoint_interval));
  obj["checkpoint_keep"] =
      obs::JsonValue::make_number(static_cast<double>(spec.checkpoint_keep));
  obj["timeout_ms"] =
      obs::JsonValue::make_number(static_cast<double>(spec.timeout_ms));
  obj["step_deadline_ms"] =
      obs::JsonValue::make_number(static_cast<double>(spec.step_deadline_ms));
  obs::JsonValue events = obs::JsonValue::make_array();
  for (const ChaosEvent& e : spec.events) {
    obs::JsonValue ev = obs::JsonValue::make_object();
    auto& eo = ev.as_object();
    eo["step"] = obs::JsonValue::make_number(static_cast<double>(e.step));
    eo["surface"] = obs::JsonValue::make_string(to_string(e.surface));
    if (e.rate != 0.0) eo["rate"] = obs::JsonValue::make_number(e.rate);
    if (e.rate2 != 0.0) eo["rate2"] = obs::JsonValue::make_number(e.rate2);
    if (e.a != -1) eo["a"] = obs::JsonValue::make_number(static_cast<double>(e.a));
    if (e.b != -1) eo["b"] = obs::JsonValue::make_number(static_cast<double>(e.b));
    if (e.until_step != 0) {
      eo["until_step"] =
          obs::JsonValue::make_number(static_cast<double>(e.until_step));
    }
    if (!e.detail.empty()) eo["detail"] = obs::JsonValue::make_string(e.detail);
    events.as_array().push_back(std::move(ev));
  }
  obj["events"] = std::move(events);
  return root;
}

ChaosSpec spec_from_json(const obs::JsonValue& json) {
  constexpr double kU64Max = 18446744073709549568.0;  // largest double < 2^64
  constexpr double kSteps = 1e9;
  // "backend" is retired (fleets are always processes) and still accepted,
  // so older replay files parse.
  require_known_keys(json,
                     {"seed", "steps", "atoms", "workers", "checkpoint_interval",
                      "checkpoint_keep", "timeout_ms", "step_deadline_ms", "events",
                      "backend"},
                     "top-level");
  ChaosSpec spec;
  spec.seed = static_cast<std::uint64_t>(
      integer_or(json, "seed", static_cast<double>(spec.seed), 0, kU64Max));
  spec.steps = static_cast<std::uint64_t>(
      integer_or(json, "steps", static_cast<double>(spec.steps), 1, kSteps));
  spec.atoms = static_cast<std::size_t>(integer_or(
      json, "atoms", static_cast<double>(spec.atoms),
      static_cast<double>(kMinAtoms), static_cast<double>(kMaxAtoms)));
  spec.workers = static_cast<std::size_t>(
      integer_or(json, "workers", static_cast<double>(spec.workers), 1,
                 static_cast<double>(kMaxWorkers)));
  spec.checkpoint_interval = static_cast<std::uint64_t>(
      integer_or(json, "checkpoint_interval",
                 static_cast<double>(spec.checkpoint_interval), 0, kSteps));
  spec.checkpoint_keep = static_cast<int>(integer_or(
      json, "checkpoint_keep", spec.checkpoint_keep, 1, 1000));
  spec.timeout_ms = static_cast<long>(integer_or(
      json, "timeout_ms", static_cast<double>(spec.timeout_ms), 1, 3.6e6));
  spec.step_deadline_ms = static_cast<long>(
      integer_or(json, "step_deadline_ms",
                 static_cast<double>(spec.step_deadline_ms), 1, 8.64e7));
  if (json.contains("events")) {
    for (const obs::JsonValue& ev : json.at("events").as_array()) {
      require_known_keys(
          ev, {"step", "surface", "rate", "rate2", "a", "b", "until_step", "detail"},
          "event");
      ChaosEvent e;
      e.step = static_cast<std::uint64_t>(integer_or(ev, "step", 0, 0, kSteps));
      const std::string name = str_or(ev, "surface", "packet");
      if (!surface_from_string(name, &e.surface)) {
        throw std::runtime_error("chaos spec: unknown surface '" + name + "'");
      }
      e.rate = rate_or(ev, "rate");
      e.rate2 = rate_or(ev, "rate2");
      e.a = static_cast<long>(integer_or(ev, "a", -1, -1, 1e12));
      e.b = static_cast<long>(integer_or(ev, "b", -1, -1, 1e12));
      e.until_step = static_cast<std::uint64_t>(
          integer_or(ev, "until_step", 0, 0, kSteps));
      e.detail = str_or(ev, "detail", "");
      spec.events.push_back(std::move(e));
    }
  }
  return spec;
}

std::string dump_spec(const ChaosSpec& spec) { return spec_to_json(spec).dump(); }

ChaosSpec parse_spec(const std::string& text) {
  return spec_from_json(obs::json_parse(text));
}

ChaosSpec read_spec_file(const std::string& path) {
  const std::vector<std::uint8_t> text = io::read_file(path);
  return parse_spec(std::string(text.begin(), text.end()));
}

ChaosSpec spec_from_env(ChaosSpec base) {
  base.seed = env::u64_or("TME_CHAOS_SEED", base.seed);
  base.steps = env::u64_or("TME_CHAOS_STEPS", base.steps);
  base.atoms = static_cast<std::size_t>(env::bounded_long_or(
      "TME_CHAOS_ATOMS", static_cast<long>(base.atoms),
      static_cast<long>(kMinAtoms), static_cast<long>(kMaxAtoms)));
  base.workers = static_cast<std::size_t>(env::bounded_long_or(
      "TME_CHAOS_WORKERS", static_cast<long>(base.workers), 1,
      static_cast<long>(kMaxWorkers)));
  if (const auto list = env::raw("TME_CHAOS_SURFACES")) {
    std::vector<Surface> surfaces;
    std::stringstream ss(*list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      Surface s;
      if (surface_from_string(item, &s)) {
        surfaces.push_back(s);
      } else {
        log_warn("TME_CHAOS_SURFACES: unknown surface '", item, "'");
      }
    }
    if (!surfaces.empty()) {
      const ChaosSpec random = random_spec(base.seed, base.steps, surfaces);
      base.events = random.events;
    }
  }
  return base;
}

ChaosSpec random_spec(std::uint64_t seed, std::uint64_t steps,
                      const std::vector<Surface>& surfaces) {
  ChaosSpec spec;
  spec.seed = seed;
  spec.steps = steps < 4 ? 4 : steps;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const auto step_at = [&]() -> std::uint64_t {
    return rng.next_u64() % spec.steps;
  };
  for (const Surface s : surfaces) {
    ChaosEvent e;
    e.surface = s;
    e.step = step_at();
    switch (s) {
      case Surface::kNode:
        e.a = static_cast<long>(rng.next_u64() % 4);
        break;
      case Surface::kLink:
        e.rate = 0.02 + 0.03 * rng.uniform();
        break;
      case Surface::kSdc:
        e.rate = 1e-5 + 1e-5 * rng.uniform();
        break;
      case Surface::kPacket: {
        e.rate = 0.05 + 0.05 * rng.uniform();   // drop
        e.rate2 = 0.05 + 0.05 * rng.uniform();  // corrupt
        std::uint64_t until = e.step + 1 + rng.next_u64() % 3;
        if (until > spec.steps) until = spec.steps;
        e.until_step = until;
        break;
      }
      case Surface::kWorker:
        e.a = static_cast<long>(rng.next_u64() % 8);
        e.detail = (rng.next_u64() & 1) ? "kill" : "term";
        e.b = 500;  // term grace ms
        break;
      case Surface::kBitrot:
        e.a = static_cast<long>(rng.next_u64() % 64);
        break;
      case Surface::kIo: {
        static constexpr const char* kIoKinds[] = {"enospc", "short", "eintr",
                                                   "fsync"};
        e.detail = kIoKinds[rng.next_u64() % 4];
        e.a = 128;  // enospc budget bytes, when applicable
        // Hold for two steps so the window straddles a checkpoint write
        // regardless of the rotation phase.
        std::uint64_t until = e.step + 2;
        if (until > spec.steps) until = spec.steps;
        e.until_step = until;
        break;
      }
      case Surface::kAlloc:
        e.a = 1;
        break;
      case Surface::kSigterm:
        // Draining mid-run needs at least one step after it to resume into.
        e.step = e.step % (spec.steps - 1);
        break;
      case Surface::kSabotage:
        e.a = static_cast<long>(rng.next_u64() % 16);
        break;
    }
    spec.events.push_back(std::move(e));
  }
  return spec;
}

}  // namespace tme::chaos
