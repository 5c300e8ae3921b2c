// Per-run manifest: a JSON block stamped into every BENCH_*.json and trace
// export so artifacts are self-describing — which commit, which build type,
// which TME_* environment knobs and which pool size produced the numbers.
// Build-time facts (git describe, build type, compile-time toggles) come
// from compile definitions; runtime facts are contributed by
// the subsystems that own them via manifest_set (global_pool reports
// pool_threads, benches report their CLI arguments and solver manifests).
#pragma once

#include <string>

#include "obs/json.hpp"

namespace tme::obs {

// Records a runtime fact under `key`.  Later calls with the same key
// overwrite; thread-safe.  The JsonValue overload stores a structured fact
// (e.g. a LongRangeSolver::describe() manifest) verbatim.
void manifest_set(const std::string& key, const std::string& value);
void manifest_set(const std::string& key, double value);
void manifest_set(const std::string& key, JsonValue value);

// Assembles the manifest: build facts, every TME_* environment variable in
// effect, and all manifest_set entries (under "runtime").
JsonValue manifest_json();

}  // namespace tme::obs
