// Environment-variable configuration parsing for the TME_* knobs above obs.
//
// TME_THREADS (util/parallel), TME_SIMD (util/simd), TME_LOG_JSON
// (util/logging) and the spec overrides TME_CHAOS_SEED, _STEPS, _ATOMS,
// _WORKERS and _SURFACES (chaos/schedule) parse through this one
// implementation.  obs sits below util, so TME_TRACE,
// TME_TRACE_BUFFER and TME_STATUS_* parse locally in obs/.  The helpers are
// strict full-string parses that return nullopt on any malformed input, and
// typed lookups that log one consistently-formatted warning
//   "<NAME>='<value>' is not <expectation>; keeping <fallback>"
// and keep the caller's fallback.  Unset or empty variables are silently
// the fallback — only a present-but-malformed value warns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tme::env {

// Raw value of `name`; nullopt when the variable is unset or empty.
std::optional<std::string> raw(const char* name);

// Strict parsers: the whole string must be consumed, no leading/trailing
// garbage.  Return nullopt on malformed input (never throw).
std::optional<std::uint64_t> parse_u64(const std::string& text);
std::optional<long> parse_long(const std::string& text);

// Typed lookups with the consistent warning described above.
std::uint64_t u64_or(const char* name, std::uint64_t fallback);

// Integer in [lo, hi].
long bounded_long_or(const char* name, long fallback, long lo, long hi);

// One of `choices` (exact match); returns the matching index, or
// `fallback_index` with a warning listing the valid spellings.
std::size_t choice_or(const char* name, const std::vector<std::string>& choices,
                      std::size_t fallback_index);

}  // namespace tme::env
