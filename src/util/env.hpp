// Environment-variable configuration parsing, shared by every TME_* knob.
//
// Every knob (TME_THREADS in util/parallel, TME_SIMD in util/simd, the
// TME_CHAOS_* spec overrides in chaos/schedule) parses through this one
// implementation: strict full-string parses that return nullopt on any
// malformed input, and typed lookups that log one consistently-formatted warning
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
std::optional<double> parse_double(const std::string& text);

// Typed lookups with the consistent warning described above.
std::uint64_t u64_or(const char* name, std::uint64_t fallback);

// Probability in [0, 1].
double probability_or(const char* name, double fallback);

// Finite value with value >= 0 (timeouts, rates in seconds).
double non_negative_or(const char* name, double fallback);

// Integer in [lo, hi].
long bounded_long_or(const char* name, long fallback, long lo, long hi);

// Boolean flag: "0"/"off"/"false" -> false, "1"/"on"/"true" -> true.
bool flag_or(const char* name, bool fallback);

// One of `choices` (exact match); returns the matching index, or
// `fallback_index` with a warning listing the valid spellings.
std::size_t choice_or(const char* name, const std::vector<std::string>& choices,
                      std::size_t fallback_index);

}  // namespace tme::env
