#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hpp"

namespace tme::env {

namespace {

// strto* skip leading whitespace; the strict contract rejects it.
bool leading_space(const std::string& text) {
  return !text.empty() &&
         std::isspace(static_cast<unsigned char>(text[0])) != 0;
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return std::nullopt;
  return std::string(text);
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || leading_space(text) || text[0] == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<long> parse_long(const std::string& text) {
  if (text.empty() || leading_space(text)) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

std::uint64_t u64_or(const char* name, std::uint64_t fallback) {
  const auto text = raw(name);
  if (!text) return fallback;
  if (const auto v = parse_u64(*text)) return *v;
  log_warn(name, "='", *text, "' is not an unsigned integer; keeping ", fallback);
  return fallback;
}

long bounded_long_or(const char* name, long fallback, long lo, long hi) {
  const auto text = raw(name);
  if (!text) return fallback;
  const auto v = parse_long(*text);
  if (v && *v >= lo && *v <= hi) return *v;
  log_warn(name, "='", *text, "' is not an integer in [", lo, ", ", hi,
           "]; keeping ", fallback);
  return fallback;
}

std::size_t choice_or(const char* name, const std::vector<std::string>& choices,
                      std::size_t fallback_index) {
  const auto text = raw(name);
  if (!text) return fallback_index;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (*text == choices[i]) return i;
  }
  std::string valid;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) valid += "|";
    valid += choices[i];
  }
  log_warn(name, "='", *text, "' is not ", valid, "; keeping ",
           choices[fallback_index]);
  return fallback_index;
}

}  // namespace tme::env
