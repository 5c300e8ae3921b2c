#include "obs/status.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>

#include <chrono>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/io_shim.hpp"

namespace tme::obs {

namespace {

volatile std::sig_atomic_t g_status_signal = 0;

void on_sigusr1(int) { g_status_signal = 1; }

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

StatusReporter& StatusReporter::global() {
  static StatusReporter reporter;
  return reporter;
}

void StatusReporter::set_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
}

std::string StatusReporter::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

void StatusReporter::set_every(std::uint64_t every) {
  std::lock_guard<std::mutex> lock(mutex_);
  every_ = every;
}

std::uint64_t StatusReporter::every() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return every_;
}

int StatusReporter::add_provider(std::string key,
                                 std::function<void(JsonValue&)> fill) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = next_id_++;
  providers_.push_back(Provider{id, std::move(key), std::move(fill)});
  return id;
}

void StatusReporter::remove_provider(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    if (providers_[i].id == id) {
      providers_.erase(providers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void StatusReporter::arm_signal() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
}

void StatusReporter::configure_from_env() {
  const char* out = std::getenv("TME_STATUS_OUT");
  if (out != nullptr && *out != '\0') {
    set_path(out);
    arm_signal();
  }
  set_every(env_u64("TME_STATUS_EVERY", every()));
}

bool StatusReporter::signal_pending() { return g_status_signal != 0; }

bool StatusReporter::poll(std::uint64_t step) {
  bool due = false;
  if (g_status_signal != 0) {
    g_status_signal = 0;
    due = true;
  }
  const std::uint64_t every = this->every();
  if (every != 0 && step % every == 0) due = true;
  if (!due) return false;
  return write_now(step);
}

bool StatusReporter::write_now(std::uint64_t step) {
  std::string path;
  std::vector<Provider> providers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path = path_;
    providers = providers_;
  }
  if (path.empty()) return false;

  JsonValue root = JsonValue::make_object();
  auto& obj = root.as_object();
  obj["schema"] = JsonValue::make_string("tme-status-v1");
  obj["step"] = JsonValue::make_number(static_cast<double>(step));
  obj["pid"] = JsonValue::make_number(static_cast<double>(::getpid()));
  obj["written_unix_ms"] = JsonValue::make_number(static_cast<double>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));

  // Provider sections first: a provider may refresh registry gauges (the
  // fleet publishes its per-worker view), and the registry section below
  // must carry those values from this same snapshot.
  for (const Provider& p : providers) {
    JsonValue section = JsonValue::make_object();
    p.fill(section);
    obj[p.key] = std::move(section);
  }

  // Global-registry section: counters + gauges verbatim, histograms as
  // count/percentile summaries (the full bins live in BENCH exports).
  const MetricsSnapshot snap = Registry::global().snapshot();
  JsonValue metrics = JsonValue::make_object();
  auto& mo = metrics.as_object();
  JsonValue counters = JsonValue::make_object();
  for (const auto& [name, value] : snap.counters)
    counters.as_object()[name] =
        JsonValue::make_number(static_cast<double>(value));
  mo["counters"] = std::move(counters);
  JsonValue gauges = JsonValue::make_object();
  for (const auto& [name, value] : snap.gauges)
    gauges.as_object()[name] = JsonValue::make_number(value);
  mo["gauges"] = std::move(gauges);
  JsonValue hists = JsonValue::make_object();
  for (const auto& [name, stat] : snap.histograms) {
    JsonValue h = JsonValue::make_object();
    auto& ho = h.as_object();
    ho["count"] = JsonValue::make_number(static_cast<double>(stat.count));
    ho["p50"] = JsonValue::make_number(stat.p50);
    ho["p95"] = JsonValue::make_number(stat.p95);
    ho["p99"] = JsonValue::make_number(stat.p99);
    hists.as_object()[name] = std::move(h);
  }
  mo["histograms"] = std::move(hists);
  obj["metrics"] = std::move(metrics);

  try {
    io::write_file_durable(path, root.dump() + "\n");
  } catch (const io::IoError&) {
    return false;  // a status write must never end the run
  }
  return true;
}

void StatusReporter::reset_for_testing() {
  std::lock_guard<std::mutex> lock(mutex_);
  path_.clear();
  every_ = 0;
  providers_.clear();
  g_status_signal = 0;
}

}  // namespace tme::obs
