#include "support/env_config.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "engine/backend.h"
#include "kernels/kernels.h"
#include "support/bench_util.h"

namespace noble::bench {

void EnvConfig::record(const char* name, std::string value, bool from_env) {
  for (EnvKnob& knob : knobs_) {
    if (knob.name == name) {
      knob.value = std::move(value);
      knob.from_env = from_env;
      return;
    }
  }
  knobs_.push_back(EnvKnob{name, std::move(value), from_env});
}

void EnvConfig::reject(const char* name, const std::string& value,
                       const std::string& why) {
  std::fprintf(stderr, "noble: bad environment knob %s=%s: %s\n", name, value.c_str(),
               why.c_str());
  std::exit(2);
}

long EnvConfig::integer(const char* name, long fallback) {
  long value = fallback;
  bool from_env = false;
  if (const char* raw = std::getenv(name); raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    errno = 0;
    value = std::strtol(raw, &end, 10);
    if (end == raw || *end != '\0' || errno == ERANGE) reject(name, raw, "not an integer");
    from_env = true;
  }
  record(name, std::to_string(value), from_env);
  return value;
}

long EnvConfig::integer(const char* name, long fallback, long min) {
  const long value = integer(name, fallback);
  if (value < min) {
    reject(name, std::to_string(value), "must be at least " + std::to_string(min));
  }
  return value;
}

double EnvConfig::real(const char* name, double fallback) {
  double value = fallback;
  bool from_env = false;
  if (const char* raw = std::getenv(name); raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    errno = 0;
    value = std::strtod(raw, &end);
    if (end == raw || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
      reject(name, raw, "not a finite number");
    }
    from_env = true;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", value);
  record(name, buf, from_env);
  return value;
}

bool EnvConfig::flag(const char* name, bool fallback) {
  const bool value = integer(name, fallback ? 1 : 0) != 0;
  // integer() already recorded the numeric form; normalize to 0/1.
  record(name, value ? "1" : "0", knobs_.back().from_env);
  return value;
}

std::string EnvConfig::text(const char* name, std::string fallback) {
  std::string value = std::move(fallback);
  bool from_env = false;
  if (const char* raw = std::getenv(name); raw != nullptr && *raw != '\0') {
    value = raw;
    from_env = true;
  }
  record(name, value, from_env);
  return value;
}

std::string EnvConfig::describe() const {
  std::string out;
  for (const EnvKnob& knob : knobs_) {
    out += "  " + knob.name + "=" + knob.value;
    if (!knob.from_env) out += " (default)";
    out += "\n";
  }
  return out;
}

engine::EngineConfig EnvConfig::engine(engine::EngineConfig defaults) {
  // NOBLE_KERNEL=scalar|avx2|auto selects the kernel ISA for the whole
  // process (every backend serves through noble::kernels); re-applied here
  // so benches pick the knob up no matter when they build their config.
  kernels::apply_env_override();
  text("NOBLE_KERNEL", kernels::isa_name(kernels::active_isa()));
  engine::EngineConfig cfg = defaults;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t worker_default =
      defaults.workers == 0 ? std::clamp<std::size_t>(hw, 2, 8) : defaults.workers;
  cfg.workers = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_WORKERS", static_cast<long>(worker_default), 1));
  cfg.max_batch = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_MAX_BATCH", static_cast<long>(defaults.max_batch), 1));
  cfg.max_wait_us = static_cast<std::uint64_t>(
      integer("NOBLE_ENGINE_MAX_WAIT_US", static_cast<long>(defaults.max_wait_us), 0));
  cfg.queue_cap = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_QUEUE_CAP", static_cast<long>(defaults.queue_cap), 1));
  const std::string backend =
      text("NOBLE_ENGINE_BACKEND", engine::backend_kind_name(defaults.backend));
  if (backend == engine::backend_kind_name(engine::BackendKind::kQuantized)) {
    cfg.backend = engine::BackendKind::kQuantized;
  } else if (backend == engine::backend_kind_name(engine::BackendKind::kDense)) {
    cfg.backend = engine::BackendKind::kDense;
  } else {
    reject("NOBLE_ENGINE_BACKEND", backend, "want dense or quantized");
  }
  cfg.cache_capacity = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_CACHE_CAP", static_cast<long>(defaults.cache_capacity), 0));
  cfg.cache_key_step_db =
      real("NOBLE_ENGINE_CACHE_STEP_DB", defaults.cache_key_step_db);
  if (!(cfg.cache_key_step_db > 0.0)) {
    reject("NOBLE_ENGINE_CACHE_STEP_DB", std::to_string(cfg.cache_key_step_db),
           "must be positive");
  }
  // "interactive:bulk" queue-slot caps, each a non-negative integer.
  const std::string caps = text("NOBLE_ENGINE_CLASS_CAPS", "");
  if (!caps.empty()) {
    const auto slots = [&caps](const std::string& digits) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long value = std::strtoull(digits.c_str(), &end, 10);
      if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos ||
          errno == ERANGE) {
        reject("NOBLE_ENGINE_CLASS_CAPS", caps, "want interactive:bulk slot counts");
      }
      return static_cast<std::size_t>(value);
    };
    const std::size_t colon = caps.find(':');
    cfg.interactive_cap = slots(caps.substr(0, colon));
    cfg.bulk_cap = slots(colon == std::string::npos ? "" : caps.substr(colon + 1));
  }
  cfg.default_deadline_us = static_cast<std::uint64_t>(integer(
      "NOBLE_ENGINE_DEADLINE_US", static_cast<long>(defaults.default_deadline_us), 0));
  cfg.edf_bulk = flag("NOBLE_ENGINE_EDF", defaults.edf_bulk);
  cfg.coalesce_sessions = flag("NOBLE_ENGINE_COALESCE", defaults.coalesce_sessions);
  return cfg;
}

gateway::GatewayConfig EnvConfig::gateway(gateway::GatewayConfig defaults) {
  gateway::GatewayConfig cfg = std::move(defaults);
  cfg.port =
      static_cast<std::uint16_t>(integer("NOBLE_GATEWAY_PORT", cfg.port));
  cfg.threads = static_cast<std::size_t>(
      integer("NOBLE_GATEWAY_THREADS", static_cast<long>(cfg.threads)));
  return cfg;
}

OpenLoopConfig EnvConfig::open_loop(OpenLoopConfig defaults) {
  OpenLoopConfig cfg = defaults;
  cfg.offered_qps = real("NOBLE_LOAD_QPS", defaults.offered_qps);
  cfg.seconds = real("NOBLE_LOAD_SECONDS", defaults.seconds);
  return cfg;
}

cluster::NodeConfig EnvConfig::cluster_node(cluster::NodeConfig defaults) {
  cluster::NodeConfig cfg = std::move(defaults);
  cfg.name = text("NOBLE_CLUSTER_NODE", cfg.name);
  cfg.server.port = static_cast<std::uint16_t>(
      integer("NOBLE_CLUSTER_SERVE_PORT", cfg.server.port));
  cfg.coordinator_host = text("NOBLE_CLUSTER_COORD_HOST", cfg.coordinator_host);
  cfg.coordinator_port = static_cast<std::uint16_t>(
      integer("NOBLE_CLUSTER_COORD_PORT", cfg.coordinator_port));
  cfg.heartbeat_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_HEARTBEAT_MS", static_cast<long>(cfg.heartbeat_ms)));
  cfg.spill_enabled = flag("NOBLE_CLUSTER_SPILL", cfg.spill_enabled);
  return cfg;
}

cluster::CoordinatorConfig EnvConfig::cluster_coordinator(
    cluster::CoordinatorConfig defaults) {
  cluster::CoordinatorConfig cfg = std::move(defaults);
  cfg.server.port =
      static_cast<std::uint16_t>(integer("NOBLE_CLUSTER_PORT", cfg.server.port));
  cfg.dead_after_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_DEAD_AFTER_MS", static_cast<long>(cfg.dead_after_ms)));
  cfg.model_dir = text("NOBLE_CLUSTER_MODEL_DIR", cfg.model_dir);
  cfg.poll_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_POLL_MS", static_cast<long>(cfg.poll_ms)));
  return cfg;
}

}  // namespace noble::bench
