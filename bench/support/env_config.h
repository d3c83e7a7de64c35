// One env-knob reader for every bench and demo binary.
//
// EnvConfig is the single path from the environment to a config: every
// read goes through integer()/real()/flag()/text(), which apply the
// environment over the caller's default AND record what was read — name,
// resolved value, and whether the environment or the default supplied it.
// describe() then renders the whole record, so a CI log always shows the
// exact knob set that produced a run, including the knobs left at their
// defaults. A bench constructs one EnvConfig, reads every config through
// it, and prints describe() once in its banner.
#ifndef NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_
#define NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_

#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "engine/engine.h"
#include "gateway/gateway.h"

namespace noble::bench {

struct OpenLoopConfig;  // bench_util.h (kept there: load-generator territory)

/// One recorded environment read.
struct EnvKnob {
  std::string name;   ///< e.g. "NOBLE_ENGINE_WORKERS"
  std::string value;  ///< resolved value, rendered as text
  bool from_env = false;  ///< true when the environment overrode the default
};

class EnvConfig {
 public:
  // --- primitive recorded reads ----------------------------------------------
  long integer(const char* name, long fallback);
  double real(const char* name, double fallback);
  bool flag(const char* name, bool fallback);  ///< "0" = false, anything else true
  std::string text(const char* name, std::string fallback);

  // --- composite readers (env applied over `defaults`) ------------------------
  /// Engine knobs, each applied over its field in `defaults`:
  /// NOBLE_ENGINE_WORKERS, NOBLE_ENGINE_MAX_BATCH, NOBLE_ENGINE_MAX_WAIT_US,
  /// NOBLE_ENGINE_QUEUE_CAP, NOBLE_ENGINE_BACKEND (dense|quantized),
  /// NOBLE_ENGINE_CACHE_CAP, NOBLE_ENGINE_CACHE_STEP_DB,
  /// NOBLE_ENGINE_CLASS_CAPS ("interactive:bulk" queue-slot caps, 0 =
  /// uncapped, e.g. "0:256"), NOBLE_ENGINE_DEADLINE_US (engine-wide default
  /// deadline budget, 0 = off), NOBLE_ENGINE_EDF (0/1: bulk lane FIFO vs
  /// earliest-deadline-first) and NOBLE_ENGINE_COALESCE (0/1: cross-session
  /// IMU batching vs serialized-per-track draining). Also applies and
  /// records the process-wide NOBLE_KERNEL override (scalar|avx2|auto).
  /// `defaults.workers == 0` means auto-size to min(hardware, 8), at least 2.
  engine::EngineConfig engine(engine::EngineConfig defaults = {});
  /// NOBLE_GATEWAY_PORT / NOBLE_GATEWAY_THREADS.
  gateway::GatewayConfig gateway(gateway::GatewayConfig defaults = {});
  /// NOBLE_LOAD_QPS / NOBLE_LOAD_SECONDS.
  OpenLoopConfig open_loop(OpenLoopConfig defaults);
  /// NOBLE_CLUSTER_NODE (name), NOBLE_CLUSTER_SERVE_PORT,
  /// NOBLE_CLUSTER_COORD_HOST / NOBLE_CLUSTER_COORD_PORT,
  /// NOBLE_CLUSTER_HEARTBEAT_MS, NOBLE_CLUSTER_SPILL (0/1).
  cluster::NodeConfig cluster_node(cluster::NodeConfig defaults = {});
  /// NOBLE_CLUSTER_PORT, NOBLE_CLUSTER_DEAD_AFTER_MS,
  /// NOBLE_CLUSTER_MODEL_DIR, NOBLE_CLUSTER_POLL_MS.
  cluster::CoordinatorConfig cluster_coordinator(
      cluster::CoordinatorConfig defaults = {});

  /// Every read so far, in read order (duplicates collapse onto the latest).
  const std::vector<EnvKnob>& knobs() const { return knobs_; }

  /// Multi-line "NOBLE_X=value" / "NOBLE_X=value (default)" record of every
  /// read — the one banner path for env-driven configuration.
  std::string describe() const;

 private:
  void record(const char* name, std::string value, bool from_env);
  std::vector<EnvKnob> knobs_;
};

}  // namespace noble::bench

#endif  // NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_
