// Cluster smoke: a real two-process fleet on loopback — coordinator plus an
// in-process node A in this driver, and a second node B forked+exec'd as a
// child process — exercising every cluster contract end to end:
//
//   1. membership   both nodes join over kHello/kHeartbeat; each sees the
//                   other alive with the same artifact digest
//   2. spill        a bulk flood overflows node A's one-slot bulk lane and
//                   spills cross-process to node B; every spilled fix must
//                   be bit-identical to direct inference on the artifact
//   3. rollout      a retrained artifact dropped into the watched model dir
//                   drives the staged canary -> probe -> commit sequence;
//                   the fleet must converge onto the new digest and keep
//                   serving bit-identically
//   4. death        closing the child's stdin stops its heartbeats; the
//                   coordinator must mark it dead and node A's spill must
//                   stop targeting it (overflow degrades to kQueueFull)
//
// Each phase is a gate; any violation exits non-zero (the CI smoke
// contract). Phase counters land in cluster_smoke.csv under NOBLE_BENCH_OUT.
//
// Modes:
//  - default: the driver described above.
//  - --node <coordinator_port>: the child process. Training is
//    deterministic from the seeds, so both processes hold bit-identical
//    models without shipping weights.
//
// Knobs: NOBLE_CLUSTER_* (via bench::EnvConfig — the same reader every
// bench banner uses), NOBLE_EPOCHS, and the usual NOBLE_KERNEL override.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "common/config.h"
#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "serve/artifact.h"
#include "serve/wifi_localizer.h"
#include "support/bench_util.h"
#include "support/env_config.h"

namespace {

using namespace std::chrono_literals;

struct Workload {
  std::vector<noble::serve::RssiVector> queries;
  noble::serve::WifiLocalizer wifi_v1;
  noble::serve::WifiLocalizer wifi_v2;
  noble::core::NobleWifiModel model_v2;  ///< the artifact the rollout ships
};

/// Deterministic from the seeds: the driver and the --node child rebuild
/// the same v1 model (and the driver alone retrains v2 for the rollout).
Workload build_workload(std::size_t epochs) {
  using namespace noble;
  core::WifiExperimentConfig exp_cfg;
  exp_cfg.total_samples = 1200;
  exp_cfg.seed = 917;
  core::WifiExperiment exp = core::make_uji_experiment(exp_cfg);
  auto model_config = [epochs](std::uint64_t seed) {
    core::NobleWifiConfig cfg;
    cfg.quantize.tau = 6.0;
    cfg.quantize.coarse_l = 24.0;
    cfg.epochs = epochs;
    cfg.hidden_units = 24;
    cfg.seed = seed;
    return cfg;
  };
  core::NobleWifiModel v1(model_config(31));
  v1.fit(exp.split.train);
  core::NobleWifiModel v2(model_config(32));
  v2.fit(exp.split.train);

  Workload load{{},
                serve::WifiLocalizer::from_model(v1),
                serve::WifiLocalizer::from_model(v2),
                std::move(v2)};
  for (const auto& sample : exp.split.test.samples) load.queries.push_back(sample.rssi);
  return load;
}

noble::fleet::ShardConfig shard_config(std::size_t queue_cap, std::size_t bulk_cap) {
  noble::fleet::ShardConfig cfg;
  cfg.key = "bldg-A";
  cfg.engines = 1;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  cfg.engine.max_wait_us = 100;
  cfg.engine.queue_cap = queue_cap;
  cfg.engine.bulk_cap = bulk_cap;
  return cfg;
}

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 15'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(20ms);
  }
  return pred();
}

bool sees_alive_peer(const noble::cluster::NodeAgent& agent, const std::string& name) {
  for (const auto& peer : agent.peers()) {
    if (peer.name == name && peer.alive && !peer.shards.empty()) return true;
  }
  return false;
}

/// Floods `count` bulk scans through the agent; settles every accepted
/// future against direct inference on `reference`.
struct FloodReport {
  std::uint64_t rejected = 0;    ///< kQueueFull verdicts (no spill target)
  std::uint64_t identical = 0;   ///< futures that matched `reference` exactly
  std::uint64_t mismatched = 0;  ///< futures with a *different* fix (gate: 0)
  std::uint64_t shed = 0;        ///< futures that failed with a clean verdict
};

FloodReport flood_bulk(noble::cluster::NodeAgent& agent, const Workload& load,
                       const noble::serve::WifiLocalizer& reference,
                       std::size_t count) {
  using namespace noble;
  FloodReport report;
  engine::SubmitOptions bulk;
  bulk.request_class = engine::RequestClass::kBulk;
  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> accepted;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t qi = i % load.queries.size();
    engine::Submission sub = agent.submit("bldg-A", load.queries[qi], bulk);
    if (sub.accepted()) {
      accepted.emplace_back(qi, std::move(sub.result));
    } else {
      ++report.rejected;
    }
  }
  for (auto& [qi, result] : accepted) {
    try {
      const serve::Fix fix = result.get();
      if (fix == reference.locate(load.queries[qi])) {
        ++report.identical;
      } else {
        ++report.mismatched;
      }
    } catch (const std::exception&) {
      ++report.shed;  // peer-side kQueueFull etc. — a verdict, not a wrong fix
    }
  }
  return report;
}

// --- the --node child --------------------------------------------------------

int run_node_mode(std::uint16_t coordinator_port) {
  using namespace noble;
  bench::EnvConfig env;
  const Workload load =
      build_workload(static_cast<std::size_t>(env.integer("NOBLE_EPOCHS", 5)));
  fleet::Router router;
  router.add_shard(shard_config(/*queue_cap=*/512, /*bulk_cap=*/0), load.wifi_v1);

  cluster::NodeConfig defaults;
  defaults.name = "node-b";
  defaults.heartbeat_ms = 50;
  cluster::NodeConfig cfg = env.cluster_node(defaults);
  cfg.coordinator_port = coordinator_port;  // handed over by the driver
  cluster::NodeAgent agent(router, cfg);
  if (!agent.start()) {
    std::printf("node-b: cannot start the cluster server\n");
    return 1;
  }
  std::printf("node-b serving on port %u (stdin EOF stops it)\n", agent.port());
  std::fflush(stdout);
  // Park until the driver closes our stdin; heartbeats run in the agent.
  while (std::getchar() != EOF) {
  }
  agent.stop();
  return 0;
}

// --- CSV ---------------------------------------------------------------------

void csv_row(std::FILE* out, const char* phase, const char* metric,
             unsigned long long value) {
  std::fprintf(out, "%s,%s,%llu\n", phase, metric, value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace noble;

  if (argc > 2 && std::strcmp(argv[1], "--node") == 0) {
    return run_node_mode(
        static_cast<std::uint16_t>(std::strtoul(argv[2], nullptr, 10)));
  }

  bench::print_banner("cluster",
                      "noble::cluster two-process smoke (spill, rollout, death)");

  const std::string model_dir = bench::artifact_path("cluster_models");
  std::filesystem::create_directories(model_dir);

  bench::EnvConfig env;
  cluster::CoordinatorConfig coord_defaults;
  coord_defaults.dead_after_ms = 500;
  coord_defaults.poll_ms = 0;  // scans driven manually: deterministic phases
  coord_defaults.model_dir = model_dir;
  cluster::CoordinatorConfig coord_cfg = env.cluster_coordinator(coord_defaults);
  cluster::NodeConfig node_defaults;
  node_defaults.name = "node-a";
  node_defaults.heartbeat_ms = 50;
  cluster::NodeConfig node_cfg = env.cluster_node(node_defaults);
  const auto epochs = static_cast<std::size_t>(env.integer("NOBLE_EPOCHS", 5));
  std::printf("knobs:\n%s\n", env.describe().c_str());

  std::printf("training (deterministic: the child rebuilds the same models)...\n");
  const Workload load = build_workload(epochs);
  if (load.queries.size() < 8) {
    std::printf("no test queries at this scale; nothing to do\n");
    return 1;
  }
  std::printf("workload: %zu scans, v1 digest %016llx, v2 digest %016llx\n\n",
              load.queries.size(),
              static_cast<unsigned long long>(load.wifi_v1.artifact_digest()),
              static_cast<unsigned long long>(load.wifi_v2.artifact_digest()));

  // Coordinator + in-process node A. A's one-slot bulk lane makes any real
  // flood overflow, which is exactly what the spill phase needs.
  cluster::Coordinator coordinator(coord_cfg);
  std::vector<serve::RssiVector> probes(load.queries.begin(), load.queries.begin() + 4);
  coordinator.set_probe_queries("bldg-A", probes);
  if (!coordinator.start()) {
    std::printf("FAIL: cannot start the coordinator\n");
    return 1;
  }
  fleet::Router router_a;
  router_a.add_shard(shard_config(/*queue_cap=*/4, /*bulk_cap=*/1), load.wifi_v1);
  node_cfg.coordinator_port = coordinator.port();
  cluster::NodeAgent node_a(router_a, node_cfg);
  if (!node_a.start()) {
    std::printf("FAIL: cannot start node-a\n");
    return 1;
  }

  // Node B: fork + exec this binary in --node mode, stdin on a pipe (close
  // the write end to stop it — also how the death phase kills heartbeats).
  int child_stdin[2] = {-1, -1};
  if (::pipe(child_stdin) != 0) {
    std::printf("FAIL: pipe()\n");
    return 1;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    std::printf("FAIL: fork()\n");
    return 1;
  }
  if (child == 0) {
    ::dup2(child_stdin[0], STDIN_FILENO);
    ::close(child_stdin[0]);
    ::close(child_stdin[1]);
    const std::string port = std::to_string(coordinator.port());
    ::execl(argv[0], argv[0], "--node", port.c_str(), nullptr);
    std::perror("execl");
    std::_Exit(127);
  }
  ::close(child_stdin[0]);

  // --- phase 1: membership ---------------------------------------------------
  const bool joined = wait_until([&] {
    return coordinator.counters().members_joined == 2 &&
           sees_alive_peer(node_a, "node-b");
  });
  std::uint64_t peer_digest = 0;
  for (const auto& peer : node_a.peers()) {
    if (peer.name == "node-b" && !peer.shards.empty()) peer_digest = peer.shards[0].digest;
  }
  const bool membership_ok = joined && peer_digest == load.wifi_v1.artifact_digest();
  std::printf("membership: both nodes joined %s (peer digest %016llx)\n",
              membership_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(peer_digest));

  // --- phase 2: cross-process bulk spill -------------------------------------
  const FloodReport spill = flood_bulk(node_a, load, load.wifi_v1, 256);
  const cluster::NodeCounters spill_counters = node_a.counters();
  const bool spill_ok = membership_ok && spill_counters.spill_forwarded > 0 &&
                        spill_counters.spill_completed > 0 &&
                        spill.mismatched == 0 && spill.identical > 0;
  std::printf("spill: forwarded %llu, completed %llu, fixes identical %llu, "
              "mismatched %llu, shed %llu, local rejects %llu %s\n",
              static_cast<unsigned long long>(spill_counters.spill_forwarded),
              static_cast<unsigned long long>(spill_counters.spill_completed),
              static_cast<unsigned long long>(spill.identical),
              static_cast<unsigned long long>(spill.mismatched),
              static_cast<unsigned long long>(spill.shed),
              static_cast<unsigned long long>(spill.rejected),
              spill_ok ? "ok" : "FAIL");

  // --- phase 3: staged rollout ----------------------------------------------
  const std::string artifact = model_dir + "/bldg-A.noble";
  bool rollout_ok = serve::save_model(load.model_v2, artifact);
  coordinator.scan_model_dir();
  const cluster::CoordinatorCounters roll = coordinator.counters();
  rollout_ok = rollout_ok && roll.rollouts_started == 1 &&
               roll.rollouts_committed == 1 && roll.rollouts_failed == 0 &&
               roll.probes_matched == probes.size() && roll.probes_mismatched == 0;
  // The log must show the stages in order: started -> canary ok -> committed.
  {
    const std::vector<std::string> log = coordinator.rollout_log();
    std::size_t started = log.size(), canary = log.size(), committed = log.size();
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].find("started") != std::string::npos && started == log.size())
        started = i;
      if (log[i].find("canary") != std::string::npos &&
          log[i].find(" ok") != std::string::npos)
        canary = i;
      if (log[i].find("committed") != std::string::npos) committed = i;
    }
    rollout_ok = rollout_ok && started < canary && canary < committed &&
                 committed < log.size();
    for (const std::string& line : log) std::printf("  rollout log: %s\n", line.c_str());
  }
  // Fleet convergence: both members heartbeat the new digest, and node A
  // serves the new model bit-identically.
  rollout_ok = rollout_ok && wait_until([&] {
                 std::size_t on_v2 = 0;
                 for (const auto& member : coordinator.members()) {
                   for (const auto& shard : member.shards) {
                     if (shard.digest == load.wifi_v2.artifact_digest()) ++on_v2;
                   }
                 }
                 return on_v2 == 2;
               });
  {
    engine::SubmitOptions opts;
    for (const auto& q : probes) {
      engine::Submission sub = node_a.submit("bldg-A", q, opts);
      rollout_ok = rollout_ok && sub.accepted() &&
                   sub.result.get() == load.wifi_v2.locate(q);
    }
  }
  std::printf("rollout: started %llu, committed %llu, probes matched %llu/%zu %s\n",
              static_cast<unsigned long long>(roll.rollouts_started),
              static_cast<unsigned long long>(roll.rollouts_committed),
              static_cast<unsigned long long>(roll.probes_matched), probes.size(),
              rollout_ok ? "ok" : "FAIL");

  // --- phase 4: heartbeat-loss death ----------------------------------------
  ::close(child_stdin[1]);  // child sees stdin EOF and exits
  int child_status = -1;
  ::waitpid(child, &child_status, 0);
  const bool child_clean =
      WIFEXITED(child_status) && WEXITSTATUS(child_status) == 0;
  bool death_ok = child_clean && wait_until([&] {
                    if (sees_alive_peer(node_a, "node-b")) return false;
                    for (const auto& member : coordinator.members()) {
                      if (member.name == "node-b") return !member.alive;
                    }
                    return false;
                  });
  const std::uint64_t forwarded_before = node_a.counters().spill_forwarded;
  const FloodReport dead_flood = flood_bulk(node_a, load, load.wifi_v2, 128);
  const std::uint64_t forwarded_after = node_a.counters().spill_forwarded;
  death_ok = death_ok && forwarded_after == forwarded_before &&
             dead_flood.rejected > 0 && dead_flood.mismatched == 0;
  std::printf("death: child exit %s, marked dead %s, post-death spill delta %llu, "
              "local rejects %llu %s\n",
              child_clean ? "clean" : "DIRTY",
              death_ok ? "yes" : "no",
              static_cast<unsigned long long>(forwarded_after - forwarded_before),
              static_cast<unsigned long long>(dead_flood.rejected),
              death_ok ? "ok" : "FAIL");

  node_a.stop();
  coordinator.stop();

  // --- artifact --------------------------------------------------------------
  const std::string csv = bench::artifact_path("cluster_smoke.csv");
  if (std::FILE* out = std::fopen(csv.c_str(), "w")) {
    std::fprintf(out, "phase,metric,value\n");
    csv_row(out, "membership", "members_joined", coordinator.counters().members_joined);
    csv_row(out, "spill", "forwarded", spill_counters.spill_forwarded);
    csv_row(out, "spill", "completed", spill_counters.spill_completed);
    csv_row(out, "spill", "identical", spill.identical);
    csv_row(out, "spill", "mismatched", spill.mismatched);
    csv_row(out, "rollout", "committed", roll.rollouts_committed);
    csv_row(out, "rollout", "probes_matched", roll.probes_matched);
    csv_row(out, "death", "members_died", coordinator.counters().members_died);
    csv_row(out, "death", "post_death_spill", forwarded_after - forwarded_before);
    std::fclose(out);
    std::printf("\nwrote %s\n", csv.c_str());
  }
  std::filesystem::remove_all(model_dir);

  std::printf("\ngates: membership %s, spill %s, rollout %s, death %s\n",
              membership_ok ? "ok" : "FAIL", spill_ok ? "ok" : "FAIL",
              rollout_ok ? "ok" : "FAIL", death_ok ? "ok" : "FAIL");
  if (!(membership_ok && spill_ok && rollout_ok && death_ok)) {
    std::printf("FAIL: cluster smoke gates violated\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
