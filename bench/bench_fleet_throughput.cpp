// Fleet throughput: aggregate QPS and merged latency percentiles across
// sharded engines, plus the fingerprint-cache fast path on a repeated-scan
// workload.
//
// Phase 1 (shards): one model artifact served as NOBLE_FLEET_SHARDS shards
// of NOBLE_FLEET_ENGINES engines each, driven by closed-loop clients that
// spread scans across shard keys. Reported: aggregate QPS, per-shard and
// merged p50/p95/p99 (FleetStats merges the per-engine histograms — the
// merge()-able layout doing the job it was designed for).
//
// Phase 2 (cache): the same router config with the admission cache enabled,
// against a workload of repeated scans (a small distinct-scan pool, as
// produced by fixed infrastructure). Reported: hit rate and the client-side
// p50 with the cache on vs off — the hit path answers at submit() without
// entering the queue, so it must sit far under the uncached p50.
//
// Knobs: the shared NOBLE_ENGINE_* set (bench::EnvConfig::engine),
// NOBLE_FLEET_SHARDS, NOBLE_FLEET_ENGINES, NOBLE_FLEET_CLIENTS,
// NOBLE_FLEET_REQUESTS (per client), NOBLE_FLEET_DISTINCT (phase-2 pool),
// plus NOBLE_SCALE / NOBLE_EPOCHS experiment sizing.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "fleet/router.h"
#include "serve/wifi_localizer.h"
#include "support/bench_util.h"
#include "support/env_config.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::string> make_shard_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t s = 0; s < count; ++s) keys.push_back("bldg-" + std::to_string(s));
  return keys;
}

/// Sequential submit+get over a repeated-scan pool; returns the client-side
/// latency histogram (what a device experiences per fix).
noble::Histogram run_repeated_scan_probe(noble::fleet::Router& router,
                                         const std::string& key,
                                         const std::vector<noble::serve::RssiVector>& pool,
                                         std::size_t requests) {
  noble::Histogram latencies = noble::bench::latency_histogram();
  for (std::size_t r = 0; r < requests; ++r) {
    const auto& q = pool[r % pool.size()];
    const auto t0 = Clock::now();
    noble::engine::Submission s = router.submit(key, q);
    if (!s.accepted()) continue;
    (void)s.result.get();
    latencies.record(seconds_since(t0) * 1e6);
  }
  return latencies;
}

}  // namespace

int main() {
  using namespace noble;

  bench::print_banner("fleet_throughput",
                      "noble::fleet sharded routing + fingerprint cache");

  core::WifiExperiment experiment = core::make_uji_experiment(bench::uji_config());
  core::NobleWifiModel model(bench::noble_wifi_config());
  model.fit(experiment.split.train, &experiment.split.val);
  const serve::WifiLocalizer localizer = serve::WifiLocalizer::from_model(model);

  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples)
    queries.push_back(sample.rssi);
  if (queries.empty()) {
    std::printf("no test queries at this scale; nothing to do\n");
    return 1;
  }

  engine::EngineConfig defaults;
  defaults.workers = 0;  // auto: min(hardware, 8)
  defaults.max_wait_us = 100;
  defaults.queue_cap = 4096;
  bench::EnvConfig env;
  const engine::EngineConfig cfg = env.engine(defaults);
  const auto num_shards =
      static_cast<std::size_t>(env.integer("NOBLE_FLEET_SHARDS", 2));
  const auto engines_per_shard =
      static_cast<std::size_t>(env.integer("NOBLE_FLEET_ENGINES", 1));
  const auto clients = static_cast<std::size_t>(env.integer("NOBLE_FLEET_CLIENTS", 4));
  const auto per_client = static_cast<std::size_t>(
      env.integer("NOBLE_FLEET_REQUESTS", static_cast<long>(scaled(2000, 128))));
  const auto distinct = static_cast<std::size_t>(env.integer("NOBLE_FLEET_DISTINCT", 64));

  const std::vector<std::string> keys = make_shard_keys(num_shards);
  std::printf("fleet: %zu shards x %zu engines\nconfig:\n%s", num_shards,
              engines_per_shard, env.describe().c_str());
  std::printf("load: %zu clients x %zu requests, %zu distinct scans\n\n", clients,
              per_client, queries.size());

  // Warm-up.
  for (std::size_t i = 0; i < std::min<std::size_t>(64, queries.size()); ++i) {
    (void)localizer.locate(queries[i]);
  }

  // Phase 1: sharded throughput, cache off.
  {
    fleet::Router router;
    for (const std::string& key : keys) {
      fleet::ShardConfig shard;
      shard.key = key;
      shard.engines = engines_per_shard;
      shard.engine = cfg;
      shard.engine.cache_capacity = 0;
      router.add_shard(shard, localizer);
    }
    // The shared mixed-workload generator in pure-throughput trim: every
    // client pipelined interactive, no pacing, retry-on-full, no bulk.
    bench::MixedLoadConfig load;
    load.interactive_clients = clients;
    load.interactive_requests = per_client;
    load.interactive_pace_us = 0;
    load.retry_interactive_full = true;
    load.interactive_inflight_window = 16;  // keep micro-batches full
    load.bulk_clients = 0;
    bench::RouterTarget target(router);
    const bench::MixedLoadReport result =
        bench::run_mixed_load(target, keys, queries, load);
    const double qps = result.qps;
    const fleet::FleetStats stats = router.stats();
    std::printf("phase 1 — sharded routing (%zu engines total): %9.0f qps aggregate\n",
                stats.num_engines, qps);
    bench::print_latency_row("fleet merged", clients, stats.total.latency_us);
    for (const auto& [key, shard_stats] : stats.shards) {
      bench::print_latency_row("  " + key, clients, shard_stats.latency_us);
    }
    std::printf("\n");
  }

  // Phase 2: repeated-scan workload, cache off vs on.
  std::vector<serve::RssiVector> pool(
      queries.begin(),
      queries.begin() + static_cast<std::ptrdiff_t>(std::min(distinct, queries.size())));
  const std::size_t probe_requests = std::max<std::size_t>(4 * pool.size(), 512);

  const auto probe = [&](std::size_t cache_capacity) {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = keys.front();
    shard.engines = 1;
    shard.engine = cfg;
    shard.engine.cache_capacity = cache_capacity;
    router.add_shard(shard, localizer);
    Histogram latencies =
        run_repeated_scan_probe(router, keys.front(), pool, probe_requests);
    const fleet::FleetStats stats = router.stats();
    return std::make_pair(std::move(latencies), stats.total);
  };

  auto [uncached_us, uncached_stats] = probe(0);
  auto [cached_us, cached_stats] =
      probe(cfg.cache_capacity > 0 ? cfg.cache_capacity : 4096);

  std::printf("phase 2 — repeated scans (%zu distinct, %zu requests, 1 client):\n",
              pool.size(), probe_requests);
  bench::print_latency_row("cache off", 1, uncached_us);
  bench::print_latency_row("cache on", 1, cached_us);
  const double hit_rate =
      cached_stats.cache_hits + cached_stats.cache_misses == 0
          ? 0.0
          : static_cast<double>(cached_stats.cache_hits) /
                static_cast<double>(cached_stats.cache_hits + cached_stats.cache_misses);
  const double speedup = cached_us.percentile(50.0) > 0.0
                             ? uncached_us.percentile(50.0) / cached_us.percentile(50.0)
                             : 0.0;
  std::printf("  hit rate %.1f%% (%llu hits / %llu misses), cache-on p50 is "
              "%.1fx under the uncached p50\n",
              100.0 * hit_rate,
              static_cast<unsigned long long>(cached_stats.cache_hits),
              static_cast<unsigned long long>(cached_stats.cache_misses), speedup);
  std::printf("note: phase-1 latency rows are end-to-end submit->fix and include "
              "queueing plus the batching window.\n");
  return 0;
}
