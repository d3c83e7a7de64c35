// Engine throughput: QPS and latency percentiles vs. offered load.
//
// Baseline is one thread calling locate() sequentially — the serving story
// without the engine. Against it, the micro-batching engine is driven by
// 1/4/8 closed-loop client threads, each keeping a small window of requests
// in flight (that in-flight depth is what lets the batcher form
// micro-batches even from few clients). The acceptance bar for this repo:
// engine QPS at 8 client threads >= 2x the sequential baseline.
//
// Knobs: the shared NOBLE_ENGINE_* set (see bench::EnvConfig::engine),
// NOBLE_ENGINE_REQUESTS (per client thread), plus the usual NOBLE_SCALE /
// NOBLE_EPOCHS experiment sizing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "serve/wifi_localizer.h"
#include "support/bench_util.h"
#include "support/env_config.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-flight window per client: deep enough to expose batching opportunity,
/// shallow enough to be a realistic device-side pipeline.
constexpr std::size_t kInflightWindow = 16;

struct LoadResult {
  double qps = 0.0;
  noble::engine::EngineStats stats;
};

LoadResult run_load(const noble::serve::WifiLocalizer& localizer,
                    const std::vector<noble::serve::RssiVector>& queries,
                    std::size_t clients, std::size_t per_client,
                    const noble::engine::EngineConfig& cfg) {
  noble::engine::Engine engine(localizer, cfg);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<noble::serve::Fix>> inflight;
      inflight.reserve(kInflightWindow);
      for (std::size_t r = 0; r < per_client; ++r) {
        const auto& q = queries[(c * 7919 + r) % queries.size()];
        noble::engine::Submission s = engine.submit(q);
        while (s.status == noble::engine::SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.submit(q);
        }
        inflight.push_back(std::move(s.result));
        if (inflight.size() >= kInflightWindow) {
          for (auto& f : inflight) (void)f.get();
          inflight.clear();
        }
      }
      for (auto& f : inflight) (void)f.get();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = seconds_since(t0);
  LoadResult result;
  result.stats = engine.stats();
  result.qps = static_cast<double>(clients * per_client) / wall_s;
  return result;
}

}  // namespace

int main() {
  using namespace noble;

  bench::print_banner("engine_throughput",
                      "noble::engine micro-batching vs sequential serving");

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
  const auto per_client = static_cast<std::size_t>(
      env.integer("NOBLE_ENGINE_REQUESTS", static_cast<long>(scaled(4000, 256))));

  std::printf("localizer: %zu APs, %zu test queries\nconfig:\n%s\n",
              localizer.num_aps(), queries.size(), env.describe().c_str());

  // Warm-up.
  for (std::size_t i = 0; i < std::min<std::size_t>(64, queries.size()); ++i) {
    (void)localizer.locate(queries[i]);
  }

  // Baseline: one thread, direct sequential locate().
  Histogram seq_us = bench::latency_histogram();
  const std::size_t seq_total = std::max<std::size_t>(per_client, queries.size());
  const auto seq_t0 = Clock::now();
  for (std::size_t r = 0; r < seq_total; ++r) {
    const auto t0 = Clock::now();
    (void)localizer.locate(queries[r % queries.size()]);
    seq_us.record(seconds_since(t0) * 1e6);
  }
  const double seq_qps = static_cast<double>(seq_total) / seconds_since(seq_t0);
  std::printf("sequential baseline (1 thread, direct locate): %9.0f qps\n", seq_qps);
  bench::print_latency_row("sequential", 1, seq_us);
  std::printf("\n");

  // Offered load: 1 / 4 / 8 closed-loop clients against the engine.
  double qps_at_8 = 0.0;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const LoadResult result = run_load(localizer, queries, clients, per_client, cfg);
    std::printf("engine, %zu client thread%s: %9.0f qps  (%.2fx baseline, "
                "mean batch %.1f, %llu rejected)\n",
                clients, clients == 1 ? " " : "s", result.qps,
                result.qps / seq_qps, result.stats.batch_size.mean(),
                static_cast<unsigned long long>(result.stats.rejected));
    bench::print_latency_row("engine e2e", clients, result.stats.latency_us);
    if (clients == 8) qps_at_8 = result.qps;
  }

  const double speedup = qps_at_8 / seq_qps;
  std::printf("\nengine @ 8 clients vs sequential baseline: %.2fx %s\n", speedup,
              speedup >= 2.0 ? "(meets the >=2x serving bar)"
                             : "(below the 2x bar on this substrate)");
  std::printf("note: engine latency rows are end-to-end submit->fix, so they "
              "include queueing and the max_wait batching window.\n");
  return 0;
}
