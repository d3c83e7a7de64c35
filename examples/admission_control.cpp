// Admission-control tour — request classes, deadlines, and fleet-wide
// load shedding:
//  1. train a NObLe Wi-Fi model on a synthetic campus,
//  2. stand up one engine with reserved interactive headroom
//     (bulk_cap < queue_cap) and flood it with bulk re-localization
//     traffic: every interleaved interactive fix must still be admitted
//     (the reservation is a guarantee, not a heuristic), while bulk sheds
//     with an explicit kQueueFull,
//  3. deadlines: a submission whose deadline already passed is refused
//     with kExpired before costing anything; a generous deadline serves
//     normally and bit-identically,
//  4. a two-replica shard behind the fleet router: when the primary
//     engine fills up, bulk spills to the replica with the shallowest
//     queue — both replicas end up serving, and every served fix stays
//     bit-identical to direct locate().
//
// Exits non-zero if any gate fails, so the smoke tier doubles as an
// end-to-end admission-control check.
//
// Run: ./example_admission_control
#include <cstdio>
#include <future>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "serve/wifi_localizer.h"

namespace {

bool same_fix(const noble::serve::Fix& a, const noble::serve::Fix& b) {
  return a == b;  // serve::Fix equality IS the bit-identity contract
}

}  // namespace

int main() {
  using namespace noble;

  std::printf("noble::engine admission tour: classes, deadlines, shedding\n\n");

  // 1. Train (scaled by NOBLE_SCALE inside the experiment builder).
  core::WifiExperimentConfig config;
  config.total_samples = 3000;
  config.seed = 17;
  core::WifiExperiment experiment = core::make_uji_experiment(config);
  core::NobleWifiConfig model_config;
  model_config.quantize.tau = 3.0;
  model_config.quantize.coarse_l = 15.0;
  model_config.epochs = 10;
  core::NobleWifiModel model(model_config);
  model.fit(experiment.split.train, &experiment.split.val);
  const serve::WifiLocalizer localizer = serve::WifiLocalizer::from_model(model);

  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples)
    queries.push_back(sample.rssi);
  if (queries.size() < 16) {
    std::printf("not enough test queries at this scale; nothing to do\n");
    return 1;
  }

  std::size_t failures = 0;

  // 2. Reserved interactive headroom under a bulk flood. queue_cap 8 with
  // bulk_cap 2 leaves 6 slots bulk can never take; we keep at most one
  // interactive fix in flight, so its admission is guaranteed.
  {
    engine::EngineConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.max_wait_us = 2000;  // hold batches open so the flood piles up
    cfg.queue_cap = 8;
    cfg.bulk_cap = 2;
    engine::Engine engine(localizer, cfg);

    std::size_t bulk_ok = 0, bulk_shed = 0, interactive_ok = 0;
    std::vector<std::pair<std::size_t, std::future<serve::Fix>>> bulk_fixes;
    for (std::size_t round = 0; round < 8; ++round) {
      for (std::size_t b = 0; b < 8; ++b) {
        const std::size_t q = (round * 8 + b) % queries.size();
        engine::Submission s =
            engine.submit(queries[q], engine::SubmitOptions::bulk());
        if (s.accepted()) {
          ++bulk_ok;
          bulk_fixes.emplace_back(q, std::move(s.result));
        } else {
          ++bulk_shed;
        }
      }
      const std::size_t q = round % queries.size();
      engine::Submission fix = engine.submit(queries[q]);  // interactive
      if (fix.accepted() && same_fix(fix.result.get(), localizer.locate(queries[q]))) {
        ++interactive_ok;
      } else {
        ++failures;
      }
    }
    for (auto& [q, result] : bulk_fixes) {
      if (!same_fix(result.get(), localizer.locate(queries[q]))) ++failures;
    }
    const engine::EngineStats stats = engine.stats();
    std::printf("flood: %zu/8 interactive served under a bulk flood "
                "(%zu bulk ok, %zu shed; engine says %llu/%llu)\n",
                interactive_ok, bulk_ok, bulk_shed,
                static_cast<unsigned long long>(stats.bulk.accepted),
                static_cast<unsigned long long>(stats.bulk.rejected));
    if (interactive_ok != 8) ++failures;
    if (bulk_shed == 0) ++failures;  // a 2-slot bulk cap must shed a tight flood
  }

  // 3. Deadlines: dead-on-arrival is an explicit verdict, a live deadline
  // serves bit-identically.
  {
    engine::Engine engine(localizer);
    engine::SubmitOptions late = engine::SubmitOptions::bulk();
    late.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    const engine::Submission expired = engine.submit(queries[0], late);
    engine::Submission fresh = engine.submit(
        queries[0], engine::SubmitOptions::interactive().expires_in_us(5'000'000));
    const bool expired_ok = expired.status == engine::SubmitStatus::kExpired;
    const bool fresh_ok =
        fresh.accepted() && same_fix(fresh.result.get(), localizer.locate(queries[0]));
    std::printf("deadlines: past deadline -> %s, generous deadline -> %s\n",
                expired_ok ? "kExpired (never queued)" : "WRONG STATUS",
                fresh_ok ? "served, bit-identical" : "MISMATCH");
    if (!expired_ok || !fresh_ok) ++failures;
    const engine::EngineStats stats = engine.stats();
    if (stats.expired != 1 || stats.bulk.expired != 1) ++failures;
  }

  // 4. Fleet spill: two tiny replicas of one artifact; a tight bulk flood of
  // one scan fills its primary, and the router spills to the sibling.
  {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = "bldg-A";
    shard.engines = 2;
    shard.engine.workers = 1;
    shard.engine.max_batch = 8;
    shard.engine.max_wait_us = 2000;
    shard.engine.queue_cap = 2;
    router.add_shard(shard, localizer);

    std::size_t ok = 0, shed = 0;
    std::vector<std::future<serve::Fix>> fixes;
    for (std::size_t r = 0; r < 128; ++r) {
      engine::Submission s =
          router.submit("bldg-A", queries.front(), engine::SubmitOptions::bulk());
      if (s.accepted()) {
        ++ok;
        fixes.push_back(std::move(s.result));
      } else {
        ++shed;
      }
    }
    const serve::Fix expected = localizer.locate(queries.front());
    for (auto& result : fixes) {
      if (!same_fix(result.get(), expected)) ++failures;
    }
    // Each probe of a full replica is one engine-level rejection and a shed
    // request was refused by both, so the rest were turned away by the
    // primary and admitted by the sibling.
    const std::uint64_t spilled = router.stats().total.bulk.rejected - 2 * shed;
    std::printf("spill: %zu served / %zu shed, %llu spilled to the sibling replica%s\n",
                ok, shed, static_cast<unsigned long long>(spilled),
                spilled > 0 ? " — queue-depth spill engaged" : " (expected some!)");
    if (spilled == 0) ++failures;
  }

  std::printf("\n%s\n", failures == 0
                            ? "admission control holds: reservations, deadlines "
                              "and spill all behaved — and every served fix "
                              "stayed bit-identical."
                            : "ADMISSION TOUR FAILED");
  return failures == 0 ? 0 : 1;
}
