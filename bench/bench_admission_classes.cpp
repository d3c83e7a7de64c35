// Mixed-workload admission bench: a bulk re-localization flood against
// steady interactive traffic, with and without class-aware admission.
//
// Phase "priority": the shard reserves interactive headroom (bulk_cap <
// queue_cap), workers drain interactive entries first, and the bulk stream
// carries a per-submission deadline. Phase "baseline": the same engine
// sizing with no class caps and every submission default-class — the
// uniform-rejection behavior this PR replaces.
//
// Two more phases measure the PR 9 scheduling work. Phase "goodput": the
// same deadline-diverse bulk backlog is drained twice — bulk lane FIFO vs
// earliest-deadline-first — at equal offered load (identical submission
// order and per-entry deadline budgets, deterministically scrambled), with
// a paced interactive prober running against the reserved headroom the
// whole time. The deadline spread is self-calibrated from a measured
// no-deadline drain of the same backlog, so the phase lands in the
// contended regime on any host. Phase "coalesce": >= 8 concurrent IMU
// tracks each run a closed loop with a small in-flight window (a live
// device pipelining a couple of segments) through a one-worker engine with
// cross-session coalescing off (serialized-per-track) then on, and every
// fix is compared in submission order against a direct TrackingSession
// replay — asserting bit-identity and per-session FIFO at once.
//
// The acceptance gates run right here (exit non-zero on violation), so the
// CI smoke run is the proof, not just a trace:
//   1. priority-phase interactive rejections == 0 (reserved headroom held);
//   2. priority-phase bulk shed > 0 (the flood was actually shed);
//   3. priority-phase interactive p99 strictly below the no-priority
//      baseline p99 (priority drain pays off end to end);
//   4. a post-flood interactive spot check stays bit-identical to direct
//      locate() (class and deadline never change a served result);
//   5. EDF completes strictly more bulk work before its deadline than FIFO
//      at equal offered load (goodput, not just throughput);
//   6. the EDF phase's interactive prober sees zero rejections and zero
//      result mismatches (reordering bulk never regresses interactive);
//   7. coalesced IMU throughput >= 1.5x the serialized drain at >= 8
//      concurrent sessions, with every fix bit-identical to a direct
//      TrackingSession replay and fewer IMU passes than updates (every
//      update counts in exactly one pass, so some pass served several
//      tracks).
//
// The goodput/coalesce phase rows also land in admission_goodput.csv
// (NOBLE_BENCH_OUT) so CI ships the numbers as an artifact.
//
// Knobs: the shared NOBLE_ENGINE_* set (bench::EnvConfig::engine —
// NOBLE_ENGINE_CLASS_CAPS, NOBLE_ENGINE_DEADLINE_US, NOBLE_ENGINE_EDF and
// NOBLE_ENGINE_COALESCE included), NOBLE_FLEET_ENGINES,
// NOBLE_ADMISSION_INTERACTIVE_CLIENTS / NOBLE_ADMISSION_BULK_CLIENTS /
// NOBLE_ADMISSION_REQUESTS / NOBLE_ADMISSION_PACE_US /
// NOBLE_ADMISSION_BULK_DEADLINE_US, NOBLE_GOODPUT_BACKLOG,
// NOBLE_COALESCE_SESSIONS / NOBLE_COALESCE_UPDATES /
// NOBLE_COALESCE_WINDOW, plus NOBLE_SCALE /
// NOBLE_EPOCHS experiment sizing.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/noble_imu.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"
#include "support/bench_util.h"
#include "support/env_config.h"

int main() {
  using namespace noble;

  bench::print_banner("admission_classes",
                      "class/deadline admission + fleet load shedding");

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
  defaults.max_batch = 16;
  defaults.max_wait_us = 100;
  defaults.queue_cap = 256;
  defaults.bulk_cap = 64;  // 192 slots reserved for interactive traffic
  bench::EnvConfig env;
  const engine::EngineConfig cfg = env.engine(defaults);
  const auto engines_per_shard =
      static_cast<std::size_t>(env.integer("NOBLE_FLEET_ENGINES", 1));

  bench::MixedLoadConfig load;
  load.interactive_clients = static_cast<std::size_t>(
      env.integer("NOBLE_ADMISSION_INTERACTIVE_CLIENTS", 2));
  load.bulk_clients =
      static_cast<std::size_t>(env.integer("NOBLE_ADMISSION_BULK_CLIENTS", 2));
  // The 384-per-client floor keeps the p99 gate statistically meaningful
  // even at smoke scale: with 2 clients the comparison rests on ~768
  // samples per phase, not a handful a scheduler hiccup could flip.
  load.interactive_requests = static_cast<std::size_t>(
      env.integer("NOBLE_ADMISSION_REQUESTS", static_cast<long>(scaled(1000, 384))));
  load.bulk_requests = 4 * load.interactive_requests;
  load.interactive_pace_us =
      static_cast<std::uint64_t>(env.integer("NOBLE_ADMISSION_PACE_US", 200));
  load.bulk_deadline_us = static_cast<std::uint64_t>(
      env.integer("NOBLE_ADMISSION_BULK_DEADLINE_US", 5000));
  load.bulk_inflight_window = 256;  // flood, do not self-throttle
  load.bulk_sustain = true;  // keep flooding until the interactive run ends
  // Later phases' knobs, read here so the banner lists them too.
  const auto backlog = static_cast<std::size_t>(
      env.integer("NOBLE_GOODPUT_BACKLOG", static_cast<long>(scaled(4096, 512))));
  const auto sessions_n = static_cast<std::size_t>(
      std::max<long>(env.integer("NOBLE_COALESCE_SESSIONS", 8), 2));
  const auto updates_per_session = static_cast<std::size_t>(
      env.integer("NOBLE_COALESCE_UPDATES", static_cast<long>(scaled(1000, 240))));
  const auto coalesce_window = static_cast<std::size_t>(
      std::max<long>(env.integer("NOBLE_COALESCE_WINDOW", 2), 1));

  const std::string key = "campus";
  const std::vector<std::string> keys{key};
  std::printf("fleet: 1 shard x %zu engines\nconfig:\n%s", engines_per_shard,
              env.describe().c_str());
  std::printf("load: %zu interactive clients x %zu (pace %llu us) vs "
              "%zu bulk clients x %zu (deadline %llu us)\n\n",
              load.interactive_clients, load.interactive_requests,
              static_cast<unsigned long long>(load.interactive_pace_us),
              load.bulk_clients, load.bulk_requests,
              static_cast<unsigned long long>(load.bulk_deadline_us));

  // Warm-up.
  for (std::size_t i = 0; i < std::min<std::size_t>(64, queries.size()); ++i) {
    (void)localizer.locate(queries[i]);
  }

  const auto run_phase = [&](bool classed, std::size_t* spot_mismatches) {
    fleet::Router router;
    fleet::ShardConfig shard;
    shard.key = key;
    shard.engines = engines_per_shard;
    shard.engine = cfg;
    if (!classed) {
      shard.engine.interactive_cap = 0;  // uniform admission, no reservation
      shard.engine.bulk_cap = 0;
    }
    router.add_shard(shard, localizer);
    bench::MixedLoadConfig phase_load = load;
    phase_load.classed = classed;
    bench::RouterTarget target(router);
    bench::MixedLoadReport report =
        bench::run_mixed_load(target, keys, queries, phase_load);
    if (spot_mismatches != nullptr) {
      // Post-flood correctness: the shard that just shed a bulk flood must
      // still answer interactive scans bit-identically to direct locate().
      *spot_mismatches = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(8, queries.size()); ++i) {
        engine::Submission s = router.submit(key, queries[i]);
        if (!s.accepted()) {
          ++*spot_mismatches;
          continue;
        }
        if (!(s.result.get() == localizer.locate(queries[i]))) {
          ++*spot_mismatches;
        }
      }
    }
    const fleet::FleetStats stats = router.stats();
    std::printf("phase %-9s %9.0f qps aggregate, wall %.2f s\n",
                classed ? "priority:" : "baseline:", report.qps,
                report.wall_seconds);
    bench::print_class_load_row("interactive", report.interactive);
    bench::print_class_load_row("bulk", report.bulk);
    std::printf("  fleet view:    interactive %llu/%llu/%llu ok/shed/expired, "
                "bulk %llu/%llu/%llu (engine-side, merged)\n\n",
                static_cast<unsigned long long>(stats.total.interactive.accepted),
                static_cast<unsigned long long>(stats.total.interactive.rejected),
                static_cast<unsigned long long>(stats.total.interactive.expired),
                static_cast<unsigned long long>(stats.total.bulk.accepted),
                static_cast<unsigned long long>(stats.total.bulk.rejected),
                static_cast<unsigned long long>(stats.total.bulk.expired));
    return report;
  };

  std::size_t spot_mismatches = 0;
  const bench::MixedLoadReport priority = run_phase(true, &spot_mismatches);
  const bench::MixedLoadReport baseline = run_phase(false, nullptr);

  const double priority_p99 = priority.interactive.latency_us.percentile(99.0);
  const double baseline_p99 = baseline.interactive.latency_us.percentile(99.0);
  const std::uint64_t bulk_shed = priority.bulk.rejected + priority.bulk.expired;
  const bool interactive_clean = priority.interactive.rejected == 0;
  const bool p99_improved = priority_p99 < baseline_p99;

  std::printf("verdict: interactive rejections %llu (want 0), bulk shed %llu "
              "(want > 0),\n         interactive p99 %.1f us vs baseline %.1f us "
              "(want strictly below), spot mismatches %zu (want 0)\n\n",
              static_cast<unsigned long long>(priority.interactive.rejected),
              static_cast<unsigned long long>(bulk_shed), priority_p99,
              baseline_p99, spot_mismatches);

  // --- phase 3: EDF bulk goodput at equal offered load ----------------------

  struct GoodputReport {
    std::uint64_t completed = 0;  ///< futures that resolved with a fix
    std::uint64_t expired = 0;    ///< kExpired at submit + DeadlineExpired
    std::uint64_t interactive_rejected = 0;
    std::uint64_t interactive_mismatches = 0;
    double wall_seconds = 0.0;
  };

  // One drain of the whole deadline-diverse backlog through a one-worker
  // engine. `deadlines_us` supplies each submission's budget (empty = no
  // deadlines — the calibration probe). With `probe_interactive`, a paced
  // interactive stream runs against the reserved headroom for the whole
  // drain, counting rejections and bit-identity mismatches.
  const auto run_bulk_drain = [&](bool edf, const std::vector<std::uint64_t>& deadlines_us,
                                  bool probe_interactive) {
    engine::EngineConfig gcfg = cfg;
    gcfg.workers = 1;        // one drain rate, so the two phases are comparable
    gcfg.max_batch = 16;
    gcfg.max_wait_us = 0;
    gcfg.queue_cap = backlog + 64;  // the whole backlog queues; none is shed
    gcfg.interactive_cap = 0;
    gcfg.bulk_cap = backlog;        // 64 slots stay interactive-only headroom
    gcfg.cache_capacity = 0;        // every served scan pays compute
    gcfg.edf_bulk = edf;
    engine::Engine eng(localizer, gcfg);

    GoodputReport report;
    std::atomic<bool> draining{true};
    std::thread prober;
    if (probe_interactive) {
      prober = std::thread([&] {
        std::size_t i = 0;
        while (draining.load(std::memory_order_relaxed)) {
          const auto& q = queries[(i++ * 31) % queries.size()];
          engine::Submission s = eng.submit(q);
          if (!s.accepted()) {
            ++report.interactive_rejected;
          } else if (!(s.result.get() == localizer.locate(q))) {
            ++report.interactive_mismatches;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::Fix>> futures;
    futures.reserve(backlog);
    for (std::size_t i = 0; i < backlog; ++i) {
      engine::SubmitOptions options = engine::SubmitOptions::bulk();
      if (!deadlines_us.empty()) options.expires_in_us(deadlines_us[i]);
      engine::Submission s = eng.submit(queries[i % queries.size()], options);
      if (s.accepted()) {
        futures.push_back(std::move(s.result));
      } else {
        ++report.expired;  // kExpired only: the queue is sized for the backlog
      }
    }
    for (auto& f : futures) {
      try {
        (void)f.get();
        ++report.completed;
      } catch (const engine::DeadlineExpired&) {
        ++report.expired;
      }
    }
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    draining.store(false, std::memory_order_relaxed);
    if (prober.joinable()) prober.join();
    return report;
  };

  // Calibration: measure the no-deadline drain time of this backlog on this
  // host, then spread the real budgets over [W/6, 1.5W]. That puts the phase
  // in the contended regime everywhere: too loose and FIFO completes
  // everything (no contrast), too tight and nothing is feasible either way.
  const GoodputReport probe = run_bulk_drain(false, {}, false);
  const auto drain_us = static_cast<std::uint64_t>(probe.wall_seconds * 1e6);
  const std::uint64_t min_budget_us = std::max<std::uint64_t>(drain_us / 6, 1000);
  const std::uint64_t max_budget_us = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(1.5 * static_cast<double>(drain_us)),
      8 * min_budget_us);
  std::vector<std::uint64_t> budgets_us(backlog);
  for (std::size_t i = 0; i < backlog; ++i) {
    // Knuth multiplicative scramble: deadline-diverse, order-uncorrelated,
    // and identical for both phases (equal offered load by construction).
    budgets_us[i] = min_budget_us +
                    (i * 2654435761ULL) % (max_budget_us - min_budget_us + 1);
  }

  const GoodputReport fifo = run_bulk_drain(false, budgets_us, true);
  const GoodputReport edf = run_bulk_drain(true, budgets_us, true);
  std::printf("phase goodput: backlog %zu, budgets %llu..%llu us "
              "(calibrated on a %.1f ms drain)\n",
              backlog, static_cast<unsigned long long>(min_budget_us),
              static_cast<unsigned long long>(max_budget_us),
              1e3 * probe.wall_seconds);
  const auto print_goodput = [](const char* mode, const GoodputReport& r) {
    std::printf("  bulk %-11s %6llu/%llu completed before deadline "
                "(%5.1f%%), wall %.2f s\n",
                mode, static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.completed + r.expired),
                100.0 * static_cast<double>(r.completed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        r.completed + r.expired, 1)),
                r.wall_seconds);
  };
  print_goodput("fifo:", fifo);
  print_goodput("edf:", edf);

  // --- phase 4: cross-session IMU coalescing throughput ---------------------

  struct CoalesceReport {
    double wall_seconds = 0.0;
    double updates_per_second = 0.0;
    std::uint64_t mismatches = 0;
    std::uint64_t imu_batches = 0;  ///< IMU passes, lone tracks included
  };

  // Model quality is irrelevant to this phase — every gate is throughput
  // or bit-identity — so a few epochs keep the fit cheap at any scale.
  core::NobleImuConfig imu_model_cfg = bench::noble_imu_config();
  imu_model_cfg.epochs = 4;
  core::ImuExperiment imu_experiment = core::make_imu_experiment(bench::imu_config());
  core::NobleImuTracker imu_tracker(imu_model_cfg);
  imu_tracker.fit(imu_experiment.split.train);
  const serve::ImuLocalizer imu_localizer =
      serve::ImuLocalizer::from_model(imu_tracker);
  const std::size_t segment_dim = imu_tracker.segment_dim();

  const auto run_coalesce = [&](bool coalesce) {
    engine::EngineConfig scfg = cfg;
    scfg.workers = 1;  // same drain capacity; only the scheduling differs
    scfg.max_batch = 16;
    scfg.max_wait_us = 100;
    scfg.queue_cap = 1024;
    scfg.interactive_cap = 0;
    scfg.bulk_cap = 0;
    scfg.cache_capacity = 0;
    scfg.coalesce_sessions = coalesce;
    engine::Engine eng(localizer, imu_localizer, scfg);

    CoalesceReport report;
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> tracks;
    tracks.reserve(sessions_n);
    for (std::size_t p = 0; p < sessions_n; ++p) {
      tracks.emplace_back([&, p] {
        const auto& path = imu_experiment.split.test
                               .paths[p % imu_experiment.split.test.size()];
        std::vector<serve::ImuSegment> segments;
        segments.reserve(path.num_segments);
        for (std::size_t s = 0; s < path.num_segments; ++s) {
          segments.emplace_back(
              path.features.begin() + static_cast<std::ptrdiff_t>(s * segment_dim),
              path.features.begin() +
                  static_cast<std::ptrdiff_t>((s + 1) * segment_dim));
        }
        // Direct replay first: the bit-identity reference, outside the wall.
        serve::TrackingSession direct = imu_localizer.start_session(path.start);
        std::vector<serve::Fix> expected;
        expected.reserve(updates_per_session);
        for (std::size_t r = 0; r < updates_per_session; ++r) {
          expected.push_back(direct.update(segments[r % segments.size()]));
        }
        const auto session = eng.open_session(path.start);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Closed-loop, windowed submission: each track keeps a small
        // in-flight window, like a live device pipelining a couple of
        // segments. An open-loop flood would park hundreds of updates in
        // each per-session FIFO, letting the serialized drain amortize its
        // entire token ceremony (queue round-trip, map lookup, per-update
        // stats) over the whole backlog — a workload shape no real tracker
        // produces — and mask exactly the overhead coalescing exists to
        // amortize. Settling front-to-back also asserts per-session FIFO.
        std::deque<std::future<serve::Fix>> inflight;
        std::size_t settled = 0;
        const auto settle_front = [&] {
          if (!(inflight.front().get() == expected[settled])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          inflight.pop_front();
          ++settled;
        };
        for (std::size_t r = 0; r < updates_per_session; ++r) {
          engine::Submission s = eng.track(*session, segments[r % segments.size()]);
          while (s.status == engine::SubmitStatus::kQueueFull) {
            std::this_thread::yield();
            s = eng.track(*session, segments[r % segments.size()]);
          }
          inflight.push_back(std::move(s.result));
          if (inflight.size() >= coalesce_window) settle_front();
        }
        while (!inflight.empty()) settle_front();
      });
    }
    while (ready.load() < sessions_n) std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : tracks) t.join();
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    report.updates_per_second =
        static_cast<double>(sessions_n * updates_per_session) /
        std::max(report.wall_seconds, 1e-9);
    report.mismatches = mismatches.load();
    report.imu_batches = eng.stats().imu_batches;
    return report;
  };

  // Best-of-alternating-passes: a timing ratio measured once on a loaded
  // host (ctest -j runs this smoke next to everything else) is noise — one
  // descheduled window can erase a 3x difference. Three alternating passes
  // per mode, best wall each, compares the two schedulers at their least-
  // contended; bit-identity is gated across every pass.
  CoalesceReport serialized;
  CoalesceReport coalesced;
  std::uint64_t session_mismatches = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const CoalesceReport s = run_coalesce(false);
    const CoalesceReport c = run_coalesce(true);
    session_mismatches += s.mismatches + c.mismatches;
    if (pass == 0 || s.updates_per_second > serialized.updates_per_second) {
      serialized = s;
    }
    if (pass == 0 || c.updates_per_second > coalesced.updates_per_second) {
      coalesced = c;
    }
  }
  const double speedup =
      coalesced.updates_per_second / std::max(serialized.updates_per_second, 1e-9);
  std::printf("phase coalesce: %zu sessions x %zu updates, window %zu, "
              "1 worker, best of 3 alternating passes\n",
              sessions_n, updates_per_session, coalesce_window);
  std::printf("  sessions serialized: %9.0f updates/s, wall %.3f s, mismatches %llu\n",
              serialized.updates_per_second, serialized.wall_seconds,
              static_cast<unsigned long long>(serialized.mismatches));
  std::printf("  sessions coalesced:  %9.0f updates/s, wall %.3f s, mismatches %llu, "
              "%llu IMU passes (%.2fx)\n\n",
              coalesced.updates_per_second, coalesced.wall_seconds,
              static_cast<unsigned long long>(coalesced.mismatches),
              static_cast<unsigned long long>(coalesced.imu_batches), speedup);

  // CSV artifact: the goodput/coalesce rows CI ships.
  const std::string csv_path = bench::artifact_path("admission_goodput.csv");
  if (std::FILE* csv = std::fopen(csv_path.c_str(), "w")) {
    std::fprintf(csv, "phase,mode,offered,completed,expired,wall_s,rate_per_s\n");
    const auto goodput_row = [&](const char* mode, const GoodputReport& r) {
      std::fprintf(csv, "bulk_goodput,%s,%zu,%llu,%llu,%.6f,%.1f\n", mode, backlog,
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.expired), r.wall_seconds,
                   static_cast<double>(r.completed) /
                       std::max(r.wall_seconds, 1e-9));
    };
    goodput_row("fifo", fifo);
    goodput_row("edf", edf);
    const auto coalesce_row = [&](const char* mode, const CoalesceReport& r) {
      std::fprintf(csv, "imu_coalesce,%s,%zu,%zu,0,%.6f,%.1f\n", mode,
                   sessions_n * updates_per_session,
                   sessions_n * updates_per_session, r.wall_seconds,
                   r.updates_per_second);
    };
    coalesce_row("serialized", serialized);
    coalesce_row("coalesced", coalesced);
    std::fclose(csv);
    std::printf("wrote %s\n\n", csv_path.c_str());
  }

  const bool edf_goodput_wins = edf.completed > fifo.completed;
  const bool edf_interactive_clean =
      edf.interactive_rejected == 0 && edf.interactive_mismatches == 0;
  const std::size_t coalesce_updates = sessions_n * updates_per_session;
  const bool coalesce_wins = speedup >= 1.5 && coalesced.imu_batches > 0 &&
                             coalesced.imu_batches < coalesce_updates;
  const bool coalesce_identical = session_mismatches == 0;

  std::printf("verdict: edf goodput %llu vs fifo %llu (want strictly more), "
              "edf-phase interactive %llu rejected / %llu mismatched (want 0/0),\n"
              "         coalesce speedup %.2fx (want >= 1.5x, %llu IMU passes for "
              "%zu updates — want fewer), "
              "session mismatches %llu across all passes (want 0)\n",
              static_cast<unsigned long long>(edf.completed),
              static_cast<unsigned long long>(fifo.completed),
              static_cast<unsigned long long>(edf.interactive_rejected),
              static_cast<unsigned long long>(edf.interactive_mismatches), speedup,
              static_cast<unsigned long long>(coalesced.imu_batches), coalesce_updates,
              static_cast<unsigned long long>(session_mismatches));
  const bool admission_ok =
      interactive_clean && bulk_shed > 0 && p99_improved && spot_mismatches == 0;
  const bool scheduling_ok = edf_goodput_wins && edf_interactive_clean &&
                             coalesce_wins && coalesce_identical;
  return admission_ok && scheduling_ok ? 0 : 1;
}
