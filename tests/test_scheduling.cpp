// Scheduling tests (PR 9): EDF bulk-lane ordering determinism (ties, mixed
// deadline/no-deadline entries, all-expired pops), cross-session IMU
// coalescing bit-identity against direct TrackingSession inference,
// per-session FIFO preserved under 8-thread pipelined load, IMU pass
// accounting (every served session update counted in exactly one pass), and
// the bounded session drain (a continuously fed track never holds a Wi-Fi
// scan behind it).
//
// Carries the `concurrency` CTest label and runs under
// -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// EDF bulk-lane ordering: deterministic deadline-sorted draining.
// ---------------------------------------------------------------------------

TEST(EdfQueue, BulkDrainsByAscendingDeadline) {
  BoundedQueue<int> queue(8, ClassCaps{}, /*edf_bulk=*/true);
  const auto now = Clock::now();
  const auto at = [&](int ms) { return now + std::chrono::milliseconds(ms); };
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, at(30000)), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, at(10000)), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk, at(20000)), PushResult::kOk);
  std::vector<int> expired;
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0), &expired);
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 2);  // earliest deadline first, not arrival order
  EXPECT_EQ(batch[1], 3);
  EXPECT_EQ(batch[2], 1);
}

TEST(EdfQueue, TiesBreakByAdmissionSequence) {
  BoundedQueue<int> queue(8, ClassCaps{}, /*edf_bulk=*/true);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.try_push(i, RequestClass::kBulk, deadline), PushResult::kOk);
  }
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<std::size_t>(i)], i);
}

TEST(EdfQueue, DeadlinelessEntriesSortLastInArrivalOrder) {
  BoundedQueue<int> queue(8, ClassCaps{}, /*edf_bulk=*/true);
  const auto now = Clock::now();
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, now + std::chrono::seconds(60)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(4, RequestClass::kBulk, now + std::chrono::seconds(30)),
            PushResult::kOk);
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 4);  // deadline-carrying entries first, ascending
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(batch[2], 1);  // deadline-less tail keeps arrival order
  EXPECT_EQ(batch[3], 3);
}

TEST(EdfQueue, InteractiveLaneStaysFifoAndStillOutranksBulk) {
  BoundedQueue<int> queue(8, ClassCaps{}, /*edf_bulk=*/true);
  const auto now = Clock::now();
  // Interactive pushed with *decreasing* deadlines: EDF would reverse them,
  // FIFO must not.
  EXPECT_EQ(queue.try_push(1, RequestClass::kInteractive, now + std::chrono::seconds(30)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kInteractive, now + std::chrono::seconds(20)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(10, RequestClass::kBulk, now + std::chrono::seconds(1)),
            PushResult::kOk);
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 1);   // arrival order within interactive
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(batch[2], 10);  // bulk still fills after interactive
}

TEST(EdfQueue, AllExpiredPopReturnsCorpsesInDeadlineOrderWithoutWaiting) {
  BoundedQueue<int> queue(8, ClassCaps{}, /*edf_bulk=*/true);
  const auto past = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, past), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, past - std::chrono::milliseconds(2)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk, past - std::chrono::milliseconds(1)),
            PushResult::kOk);
  std::vector<int> expired;
  const auto t0 = Clock::now();
  const auto batch = queue.pop_batch(8, std::chrono::seconds(30), &expired);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));  // corpse short-circuit
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[0], 2);  // EDF order holds for the expired list too
  EXPECT_EQ(expired[1], 3);
  EXPECT_EQ(expired[2], 1);
}

TEST(EdfQueue, DefaultConstructionKeepsBulkFifo) {
  BoundedQueue<int> queue(8);  // edf_bulk defaults off at the queue level
  EXPECT_FALSE(queue.edf_bulk());
  const auto now = Clock::now();
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, now + std::chrono::seconds(30)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, now + std::chrono::seconds(10)),
            PushResult::kOk);
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);  // arrival order despite the later deadline
  EXPECT_EQ(batch[1], 2);
}

// ---------------------------------------------------------------------------
// Cross-session IMU coalescing: bit-identity and per-session FIFO.
// ---------------------------------------------------------------------------

struct SchedulingFixture {
  core::WifiExperiment wifi_exp;
  core::NobleWifiModel wifi_model;
  core::ImuExperiment imu_exp;
  core::NobleImuTracker imu_tracker;
};

const SchedulingFixture& scheduling_fixture() {
  static const SchedulingFixture* fixture = [] {
    core::WifiExperimentConfig wcfg;
    wcfg.total_samples = 600;
    wcfg.seed = 905;
    core::ImuExperimentConfig icfg;
    icfg.num_paths = 300;
    icfg.total_walk_time_s = 1000.0;
    icfg.readings_per_segment = 8;
    icfg.imu.ref_interval_s = 15.0;
    icfg.seed = 906;
    auto* f = new SchedulingFixture{core::make_uji_experiment(wcfg),
                                    core::NobleWifiModel([] {
                                      core::NobleWifiConfig mc;
                                      mc.quantize.tau = 6.0;
                                      mc.quantize.coarse_l = 24.0;
                                      mc.epochs = 4;
                                      mc.hidden_units = 32;
                                      return mc;
                                    }()),
                                    core::make_imu_experiment(icfg),
                                    core::NobleImuTracker([] {
                                      core::NobleImuConfig mc;
                                      mc.quantize.tau = 2.0;
                                      mc.epochs = 6;
                                      mc.projection_dim = 6;
                                      return mc;
                                    }())};
    f->wifi_model.fit(f->wifi_exp.split.train);
    f->imu_tracker.fit(f->imu_exp.split.train);
    return f;
  }();
  return *fixture;
}

std::vector<serve::ImuSegment> segments_of(const data::ImuPath& path,
                                           std::size_t segment_dim) {
  std::vector<serve::ImuSegment> out;
  out.reserve(path.num_segments);
  for (std::size_t s = 0; s < path.num_segments; ++s) {
    out.emplace_back(
        path.features.begin() + static_cast<std::ptrdiff_t>(s * segment_dim),
        path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * segment_dim));
  }
  return out;
}

// The serve-layer coalescing contract: one update_sessions pass over K
// different tracks returns exactly the fixes K serial update() calls would —
// every module in the path is row-independent, so the batch dimension never
// leaks between tracks.
TEST(SessionCoalescing, UpdateSessionsBitIdenticalToSerialUpdates) {
  const auto& f = scheduling_fixture();
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);
  const std::size_t num_tracks = std::min<std::size_t>(f.imu_exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 8u);

  std::vector<serve::TrackingSession> batched;
  std::vector<serve::TrackingSession> serial;
  std::vector<std::vector<serve::ImuSegment>> tracks;
  std::size_t rounds = 0;
  for (std::size_t p = 0; p < num_tracks; ++p) {
    const auto& path = f.imu_exp.split.test.paths[p];
    batched.push_back(imu.start_session(path.start));
    serial.push_back(imu.start_session(path.start));
    tracks.push_back(segments_of(path, f.imu_tracker.segment_dim()));
    rounds = std::max(rounds, tracks.back().size());
  }
  ASSERT_GT(rounds, 0u);

  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<serve::TrackingSession*> sessions;
    std::vector<const serve::ImuSegment*> segments;
    std::vector<serve::Fix> expected;
    for (std::size_t p = 0; p < num_tracks; ++p) {
      if (round >= tracks[p].size()) continue;  // ragged: shorter walks drop out
      sessions.push_back(&batched[p]);
      segments.push_back(&tracks[p][round]);
      expected.push_back(serial[p].update(tracks[p][round]));
    }
    if (sessions.empty()) break;
    const std::vector<serve::Fix> fixes = imu.update_sessions(sessions, segments);
    ASSERT_EQ(fixes.size(), expected.size());
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      EXPECT_TRUE(fixes[i] == expected[i]) << "round " << round << " track " << i;
    }
  }
  for (std::size_t p = 0; p < num_tracks; ++p) {
    EXPECT_EQ(batched[p].segments_consumed(), serial[p].segments_consumed());
    EXPECT_EQ(batched[p].displacement().x, serial[p].displacement().x);
    EXPECT_EQ(batched[p].displacement().y, serial[p].displacement().y);
  }
}

// Engine-level: 8 producer threads pipeline updates into 8 sessions with a
// single worker (tokens pile up, so pops carry several sessions and the
// coalesced drain actually batches across tracks). Every fix must match a
// direct TrackingSession replay — which simultaneously proves per-session
// FIFO: any reordering within a track would change its running sum and the
// fixes after it.
TEST(SessionCoalescing, PipelinedEngineMatchesDirectTrackingAcross8Threads) {
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);

  const std::size_t num_tracks = std::min<std::size_t>(f.imu_exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 8u);
  EngineConfig cfg;
  cfg.workers = 1;  // force token pile-up => cross-session batches
  // The tracks overlap in time only if the producers do: on a slow run
  // (sanitizers, a loaded host) staggered producers can each be drained
  // dry before the next one submits, leaving nothing to coalesce. The
  // start barrier below plus a window that holds the first pop open until
  // every track's token is in (max_batch == tracks) make the overlap
  // certain instead of likely.
  cfg.max_batch = num_tracks;
  cfg.max_wait_us = 50000;
  cfg.queue_cap = 1024;
  cfg.session_backlog = 256;
  ASSERT_TRUE(cfg.coalesce_sessions);  // the default under test
  Engine engine(wifi, imu, cfg);
  ASSERT_TRUE(engine.has_imu());

  std::atomic<int> mismatches{0};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> producers;
  producers.reserve(num_tracks);
  for (std::size_t p = 0; p < num_tracks; ++p) {
    producers.emplace_back([&, p] {
      const auto& path = f.imu_exp.split.test.paths[p];
      const auto segments = segments_of(path, f.imu_tracker.segment_dim());
      serve::TrackingSession direct = imu.start_session(path.start);
      std::vector<serve::Fix> expected;
      expected.reserve(segments.size());
      for (const auto& segment : segments) expected.push_back(direct.update(segment));

      const auto session = engine.open_session(path.start);
      ready.fetch_add(1);
      while (ready.load() < num_tracks) std::this_thread::yield();
      ASSERT_TRUE(session.has_value());
      std::vector<std::future<serve::Fix>> fixes;
      fixes.reserve(segments.size());
      for (const auto& segment : segments) {
        Submission s = engine.track(*session, segment);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.track(*session, segment);
        }
        ASSERT_TRUE(s.accepted());
        fixes.push_back(std::move(s.result));
      }
      for (std::size_t i = 0; i < fixes.size(); ++i) {
        if (!(fixes[i].get() == expected[i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      EXPECT_TRUE(engine.close_session(*session));
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The coalesced path really ran: some IMU pass served more than one track
  // (imu_batches alone proves nothing — a track served alone counts too).
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.imu_batch_size.max_recorded(), 1.0);
}

// Scheduling modes agree: the same pipelined workload through a coalescing
// engine and a serialized-per-track engine yields identical fix streams.
TEST(SessionCoalescing, CoalescedAndSerializedEnginesProduceIdenticalFixes) {
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);

  const std::size_t num_tracks = std::min<std::size_t>(f.imu_exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 2u);

  const auto run_engine = [&](bool coalesce) {
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 16;
    cfg.queue_cap = 1024;
    cfg.session_backlog = 256;
    cfg.coalesce_sessions = coalesce;
    Engine engine(wifi, imu, cfg);
    std::vector<std::vector<std::future<serve::Fix>>> futures(num_tracks);
    std::vector<std::optional<SessionId>> ids(num_tracks);
    for (std::size_t p = 0; p < num_tracks; ++p) {
      ids[p] = engine.open_session(f.imu_exp.split.test.paths[p].start);
    }
    // Round-robin pipelined submission: interleaves tracks so both modes
    // see multi-session batches in flight.
    for (std::size_t round = 0;; ++round) {
      bool any = false;
      for (std::size_t p = 0; p < num_tracks; ++p) {
        const auto segments =
            segments_of(f.imu_exp.split.test.paths[p], f.imu_tracker.segment_dim());
        if (round >= segments.size()) continue;
        any = true;
        Submission s = engine.track(*ids[p], segments[round]);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.track(*ids[p], segments[round]);
        }
        futures[p].push_back(std::move(s.result));
      }
      if (!any) break;
    }
    std::vector<std::vector<serve::Fix>> fixes(num_tracks);
    for (std::size_t p = 0; p < num_tracks; ++p) {
      for (auto& future : futures[p]) fixes[p].push_back(future.get());
    }
    return fixes;
  };

  const auto coalesced = run_engine(true);
  const auto serialized = run_engine(false);
  ASSERT_EQ(coalesced.size(), serialized.size());
  for (std::size_t p = 0; p < num_tracks; ++p) {
    ASSERT_EQ(coalesced[p].size(), serialized[p].size());
    for (std::size_t i = 0; i < coalesced[p].size(); ++i) {
      EXPECT_TRUE(coalesced[p][i] == serialized[p][i]) << "track " << p << " fix " << i;
    }
  }
}

// IMU accounting: every served session update is counted in exactly one
// IMU pass — a track served alone as much as one sharing a coalesced round,
// with coalescing on or off — so the imu_batch_size widths sum to the
// updates completed and each imu_batch records exactly one width. Wi-Fi
// scans interleaved with the tracks keep the same invariant on their own
// counters (they complete through the same routine).
void expect_every_update_in_one_imu_pass(std::size_t num_tracks, bool coalesce) {
  SCOPED_TRACE(::testing::Message() << num_tracks << " track(s), coalesce "
                                    << (coalesce ? "on" : "off"));
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);
  ASSERT_GE(f.imu_exp.split.test.size(), num_tracks);
  ASSERT_FALSE(f.wifi_exp.split.test.samples.empty());

  EngineConfig cfg;
  cfg.workers = 1;  // tokens pile up, so coalesced pops carry several tracks
  cfg.max_batch = 16;
  cfg.queue_cap = 1024;
  cfg.session_backlog = 256;
  cfg.coalesce_sessions = coalesce;
  Engine engine(wifi, imu, cfg);

  std::vector<SessionId> ids;
  std::vector<std::vector<serve::ImuSegment>> tracks;
  std::size_t rounds = 0;
  for (std::size_t p = 0; p < num_tracks; ++p) {
    const auto& path = f.imu_exp.split.test.paths[p];
    const auto session = engine.open_session(path.start);
    ASSERT_TRUE(session.has_value());
    ids.push_back(*session);
    tracks.push_back(segments_of(path, f.imu_tracker.segment_dim()));
    rounds = std::max(rounds, tracks.back().size());
  }
  ASSERT_GT(rounds, 0u);

  // Pipelined round-robin submission with a Wi-Fi scan after every round.
  // A lone track awaits each fix, so every update is its own pop and its
  // own pass.
  std::vector<std::future<serve::Fix>> updates;
  std::vector<std::future<serve::Fix>> scans;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t p = 0; p < num_tracks; ++p) {
      if (round >= tracks[p].size()) continue;
      Submission s = engine.track(ids[p], tracks[p][round]);
      ASSERT_TRUE(s.accepted());
      if (num_tracks == 1) {
        (void)s.result.get();
      } else {
        updates.push_back(std::move(s.result));
      }
    }
    const auto& samples = f.wifi_exp.split.test.samples;
    Submission scan = engine.submit(samples[round % samples.size()].rssi);
    ASSERT_TRUE(scan.accepted());
    scans.push_back(std::move(scan.result));
  }
  for (auto& future : updates) (void)future.get();
  for (auto& future : scans) (void)future.get();

  std::uint64_t served_updates = 0;
  for (const auto& track : tracks) served_updates += track.size();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, served_updates + scans.size());
  EXPECT_GT(stats.imu_batches, 0u);
  EXPECT_EQ(stats.imu_batches, stats.imu_batch_size.count());
  EXPECT_EQ(stats.imu_batch_size.sum_recorded(), static_cast<double>(served_updates));
  EXPECT_EQ(stats.batches, stats.batch_size.count());
  EXPECT_EQ(stats.batch_size.sum_recorded(), static_cast<double>(scans.size()));
  EXPECT_EQ(stats.queue_wait_us.count(), stats.completed);
  EXPECT_EQ(stats.assembly_us.count(), stats.batches + stats.imu_batches);
  if (!coalesce) {
    // Serialized: each token drains its own track alone, one update a pass.
    EXPECT_EQ(stats.imu_batch_size.max_recorded(), 1.0);
    EXPECT_EQ(stats.imu_batches, served_updates);
  }
}

TEST(SessionAccounting, LoneSessionUpdatesEachCountInOneImuPass) {
  expect_every_update_in_one_imu_pass(1, /*coalesce=*/true);
  expect_every_update_in_one_imu_pass(1, /*coalesce=*/false);
}

TEST(SessionAccounting, SeveralSessionUpdatesEachCountInOneImuPass) {
  expect_every_update_in_one_imu_pass(8, /*coalesce=*/true);
  expect_every_update_in_one_imu_pass(8, /*coalesce=*/false);
}

// Bounded session drain: a worker serving a track hands it back to the
// shared queue between rounds whenever other work waits there, so a Wi-Fi
// scan submitted while one worker drains a continuously fed track resolves
// while the track is still being fed. An unbounded drain would serve the
// track until its FIFO ran dry, which only happens once the producers stop
// at their safety cap — the cap bounds the test's runtime, not the scan's
// latency.
TEST(SessionDrain, ScanSubmittedMidDrainResolvesWhileTheTrackIsStillFed) {
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);
  ASSERT_FALSE(f.imu_exp.split.test.paths.empty());
  ASSERT_FALSE(f.wifi_exp.split.test.samples.empty());

  EngineConfig cfg;
  cfg.workers = 1;  // the draining worker is the only one that can serve the scan
  // A deep FIFO rides out producer preemptions: it only runs dry if both
  // producers stall for thousands of rounds.
  cfg.session_backlog = 4096;
  Engine engine(wifi, imu, cfg);
  const auto& path = f.imu_exp.split.test.paths[0];
  const auto session = engine.open_session(path.start);
  ASSERT_TRUE(session.has_value());
  const std::vector<serve::ImuSegment> segments =
      segments_of(path, f.imu_tracker.segment_dim());
  ASSERT_FALSE(segments.empty());

  // Two producers keep the track's FIFO topped up (results are not awaited)
  // until told to stop or until their safety cap runs out. One producer
  // barely keeps pace with the worker's rounds; two outpace it, so the FIFO
  // never runs dry on its own.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> fed{0};
  std::atomic<bool> hit_cap{false};
  const auto cap = Clock::now() + std::chrono::seconds(20);
  const auto produce = [&] {
    std::size_t next = 0;
    while (!stop.load()) {
      if (Clock::now() >= cap) {
        hit_cap.store(true);
        return;
      }
      if (engine.track(*session, segments[next % segments.size()]).accepted()) {
        ++next;
        fed.fetch_add(1);
      } else {
        std::this_thread::yield();  // FIFO full: the drain is behind
      }
    }
  };
  std::thread producer_a(produce);
  std::thread producer_b(produce);
  // The worker is mid-drain on this track once the FIFO is well stocked.
  while (fed.load() < cfg.session_backlog && !hit_cap.load()) {
    std::this_thread::yield();
  }
  const serve::RssiVector& rssi = f.wifi_exp.split.test.samples[0].rssi;
  Submission scan = engine.submit(rssi);
  const bool resolved =
      scan.accepted() &&
      scan.result.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  stop.store(true);
  producer_a.join();
  producer_b.join();
  EXPECT_TRUE(scan.accepted());
  EXPECT_TRUE(resolved);
  EXPECT_FALSE(hit_cap.load()) << "the scan waited until the producers stopped feeding";
  if (resolved) {
    EXPECT_TRUE(scan.result.get() == wifi.locate(rssi));
  }
}

}  // namespace
}  // namespace noble::engine
