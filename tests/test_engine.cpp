// Engine tests: bounded-queue semantics (deterministic backpressure and
// batching), the scan pool's lock-free free list, the engine equivalence
// contract (batched output bit-identical to direct locate() under
// concurrency), session multiplexing, admission control under flood,
// telemetry, and graceful shutdown.
//
// The concurrency tests here carry the `concurrency` CTest label and run
// under -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/backend.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "engine/scan_pool.h"
#include "kernels/kernels.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue: the deterministic half of admission control.
// ---------------------------------------------------------------------------

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);
  EXPECT_EQ(queue.depth(), 2u);

  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(queue.try_push(4), PushResult::kOk);  // capacity freed
}

TEST(BoundedQueue, PopBatchHonorsMaxItems) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.try_push(i), PushResult::kOk);
  const auto first = queue.pop_batch(3, std::chrono::microseconds(0));
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2], 2);
  EXPECT_EQ(queue.depth(), 2u);
  const auto rest = queue.pop_batch(3, std::chrono::microseconds(0));
  EXPECT_EQ(rest.size(), 2u);
}

TEST(BoundedQueue, FullBatchReturnsWithoutWaitingOutTheWindow) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(queue.try_push(i), PushResult::kOk);
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = queue.pop_batch(4, std::chrono::seconds(30));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(elapsed, std::chrono::seconds(5));  // did not sit out the window
}

TEST(BoundedQueue, UnderfullBatchServedAfterWindowExpires) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(42), PushResult::kOk);
  const auto batch = queue.pop_batch(4, std::chrono::milliseconds(5));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 42);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  queue.close();
  EXPECT_EQ(queue.try_push(2), PushResult::kClosed);
  const auto drained = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(drained.size(), 1u);  // close() does not drop queued work
  EXPECT_TRUE(queue.pop_batch(8, std::chrono::microseconds(0)).empty());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    (void)queue.pop_batch(4, std::chrono::seconds(30));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

// Work-conserving batching: the window is held only while every other
// consumer is busy. Each test uses a 30 s window, so a return within a few
// seconds shows the window was cut short, not waited out. Every test closes
// the queue before its first get(), so a failing check never leaves a
// consumer blocked.

/// Spins until a consumer has taken every queued entry.
void await_taken(const BoundedQueue<int>& queue) {
  while (queue.depth() > 0) std::this_thread::yield();
}

std::future<std::vector<int>> start_consumer(BoundedQueue<int>& queue,
                                             std::size_t max_items) {
  return std::async(std::launch::async, [&queue, max_items] {
    return queue.pop_batch(max_items, std::chrono::seconds(30));
  });
}

TEST(WorkConservingBatching, LoneEntryDispatchesAtOnceBesideAnIdleConsumer) {
  BoundedQueue<int> queue(8);
  // Both consumers block idle before the entry arrives: the one that takes
  // it sees the other idle and dispatches without holding the window. (A
  // consumer that had not blocked yet would release the holder on arrival.)
  auto first = start_consumer(queue, 8);
  auto second = start_consumer(queue, 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.try_push(7), PushResult::kOk);
  const auto ready = [](std::future<std::vector<int>>& f) {
    return f.wait_for(std::chrono::milliseconds(1)) == std::future_status::ready;
  };
  while (!ready(first) && !ready(second) &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  queue.close();  // the consumer left idle returns empty
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  std::vector<int> taken = first.get();
  const std::vector<int> other = second.get();
  taken.insert(taken.end(), other.begin(), other.end());
  EXPECT_EQ(taken, std::vector<int>{7});
}

TEST(WorkConservingBatching, HolderIsReleasedWhenAnotherConsumerGoesIdle) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(7), PushResult::kOk);
  auto holder = start_consumer(queue, 8);
  await_taken(queue);  // the only consumer took the entry and holds its window
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool held = holder.wait_for(std::chrono::seconds(0)) == std::future_status::timeout;
  const auto t0 = std::chrono::steady_clock::now();
  auto idle = start_consumer(queue, 8);
  const bool released =
      holder.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  queue.close();
  EXPECT_TRUE(held);
  EXPECT_TRUE(released);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(holder.get(), std::vector<int>{7});
  EXPECT_TRUE(idle.get().empty());
}

TEST(WorkConservingBatching, SingleConsumerStillGathersAStraggler) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  auto holder = start_consumer(queue, 2);
  await_taken(queue);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);  // inside the held window
  const bool full = holder.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  queue.close();
  EXPECT_TRUE(full);
  EXPECT_EQ(holder.get(), (std::vector<int>{1, 2}));
}

TEST(WorkConservingBatching, CloseDuringAHeldWindowReturnsWhatWasTaken) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  auto holder = start_consumer(queue, 8);
  await_taken(queue);
  queue.close();
  ASSERT_EQ(holder.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(holder.get(), (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// ScanPool: the lock-free free list behind the engine's admission copies.
// ---------------------------------------------------------------------------

TEST(ScanPool, HandsOutEverySlotOnceThenReportsExhaustion) {
  ScanPool pool(3);
  std::vector<std::uint32_t> taken;
  for (int i = 0; i < 3; ++i) taken.push_back(pool.acquire());
  std::sort(taken.begin(), taken.end());
  EXPECT_EQ(taken, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(pool.acquire(), ScanPool::kNoSlot);
  // A returned slot comes back with its buffer, capacity and all: the next
  // owner's copy reuses the allocation instead of making one.
  pool.buffer(taken[1]).assign(16, -70.0f);
  const float* storage = pool.buffer(taken[1]).data();
  pool.release(taken[1]);
  const std::uint32_t again = pool.acquire();
  EXPECT_EQ(again, taken[1]);
  pool.buffer(again).assign(16, -80.0f);
  EXPECT_EQ(pool.buffer(again).data(), storage);
  EXPECT_EQ(pool.acquire(), ScanPool::kNoSlot);
}

TEST(ScanPool, ConcurrentOwnersNeverShareASlot) {
  // More owners than slots, so acquire races release and runs dry. Each
  // owner stamps its slot's buffer and checks the stamp survives until it
  // releases: a slot handed to two owners at once (an ABA-corrupted free
  // list) shows up as a double claim or a foreign stamp.
  constexpr std::size_t kSlots = 3;
  constexpr int kOwners = 4;
  constexpr int kRounds = 20000;
  ScanPool pool(kSlots);
  std::atomic<bool> claimed[kSlots] = {};
  std::atomic<int> violations{0};
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o] {
      const auto stamp = static_cast<float>(o);
      for (int r = 0; r < kRounds; ++r) {
        std::uint32_t slot = pool.acquire();
        while (slot == ScanPool::kNoSlot) {
          std::this_thread::yield();
          slot = pool.acquire();
        }
        if (claimed[slot].exchange(true)) violations.fetch_add(1);
        pool.buffer(slot).assign(4, stamp);
        if (r % 64 == 0) std::this_thread::yield();
        if (pool.buffer(slot) != std::vector<float>(4, stamp)) violations.fetch_add(1);
        claimed[slot].store(false);
        pool.release(slot);
      }
    });
  }
  for (auto& owner : owners) owner.join();
  EXPECT_EQ(violations.load(), 0);
  // Every slot made it back: the list is whole.
  std::vector<std::uint32_t> drained;
  for (std::uint32_t slot = pool.acquire(); slot != ScanPool::kNoSlot;
       slot = pool.acquire()) {
    drained.push_back(slot);
  }
  EXPECT_EQ(drained.size(), kSlots);
}

// ---------------------------------------------------------------------------
// Engine: shared small fixtures (mirrors test_serve_localizer's sizing).
// ---------------------------------------------------------------------------

struct EngineFixture {
  core::WifiExperiment exp;
  core::NobleWifiModel model;
};

const EngineFixture& engine_fixture() {
  static const EngineFixture* fixture = [] {
    core::WifiExperimentConfig cfg;
    cfg.total_samples = 1200;
    cfg.seed = 303;
    auto* f = new EngineFixture{core::make_uji_experiment(cfg), core::NobleWifiModel([] {
                                  core::NobleWifiConfig mc;
                                  mc.quantize.tau = 6.0;
                                  mc.quantize.coarse_l = 24.0;
                                  mc.epochs = 6;
                                  mc.hidden_units = 32;
                                  return mc;
                                }())};
    f->model.fit(f->exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::WifiLocalizer& reference_localizer() {
  static const serve::WifiLocalizer* localizer =
      new serve::WifiLocalizer(serve::WifiLocalizer::from_model(engine_fixture().model));
  return *localizer;
}

std::vector<serve::RssiVector> query_pool(std::size_t count) {
  const auto& f = engine_fixture();
  std::vector<serve::RssiVector> queries;
  for (std::size_t i = 0; i < count && i < f.exp.split.test.size(); ++i) {
    queries.push_back(f.exp.split.test.samples[i].rssi);
  }
  return queries;
}

bool fixes_identical(const serve::Fix& a, const serve::Fix& b) { return a == b; }

// The tentpole contract: for >= 1000 randomly timed concurrent requests,
// every future is bit-identical to a direct locate() on the same query, no
// matter how the batcher grouped them.
TEST(Engine, ConcurrentResultsBitIdenticalToDirectLocate) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(96);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  EngineConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 16;
  cfg.max_wait_us = 100;
  cfg.queue_cap = 4096;
  Engine engine(localizer, cfg);

  constexpr int kClients = 8;
  constexpr int kPerClient = 160;  // 8 * 160 = 1280 >= 1000 requests
  std::atomic<int> mismatches{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(1000 + c));
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      std::uniform_int_distribution<int> jitter_us(0, 200);
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = pick(rng);
        Submission submission = engine.submit(queries[q]);
        while (submission.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          submission = engine.submit(queries[q]);
        }
        ASSERT_TRUE(submission.accepted());
        const serve::Fix fix = submission.result.get();
        if (!fixes_identical(fix, expected[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
        // Randomly timed arrivals: sometimes bursty, sometimes spaced, so
        // the batcher sees every micro-batch size.
        if (r % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(jitter_us(rng)));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(accepted.load(), kClients * kPerClient);
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.batch_size.max_recorded(), 1.0);
  EXPECT_LE(stats.batch_size.max_recorded(), static_cast<double>(cfg.max_batch));
}

TEST(Engine, RejectsWrongDimensionWithoutQueueing) {
  Engine engine(reference_localizer());
  const Submission s = engine.submit(serve::RssiVector(3, 0.0f));
  EXPECT_EQ(s.status, SubmitStatus::kBadDimension);
  EXPECT_FALSE(s.result.valid());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(Engine, FloodAgainstTinyQueueDegradesPredictably) {
  // Admission control under overload: with a deliberately tiny queue and a
  // slow single worker, tight-loop submitters must see explicit kQueueFull
  // rejections — and every accepted future must still resolve correctly.
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(8);
  std::vector<serve::Fix> expected;
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  cfg.max_wait_us = 0;
  cfg.queue_cap = 4;
  Engine engine(localizer, cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 500;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<serve::Fix>>> inflight;
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = static_cast<std::size_t>(c + r) % queries.size();
        Submission s = engine.submit(queries[q]);
        if (s.accepted()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          inflight.emplace_back(q, std::move(s.result));
        } else {
          ASSERT_EQ(s.status, SubmitStatus::kQueueFull);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
        if (inflight.size() >= 64) {
          for (auto& [qi, fut] : inflight) {
            if (!fixes_identical(fut.get(), expected[qi])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
          inflight.clear();
        }
      }
      for (auto& [qi, fut] : inflight) {
        if (!fixes_identical(fut.get(), expected[qi])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(accepted.load() + rejected.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  // 4 tight-loop submitters against a 4-slot queue: overload is certain.
  EXPECT_GT(rejected.load(), 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, accepted.load());
}

TEST(Engine, ShutdownDrainsEveryAcceptedRequest) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(32);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  cfg.queue_cap = 1024;
  Engine engine(localizer, cfg);

  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> inflight;
  for (int r = 0; r < 128; ++r) {
    const std::size_t q = static_cast<std::size_t>(r) % queries.size();
    Submission s = engine.submit(queries[q]);
    if (s.accepted()) inflight.emplace_back(q, std::move(s.result));
  }
  engine.shutdown();

  // Every accepted future is fulfilled by the drain, none abandoned.
  for (auto& [q, fut] : inflight) {
    const serve::Fix fix = fut.get();
    EXPECT_TRUE(fixes_identical(fix, localizer.locate(queries[q])));
  }
  const Submission late = engine.submit(queries[0]);
  EXPECT_EQ(late.status, SubmitStatus::kStopped);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
}

TEST(Engine, StatsTelemetryIsCoherent) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait_us = 500;
  Engine engine(localizer, cfg);

  std::vector<std::future<serve::Fix>> futures;
  for (int r = 0; r < 40; ++r) {
    Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()]);
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  for (auto& f : futures) (void)f.get();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.batch_size.count(), stats.batches);
  EXPECT_EQ(stats.latency_us.count(), stats.completed);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_LE(stats.latency_p50_us, stats.latency_p95_us);
  EXPECT_LE(stats.latency_p95_us, stats.latency_p99_us);
  // Batches never exceed the configured cap.
  EXPECT_LE(stats.batch_size.max_recorded(), static_cast<double>(cfg.max_batch));
}

// ---------------------------------------------------------------------------
// IMU session registry.
// ---------------------------------------------------------------------------

struct ImuEngineFixture {
  core::ImuExperiment exp;
  core::NobleImuTracker tracker;
};

const ImuEngineFixture& imu_engine_fixture() {
  static const ImuEngineFixture* fixture = [] {
    core::ImuExperimentConfig cfg;
    cfg.num_paths = 400;
    cfg.total_walk_time_s = 1000.0;
    cfg.readings_per_segment = 8;
    cfg.imu.ref_interval_s = 15.0;
    cfg.seed = 304;
    auto* f = new ImuEngineFixture{core::make_imu_experiment(cfg), core::NobleImuTracker([] {
                                     core::NobleImuConfig mc;
                                     mc.quantize.tau = 2.0;
                                     mc.epochs = 6;
                                     mc.projection_dim = 6;
                                     return mc;
                                   }())};
    f->tracker.fit(f->exp.split.train);
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

TEST(EngineSessions, ConcurrentSessionsMatchDirectTrackingSessions) {
  const auto& wf = engine_fixture();
  const auto& imf = imu_engine_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wf.model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);

  EngineConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 8;
  cfg.queue_cap = 1024;
  Engine engine(wifi, imu, cfg);
  ASSERT_TRUE(engine.has_imu());

  const std::size_t num_tracks = std::min<std::size_t>(imf.exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 2u);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> tracks;
  for (std::size_t p = 0; p < num_tracks; ++p) {
    tracks.emplace_back([&, p] {
      const auto& path = imf.exp.split.test.paths[p];
      const auto segments = segments_of(path, imf.tracker.segment_dim());
      // Reference: a direct session on the same localizer replica family.
      serve::TrackingSession direct = imu.start_session(path.start);
      std::vector<serve::Fix> expected;
      expected.reserve(segments.size());
      for (const auto& segment : segments) expected.push_back(direct.update(segment));

      const auto session = engine.open_session(path.start);
      ASSERT_TRUE(session.has_value());
      // Pipelined submission: all segments in flight at once; the
      // per-session FIFO must still apply them strictly in order.
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
        if (!fixes_identical(fixes[i].get(), expected[i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      EXPECT_TRUE(engine.close_session(*session));
    });
  }
  for (auto& t : tracks) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The derived totals of stats() rely on its read order: histograms (whose
// counts are completed/batches/imu_batches) before the admission counters
// (whose sums are submitted/rejected). Poll it while four threads keep
// rejections, admission rollbacks, cache hits and interleaved session
// updates in flight against a tiny queue.
TEST(EngineStatsOrdering, DerivedTotalsStayCoherentUnderConcurrentTraffic) {
  const auto& wf = engine_fixture();
  const auto& imf = imu_engine_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wf.model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200;
  cfg.queue_cap = 4;
  cfg.session_backlog = 4;
  cfg.cache_capacity = 8;
  Engine engine(wifi, imu, cfg);
  const auto queries = query_pool(6);
  ASSERT_FALSE(queries.empty());
  constexpr int kThreads = 4;
  ASSERT_GE(imf.exp.split.test.size(), static_cast<std::size_t>(kThreads));

  std::atomic<std::uint64_t> attempts[kNumRequestClasses] = {0, 0};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& path = imf.exp.split.test.paths[static_cast<std::size_t>(t)];
      const auto segments = segments_of(path, imf.tracker.segment_dim());
      const std::optional<SessionId> session = engine.open_session(path.start);
      std::vector<std::future<serve::Fix>> inflight;
      for (std::size_t r = 0; r < 400; ++r) {
        const SubmitOptions options =
            (r + static_cast<std::size_t>(t)) % 2 == 0 ? SubmitOptions::interactive()
                                                       : SubmitOptions::bulk();
        attempts[request_class_index(options.request_class)].fetch_add(1);
        Submission s = r % 3 == 2 && session.has_value()
                           ? engine.track(*session, segments[r % segments.size()], options)
                           : engine.submit(queries[r % queries.size()], options);
        if (s.accepted()) inflight.push_back(std::move(s.result));
        if (inflight.size() >= 16) {
          for (auto& f : inflight) (void)f.get();
          inflight.clear();
        }
      }
      for (auto& f : inflight) (void)f.get();
      running.fetch_sub(1);
    });
  }

  // The first incoherent snapshot stops the polling; the threads always
  // run to completion and are joined before anything is asserted.
  std::size_t polls = 0;
  std::string incoherent;
  while (running.load() > 0 && incoherent.empty()) {
    const EngineStats stats = engine.stats();
    if (stats.completed > stats.submitted) incoherent = "completed > submitted";
    if (stats.batches != stats.batch_size.count()) incoherent = "batches";
    if (stats.imu_batches != stats.imu_batch_size.count()) incoherent = "imu_batches";
    ++polls;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(incoherent, "") << "at poll " << polls;
  EXPECT_GT(polls, 0u);

  const EngineStats stats = engine.stats();
  for (const RequestClass cls : {RequestClass::kInteractive, RequestClass::kBulk}) {
    const ClassStats& cs = stats.for_class(cls);
    EXPECT_EQ(cs.accepted + cs.rejected + cs.expired,
              attempts[request_class_index(cls)].load())
        << request_class_name(cls);
  }
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.rejected, 0u) << "the tiny queue never overflowed";
  EXPECT_GT(stats.cache_hits, 0u) << "no repeat scan hit the cache";
  EXPECT_GT(stats.imu_batches, 0u) << "no session update ran";
}

// ---------------------------------------------------------------------------
// Backends: replicas behind the WifiBackend seam.
// ---------------------------------------------------------------------------

TEST(EngineBackends, CloneAnswersBitIdenticallyToOriginal) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  ASSERT_FALSE(queries.empty());
  for (const BackendKind kind : {BackendKind::kDense, BackendKind::kQuantized}) {
    const std::unique_ptr<WifiBackend> original = make_backend(kind, localizer);
    const std::unique_ptr<WifiBackend> clone = original->clone();
    EXPECT_EQ(original->input_dim(), localizer.num_aps());
    EXPECT_EQ(clone->name(), original->name());
    const auto a = original->locate_batch(queries);
    const auto b = clone->locate_batch(queries);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(fixes_identical(a[i], b[i])) << backend_kind_name(kind) << " query " << i;
    }
  }
}

// Satellite of the PR 6 kernel refactor: clone() must share one immutable
// pre-packed plan — two shared_ptr copies, never a re-pack or
// re-quantization. Checked two ways: the kernels::pack_operations() counter
// stays flat across clones, and clone/original plan pointers compare equal.
TEST(EngineBackends, ClonesShareOnePackedPlanWithoutRequantizing) {
  const auto& localizer = reference_localizer();
  const DenseBackend dense(localizer);
  const QuantizedBackend quantized(localizer);

  const std::uint64_t packs_before = kernels::pack_operations();
  const std::unique_ptr<WifiBackend> dense_clone = dense.clone();
  const std::unique_ptr<WifiBackend> quant_clone = quantized.clone();
  EXPECT_EQ(kernels::pack_operations(), packs_before)
      << "clone() packed or re-quantized weights";

  const auto* dense_clone_typed = dynamic_cast<const DenseBackend*>(dense_clone.get());
  ASSERT_NE(dense_clone_typed, nullptr);
  EXPECT_EQ(dense_clone_typed->plan().get(), dense.plan().get());

  const auto* quant_clone_typed =
      dynamic_cast<const QuantizedBackend*>(quant_clone.get());
  ASSERT_NE(quant_clone_typed, nullptr);
  EXPECT_EQ(quant_clone_typed->plan().get(), quantized.plan().get());
  EXPECT_EQ(quant_clone_typed->quantized_parameter_bytes(),
            quantized.quantized_parameter_bytes());
}

// The quantized replica under the same harness as the dense one: engine
// output must be bit-identical to *direct* quantized inference, however the
// batcher grouped the requests (per-row activation scales make the int8
// forward batch-invariant).
TEST(EngineBackends, QuantizedEngineBitIdenticalToDirectQuantized) {
  const auto& localizer = reference_localizer();
  const QuantizedBackend reference(localizer);
  const auto queries = query_pool(64);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) {
    expected.push_back(reference.locate_batch(std::span(&q, 1)).front());
  }

  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 16;
  cfg.max_wait_us = 100;
  cfg.queue_cap = 4096;
  cfg.backend = BackendKind::kQuantized;
  Engine engine(localizer, cfg);
  EXPECT_EQ(engine.backend_name(), "quantized");

  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(7000 + c));
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = pick(rng);
        Submission s = engine.submit(queries[q]);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.submit(queries[q]);
        }
        ASSERT_TRUE(s.accepted());
        if (!fixes_identical(s.result.get(), expected[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineBackends, QuantizedDecodesTrackTheDenseModel) {
  // Not bit-identity (int8 is lossy vs float32) but sanity: the quantized
  // path must still be the same model, so decoded classes should mostly
  // agree and confidences stay valid probabilities.
  const auto& localizer = reference_localizer();
  const QuantizedBackend quantized(localizer);
  EXPECT_GT(quantized.quantized_parameter_bytes(), 0u);
  EXPECT_LT(quantized.quantized_parameter_bytes(),
            localizer.model().parameter_bytes());
  const auto queries = query_pool(64);
  ASSERT_FALSE(queries.empty());
  const auto dense_fixes = localizer.locate_batch(queries);
  const auto quant_fixes = quantized.locate_batch(queries);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GT(quant_fixes[i].confidence, 0.0);
    EXPECT_LT(quant_fixes[i].confidence, 1.0);
    if (quant_fixes[i].fine_class == dense_fixes[i].fine_class) ++agree;
  }
  // int8 with per-channel scales is a mild perturbation of small tanh nets;
  // a majority-agreement floor keeps the test robust to substrate noise.
  EXPECT_GE(agree * 2, queries.size());
}

// ---------------------------------------------------------------------------
// Fingerprint cache at admission control.
// ---------------------------------------------------------------------------

TEST(EngineCache, HitIsBitIdenticalAndSkipsTheQueue) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(4);
  ASSERT_FALSE(queries.empty());
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;
  cfg.cache_capacity = 64;
  Engine engine(localizer, cfg);

  Submission first = engine.submit(queries[0]);
  ASSERT_TRUE(first.accepted());
  const serve::Fix computed = first.result.get();

  Submission second = engine.submit(queries[0]);
  ASSERT_TRUE(second.accepted());
  const serve::Fix cached = second.result.get();
  EXPECT_TRUE(fixes_identical(cached, computed));
  EXPECT_TRUE(fixes_identical(cached, localizer.locate(queries[0])));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.latency_us.count(), 2u);
  // The hit never entered the queue: only the miss formed a micro-batch.
  EXPECT_EQ(stats.batches, 1u);
}

TEST(EngineCache, QuantizedKeyCollisionsNeverAlias) {
  // Two scans that share a quantized hash key (every reading rounds to the
  // same dB step) but differ in exact floats must never cross-hit: equality
  // is exact, so the second scan misses and computes its own fix. This is
  // the collision guard that keeps bit-identity true with the cache on.
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  serve::RssiVector scan_a = queries[0];
  serve::RssiVector scan_b = scan_a;
  scan_b[0] += 0.25f;  // same llround(v * 1.0) bucket, different scan
  ASSERT_NE(scan_a, scan_b);

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_wait_us = 0;
  cfg.cache_capacity = 64;
  cfg.cache_key_step_db = 1.0;
  Engine engine(localizer, cfg);

  Submission a = engine.submit(scan_a);
  ASSERT_TRUE(a.accepted());
  const serve::Fix fix_a = a.result.get();
  Submission b = engine.submit(scan_b);
  ASSERT_TRUE(b.accepted());
  const serve::Fix fix_b = b.result.get();

  EXPECT_TRUE(fixes_identical(fix_a, localizer.locate(scan_a)));
  EXPECT_TRUE(fixes_identical(fix_b, localizer.locate(scan_b)));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 0u);  // the collision was not a hit
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_entries, 2u);
}

TEST(EngineCache, EvictionBoundsResidencyAndKeepsCorrectness) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  ASSERT_GE(queries.size(), 16u);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_wait_us = 0;
  cfg.cache_capacity = 4;
  cfg.cache_shards = 1;  // single shard makes the LRU order deterministic
  Engine engine(localizer, cfg);

  for (const auto& q : queries) {
    Submission s = engine.submit(q);
    ASSERT_TRUE(s.accepted());
    (void)s.result.get();
  }
  EngineStats stats = engine.stats();
  EXPECT_LE(stats.cache_entries, 4u);
  EXPECT_EQ(stats.cache_evictions, queries.size() - 4);

  // The most recent scan is resident; the first was evicted — both still
  // answer bit-identically to direct locate().
  Submission resident = engine.submit(queries.back());
  ASSERT_TRUE(resident.accepted());
  EXPECT_TRUE(fixes_identical(resident.result.get(), localizer.locate(queries.back())));
  Submission evicted = engine.submit(queries.front());
  ASSERT_TRUE(evicted.accepted());
  EXPECT_TRUE(fixes_identical(evicted.result.get(), localizer.locate(queries.front())));
  stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);  // only the resident re-submission hit
}

TEST(EngineSessions, RegistryRejectsBadHandlesAndDimensions) {
  const auto& wf = engine_fixture();
  const auto& imf = imu_engine_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wf.model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);
  Engine engine(wifi, imu);

  // Unknown session id.
  EXPECT_EQ(engine.track(9999, serve::ImuSegment(imu.segment_dim(), 0.0f)).status,
            SubmitStatus::kNoSession);
  EXPECT_FALSE(engine.close_session(9999));

  const auto session = engine.open_session(imf.exp.split.test.paths[0].start);
  ASSERT_TRUE(session.has_value());
  // Wrong segment width.
  EXPECT_EQ(engine.track(*session, serve::ImuSegment(3, 0.0f)).status,
            SubmitStatus::kBadDimension);
  // Close, then the handle is dead.
  EXPECT_TRUE(engine.close_session(*session));
  EXPECT_EQ(engine.track(*session, serve::ImuSegment(imu.segment_dim(), 0.0f)).status,
            SubmitStatus::kNoSession);

  // Wi-Fi-only engines have no session registry.
  Engine wifi_only(wifi);
  EXPECT_FALSE(wifi_only.has_imu());
  EXPECT_FALSE(wifi_only.open_session(geo::Point2{0.0, 0.0}).has_value());
}

}  // namespace
}  // namespace noble::engine
