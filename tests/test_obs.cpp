// Tests for noble::obs — metrics registry, exposition codecs, trace ring,
// deterministic sampling, and the stage-clock invariants. Carries the
// `concurrency` CTest label: several tests hammer instruments from real
// threads so the TSan job exercises the striped/sharded/seqlock paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace noble::obs {
namespace {

// --- Counter / HistogramMetric primitives ----------------------------

TEST(ObsCounter, StripedIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, SubFromDifferentThreadStaysExact) {
  // The admission-rollback pattern: one thread admits (inc), another rolls
  // back (sub). Individual stripes may wrap below zero; the folded sum is
  // exact mod 2^64, which for a balanced workload means exact, period.
  Counter c;
  constexpr std::uint64_t kOps = 50000;
  std::thread adder([&c] {
    for (std::uint64_t i = 0; i < kOps; ++i) c.inc(2);
  });
  std::thread subber([&c] {
    for (std::uint64_t i = 0; i < kOps; ++i) c.sub(1);
  });
  adder.join();
  subber.join();
  EXPECT_EQ(c.value(), kOps);
}

TEST(ObsHistogramMetric, ConcurrentRecordsAllLand) {
  HistogramMetric h(Histogram::latency_us());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(0x700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) h.record(rng.uniform(10.0, 5000.0));
    });
  }
  for (auto& th : threads) th.join();
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(snap.min_recorded(), 10.0);
  EXPECT_LE(snap.max_recorded(), 5000.0);
}

// --- Histogram from_parts / subtract -----------------------------------------

TEST(ObsHistogram, FromPartsRoundTripsThroughAccessors) {
  Histogram h = Histogram::latency_us();
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0.5, 2e7));  // spills both tails
  std::vector<std::uint64_t> counts;
  counts.push_back(h.underflow_count());
  for (std::size_t i = 0; i < h.num_bins(); ++i) counts.push_back(h.bin_count(i));
  counts.push_back(h.overflow_count());
  const Histogram rebuilt = Histogram::from_parts(
      h.lower_bound(), h.upper_bound(), h.num_bins(), std::move(counts), h.count(),
      h.sum_recorded(), h.min_recorded(), h.max_recorded());
  EXPECT_TRUE(rebuilt.same_layout(h));
  EXPECT_EQ(rebuilt.count(), h.count());
  EXPECT_DOUBLE_EQ(rebuilt.sum_recorded(), h.sum_recorded());
  EXPECT_DOUBLE_EQ(rebuilt.percentile(50.0), h.percentile(50.0));
  EXPECT_DOUBLE_EQ(rebuilt.percentile(99.0), h.percentile(99.0));
}

TEST(ObsHistogram, SubtractYieldsWindowDelta) {
  // The bench pattern: snapshot a growing histogram twice, subtract, and the
  // delta describes only the observations in between.
  Histogram h = Histogram::latency_us();
  for (int i = 0; i < 100; ++i) h.record(100.0);
  const Histogram before = h;
  for (int i = 0; i < 300; ++i) h.record(4000.0);
  Histogram delta = h;
  delta.subtract(before);
  EXPECT_EQ(delta.count(), 300u);
  EXPECT_DOUBLE_EQ(delta.sum_recorded(), 300 * 4000.0);
  // All delta mass sits near 4000us; p50 must land in that bin's range, far
  // from the 100us mass that was subtracted out.
  EXPECT_GT(delta.percentile(50.0), 1000.0);
}

TEST(ObsHistogram, SubtractToEmptyResets) {
  Histogram h = Histogram::latency_us();
  h.record(50.0);
  h.record(200.0);
  Histogram delta = h;
  delta.subtract(h);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_DOUBLE_EQ(delta.sum_recorded(), 0.0);
  EXPECT_DOUBLE_EQ(delta.percentile(50.0), 0.0);
}

// --- Registry ----------------------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("noble_test_total");
  Counter& b = reg.counter("noble_test_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = reg.counter("noble_test_total", {{"shard", "A"}});
  EXPECT_NE(&a, &labeled);
  a.inc(3);
  labeled.inc(5);
  const MetricsSnapshot snap = reg.collect();
  const MetricSample* bare = snap.find("noble_test_total", {});
  const MetricSample* with = snap.find("noble_test_total", {{"shard", "A"}});
  ASSERT_NE(bare, nullptr);
  ASSERT_NE(with, nullptr);
  EXPECT_EQ(bare->counter_value, 3u);
  EXPECT_EQ(with->counter_value, 5u);
}

TEST(ObsRegistry, CollectDuringConcurrentIncrements) {
  // The scrape path must be safe (and monotone for counters) while worker
  // threads are mid-increment. Collected counter values may lag but never
  // tear or go backwards across successive collects.
  Registry reg;
  Counter& hits = reg.counter("noble_hits");
  HistogramMetric& lat = reg.histogram("noble_lat_us", Histogram::latency_us());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&hits, &lat, &stop, t] {
      Rng rng(0x900 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        hits.inc();
        lat.record(rng.uniform(1.0, 1e4));
      }
    });
  }
  std::uint64_t last_hits = 0;
  std::uint64_t last_lat = 0;
  // At least 200 collects, then keep collecting (bounded) until the writers
  // have visibly run — on a loaded machine thread startup can lag behind a
  // tight collect loop.
  for (int i = 0; i < 200 || last_hits == 0; ++i) {
    ASSERT_LT(i, 2000000) << "writer threads never ran";
    const MetricsSnapshot snap = reg.collect();
    const MetricSample* h = snap.find("noble_hits");
    const MetricSample* l = snap.find("noble_lat_us");
    ASSERT_NE(h, nullptr);
    ASSERT_NE(l, nullptr);
    ASSERT_TRUE(l->hist.has_value());
    EXPECT_GE(h->counter_value, last_hits);
    EXPECT_GE(l->hist->count(), last_lat);
    last_hits = h->counter_value;
    last_lat = l->hist->count();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  EXPECT_GT(last_hits, 0u);
}

// --- Exposition: Prometheus text ---------------------------------------------

TEST(ObsRender, PrometheusLineShapes) {
  MetricsSnapshot snap;
  snap.counter("noble_requests", 42);
  snap.gauge("noble_p50_us", 123.456);
  snap.gauge_int("noble_queue_depth", 7);
  snap.counter("noble_depth", 3, {{"shard", "bldg-A"}, {"engine", "0"}});
  const std::string page = render_prometheus(snap);
  EXPECT_NE(page.find("noble_requests 42\n"), std::string::npos);
  EXPECT_NE(page.find("noble_p50_us 123.5\n"), std::string::npos);  // %.1f
  EXPECT_NE(page.find("noble_queue_depth 7\n"), std::string::npos);  // bare int
  EXPECT_NE(page.find("noble_depth{shard=\"bldg-A\",engine=\"0\"} 3\n"),
            std::string::npos);
}

TEST(ObsRender, PrometheusHistogramQuantiles) {
  Histogram h = Histogram::latency_us();
  for (int i = 0; i < 100; ++i) h.record(200.0);
  MetricsSnapshot snap;
  snap.histogram("noble_stage_latency_us", h, {{"stage", "compute"}});
  const std::string page = render_prometheus(snap);
  EXPECT_NE(page.find("noble_stage_latency_us{stage=\"compute\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us{stage=\"compute\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us_sum{stage=\"compute\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us_count{stage=\"compute\"} 100\n"),
            std::string::npos);
}

// --- Exposition: binary snapshot codec ---------------------------------------

TEST(ObsCodec, SnapshotRoundTripPreservesEverySample) {
  Histogram h = Histogram::latency_us();
  Rng rng(97);
  for (int i = 0; i < 500; ++i) h.record(rng.uniform(2.0, 1e6));
  MetricsSnapshot snap;
  snap.counter("noble_total", 99, {{"cls", "interactive"}});
  snap.gauge("noble_level", -2.25);
  snap.gauge_int("noble_depth", 11);
  snap.histogram("noble_lat_us", h);
  const std::string bytes = encode_snapshot(snap);
  const std::optional<MetricsSnapshot> decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->samples.size(), snap.samples.size());
  const MetricSample* c = decoded->find("noble_total", {{"cls", "interactive"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter_value, 99u);
  const MetricSample* g = decoded->find("noble_level");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge_value, -2.25);
  EXPECT_FALSE(g->integer_gauge);
  const MetricSample* d = decoded->find("noble_depth");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->integer_gauge);
  const MetricSample* hs = decoded->find("noble_lat_us");
  ASSERT_NE(hs, nullptr);
  ASSERT_TRUE(hs->hist.has_value());
  EXPECT_TRUE(hs->hist->same_layout(h));
  EXPECT_EQ(hs->hist->count(), h.count());
  EXPECT_DOUBLE_EQ(hs->hist->sum_recorded(), h.sum_recorded());
  EXPECT_DOUBLE_EQ(hs->hist->percentile(50.0), h.percentile(50.0));
  EXPECT_DOUBLE_EQ(hs->hist->min_recorded(), h.min_recorded());
  EXPECT_DOUBLE_EQ(hs->hist->max_recorded(), h.max_recorded());
  // Binary and text expositions describe the same snapshot.
  EXPECT_EQ(render_prometheus(*decoded), render_prometheus(snap));
}

TEST(ObsCodec, DecodeRejectsGarbage) {
  MetricsSnapshot snap;
  snap.counter("noble_x", 1);
  const std::string bytes = encode_snapshot(snap);
  EXPECT_FALSE(decode_snapshot("").has_value());
  EXPECT_FALSE(decode_snapshot("not a snapshot").has_value());
  // Every truncation point must fail cleanly, never crash or misparse.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_snapshot(std::string_view(bytes).substr(0, cut)).has_value())
        << "truncation at " << cut << " decoded";
  }
  // Trailing bytes are rejected too (exhausted() contract).
  EXPECT_FALSE(decode_snapshot(bytes + "x").has_value());
  // Corrupt magic.
  std::string bad = bytes;
  bad[0] ^= 0x5a;
  EXPECT_FALSE(decode_snapshot(bad).has_value());
}

// --- TraceRing ---------------------------------------------------------------

TEST(ObsTraceRing, WraparoundKeepsLatestRecords) {
  TraceRing ring(64);
  ASSERT_EQ(ring.capacity(), 64u);
  const std::uint64_t total = 3 * ring.capacity();
  for (std::uint64_t i = 1; i <= total; ++i) {
    TraceRecord rec;
    rec.id = i;
    rec.marks_ns[0] = i * 10;
    ring.push(rec);
  }
  const std::vector<TraceRecord> snap = ring.snapshot();
  EXPECT_EQ(snap.size(), ring.capacity());
  // Single-writer pushes never race a slot claim: the survivors are exactly
  // the last `capacity` ids, payload intact.
  std::set<std::uint64_t> ids;
  for (const TraceRecord& rec : snap) {
    ids.insert(rec.id);
    EXPECT_GT(rec.id, total - ring.capacity());
    EXPECT_EQ(rec.marks_ns[0], rec.id * 10);
  }
  EXPECT_EQ(ids.size(), ring.capacity());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 1u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(ObsTraceRing, ConcurrentPushersNeverTearRecords) {
  TraceRing ring(32);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceRecord rec;
        rec.id = static_cast<std::uint64_t>(t) * kPerThread + i + 1;
        for (std::size_t m = 0; m < kNumMarks; ++m) {
          rec.marks_ns[m] = rec.id * 100 + m;
        }
        ring.push(rec);
      }
    });
  }
  // A reader snapshots continuously while writers wrap the ring many times
  // over; every observed record must be internally consistent.
  for (int i = 0; i < 300; ++i) {
    for (const TraceRecord& rec : ring.snapshot()) {
      for (std::size_t m = 0; m < kNumMarks; ++m) {
        ASSERT_EQ(rec.marks_ns[m], rec.id * 100 + m) << "torn record observed";
      }
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

// --- Sampling determinism ----------------------------------------------------

TEST(ObsSampler, DecideIsPureAndSeedSensitive) {
  // Same (seed, n, rate) -> same decision, always.
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed = rng.next_u64();
    const std::uint64_t n = rng.next_u64() % 100000;
    const double rate = rng.uniform();
    EXPECT_EQ(TraceSampler::decide(seed, n, rate), TraceSampler::decide(seed, n, rate));
  }
  EXPECT_TRUE(TraceSampler::decide(1, 0, 1.0));
  EXPECT_FALSE(TraceSampler::decide(1, 0, 0.0));
}

TEST(ObsSampler, EmpiricalRateTracksConfiguredRate) {
  Rng rng(7);
  for (const double rate : {0.01, 0.1, 0.5}) {
    const std::uint64_t seed = rng.next_u64();
    std::uint64_t kept = 0;
    constexpr std::uint64_t kN = 100000;
    for (std::uint64_t n = 0; n < kN; ++n) {
      if (TraceSampler::decide(seed, n, rate)) ++kept;
    }
    const double empirical = static_cast<double>(kept) / kN;
    EXPECT_NEAR(empirical, rate, 5.0 * std::sqrt(rate * (1.0 - rate) / kN))
        << "rate " << rate;
  }
}

TEST(ObsSampler, ConfigureReplaysIdenticalSequence) {
  // configure() resets the sequence counter, so the same (seed, rate) must
  // replay bit-identical decisions — the property benches rely on when they
  // reconfigure between sweeps.
  TraceSampler sampler;
  sampler.configure(0xabcdef, 0.25);
  std::vector<bool> first;
  for (int i = 0; i < 1000; ++i) first.push_back(sampler.next());
  sampler.configure(0xabcdef, 0.25);
  std::vector<bool> second;
  for (int i = 0; i < 1000; ++i) second.push_back(sampler.next());
  EXPECT_EQ(first, second);
}

TEST(ObsTracer, SampledCountIsInterleavingIndependent) {
  // The number of sampled traces over N starts depends only on (seed, rate,
  // N) — not on which threads called start(). Run the same workload twice
  // with different thread counts and compare.
  auto run = [](int threads, std::uint64_t per_thread) {
    Registry reg;
    Tracer tracer(reg, 64);
    TraceConfig cfg;
    cfg.sample_rate = 0.2;
    cfg.seed = 12345;
    tracer.configure(cfg);
    std::atomic<std::uint64_t> sampled{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&tracer, &sampled, per_thread] {
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          std::shared_ptr<Trace> trace = tracer.start(i);
          if (trace != nullptr && trace->sampled) {
            sampled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    return sampled.load();
  };
  EXPECT_EQ(run(1, 4000), run(4, 1000));
  EXPECT_EQ(run(2, 2000), run(4, 1000));
}

// --- Trace stage clock -------------------------------------------------------

Trace make_full_trace(Rng& rng, bool with_recv) {
  Trace trace;
  trace.id = rng.next_u64();
  std::uint64_t ns = 1 + rng.next_u64() % 1000000;
  for (std::size_t m = 0; m < kNumMarks; ++m) {
    if (m == static_cast<std::size_t>(Mark::kRecv) && !with_recv) continue;
    trace.stamp(static_cast<Mark>(m), ns);
    ns += 1 + rng.next_u64() % 500000;  // strictly increasing marks
  }
  return trace;
}

TEST(ObsTrace, StageSumTelescopesToEndToEnd) {
  // With every mark present the stage durations telescope: their sum IS the
  // e2e span, exactly. With kRecv absent (in-process submission) the decode
  // stage is undefined and the remaining stages still telescope to e2e.
  Rng rng(314);
  for (int trial = 0; trial < 100; ++trial) {
    for (const bool with_recv : {true, false}) {
      const Trace trace = make_full_trace(rng, with_recv);
      double sum_us = 0.0;
      for (std::size_t s = 0; s < kNumStages; ++s) {
        const double us = trace.stage_us(static_cast<Stage>(s));
        if (s == static_cast<std::size_t>(Stage::kDecode) && !with_recv) {
          EXPECT_LT(us, 0.0);
          continue;
        }
        ASSERT_GE(us, 0.0);
        sum_us += us;
      }
      const double e2e = trace.e2e_us();
      ASSERT_GT(e2e, 0.0);
      EXPECT_NEAR(sum_us, e2e, 1e-6 * e2e + 1e-9);
    }
  }
}

TEST(ObsTrace, UnreachedMarksYieldNegativeStages) {
  Trace trace;
  trace.stamp(Mark::kSubmit, 1000);
  trace.stamp(Mark::kAdmitted, 2000);
  EXPECT_DOUBLE_EQ(trace.stage_us(Stage::kAdmission), 1.0);
  EXPECT_LT(trace.stage_us(Stage::kQueueWait), 0.0);   // no kDequeued
  EXPECT_LT(trace.stage_us(Stage::kCompute), 0.0);
  EXPECT_LT(trace.e2e_us(), 0.0);                      // no kResponded
}

TEST(ObsTracer, FinishFeedsStageHistogramsAndRing) {
  Registry reg;
  Tracer tracer(reg, 64);
  TraceConfig cfg;
  cfg.sample_rate = 1.0;  // every trace rings
  tracer.configure(cfg);
  Rng rng(555);
  constexpr int kTraces = 50;
  for (int i = 0; i < kTraces; ++i) {
    Trace trace = make_full_trace(rng, true);
    trace.sampled = true;
    tracer.finish(trace);
  }
  const MetricsSnapshot snap = reg.collect();
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const MetricSample* sample = snap.find(
        "noble_stage_latency_us", {{"stage", stage_name(static_cast<Stage>(s))}});
    ASSERT_NE(sample, nullptr) << stage_name(static_cast<Stage>(s));
    ASSERT_TRUE(sample->hist.has_value());
    EXPECT_EQ(sample->hist->count(), static_cast<std::uint64_t>(kTraces));
  }
  const MetricSample* e2e = snap.find("noble_trace_e2e_us");
  ASSERT_NE(e2e, nullptr);
  ASSERT_TRUE(e2e->hist.has_value());
  EXPECT_EQ(e2e->hist->count(), static_cast<std::uint64_t>(kTraces));
  const MetricSample* finished = snap.find("noble_traces_finished");
  ASSERT_NE(finished, nullptr);
  EXPECT_EQ(finished->counter_value, static_cast<std::uint64_t>(kTraces));
  EXPECT_EQ(tracer.ring().snapshot().size(), static_cast<std::size_t>(kTraces));
}

TEST(ObsTracer, DisabledTracerAllocatesNothing) {
  Registry reg;
  Tracer tracer(reg);
  TraceConfig cfg;
  cfg.enabled = false;
  tracer.configure(cfg);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.start(1), nullptr);
}

TEST(ObsTracer, StageHistogramsOmitUnreachedStages) {
  // An in-process trace (no kRecv) must not contribute a bogus decode
  // sample; only stages with both endpoints stamped are recorded.
  Registry reg;
  Tracer tracer(reg, 16);
  tracer.configure(TraceConfig{});
  Rng rng(808);
  tracer.finish(make_full_trace(rng, /*with_recv=*/false));
  const MetricsSnapshot snap = reg.collect();
  const MetricSample* decode =
      snap.find("noble_stage_latency_us", {{"stage", "decode"}});
  ASSERT_NE(decode, nullptr);
  ASSERT_TRUE(decode->hist.has_value());
  EXPECT_EQ(decode->hist->count(), 0u);
  const MetricSample* compute =
      snap.find("noble_stage_latency_us", {{"stage", "compute"}});
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->hist->count(), 1u);
}

}  // namespace
}  // namespace noble::obs
