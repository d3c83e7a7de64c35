// servebench: the NObLe serving benchmark.
//
//   servebench train --out BUNDLE
//       Trains both models in this process and writes their artifact bytes
//       plus the held-out inputs to BUNDLE.
//   servebench serve --bundle BUNDLE --workload NAME --seed N --seconds S
//                    --trace 0|1 [--spans-out FILE]
//       Serves one workload from BUNDLE and prints its metrics; the last
//       stdout line is one JSON object. --trace 1 adds the layer walk and
//       prints the per-layer metrics instead of the end-to-end ones.
//
// run.py builds this binary, runs `train` and then `serve` as two
// processes, so nothing here measures training.
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bundle.h"
#include "common/config.h"
#include "common/hash.h"
#include "gateway/gateway.h"
#include "host.h"
#include "kernels/kernels.h"
#include "load.h"
#include "obs/trace.h"
#include "serve/artifact.h"
#include "spans.h"
#include "walk.h"

extern char** environ;

namespace servebench {
namespace {

using noble::serve::Fix;

constexpr double kWarmupS = 1.0;
constexpr std::size_t kSessions = 8;
constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kSlices = 10;
constexpr double kGuardPassS = 2.5;

/// A workload: its open-loop mix, whether it goes through a loopback
/// gateway, and the closed-loop bulk client's depth (0 = none).
struct Workload {
  const char* name;
  Mix mix;
  bool wire;
  std::size_t closed_inflight;
  std::size_t load_threads;
  std::size_t connections;
};

const Workload kWorkloads[] = {
    // Idle open loop in process: the batching window and thread wakes
    // dominate a fix; the kernels are a small share.
    {"idle_inproc", Mix{200.0, 0.0, 0.2, 0}, false, 0, 1, 0},
    // Loaded open loop through the gateway: framing and handler wakes
    // dominate, and partial batches form.
    {"wire_loaded", Mix{1500.0, 0.2, 0.2, 50'000}, true, 0, 2, 1},
    // Saturating closed-loop bulk beside an idle-rate prober: full 32-wide
    // batches, so the kernels, locate_batch and the completion path work.
    {"bulk_flood", Mix{200.0, 0.0, 0.2, 0}, false, 64, 2, 0},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The serving stack a workload runs against, built from artifact bytes.
struct Stack {
  std::optional<noble::serve::WifiLocalizer> wifi;
  std::optional<noble::serve::ImuLocalizer> imu;
  std::unique_ptr<noble::fleet::Router> router;
  std::unique_ptr<noble::gateway::Listener> listener;
};

/// Builds a stack from the bundle's artifact bytes: decode both models,
/// build the localizers (weight packing), register the shard and, on the
/// wire, start the listener. Timed in four spans under one `setup` span.
std::optional<Stack> build_stack(const Bundle& bundle, bool wire, SpanLog& spans,
                                 double& decode_ms, double& total_s) {
  std::string wifi_bytes = bundle.wifi_artifact;
  std::string imu_bytes = bundle.imu_artifact;
  Stack s;
  const std::uint64_t t0 = now_ns();
  auto wifi_model = noble::serve::decode_wifi_model(std::move(wifi_bytes));
  auto imu_model = noble::serve::decode_imu_model(std::move(imu_bytes));
  const std::uint64_t t1 = now_ns();
  if (!wifi_model || !imu_model) return std::nullopt;
  s.wifi.emplace(std::move(*wifi_model));
  s.imu.emplace(std::move(*imu_model));
  const std::uint64_t t2 = now_ns();
  s.router = std::make_unique<noble::fleet::Router>();
  noble::fleet::ShardConfig shard;
  shard.key = kShard;
  if (!s.router->add_shard(shard, *s.wifi, *s.imu)) return std::nullopt;
  const std::uint64_t t3 = now_ns();
  if (wire) {
    s.listener = std::make_unique<noble::gateway::Listener>(*s.router);
    if (!s.listener->start()) return std::nullopt;
  }
  const std::uint64_t t4 = now_ns();
  const std::int64_t root = spans.add("setup", t0, t4);
  spans.add("serve.decode_model", t0, t1, root);
  spans.add("serve.build_localizers", t1, t2, root);
  spans.add("fleet.add_shard", t2, t3, root);
  if (wire) spans.add("gateway.start", t3, t4, root);
  decode_ms = static_cast<double>(t1 - t0) / 1e6;
  total_s = static_cast<double>(t4 - t0) / 1e9;
  return s;
}

std::vector<noble::fleet::FleetSession> open_sessions(noble::fleet::Router& router,
                                                      const Inputs& inputs) {
  std::vector<noble::fleet::FleetSession> sessions;
  for (std::size_t path : inputs.session_path) {
    auto session = router.open_session(kShard, inputs.bundle->paths[path].start);
    if (!session) return {};
    sessions.push_back(*session);
  }
  return sessions;
}

std::uint64_t schedule_digest(const std::vector<Request>& requests) {
  std::uint64_t h = noble::common::kFnvOffsetBasis;
  for (const Request& r : requests) {
    const std::uint64_t fields[4] = {static_cast<std::uint64_t>(r.kind), r.session, r.input,
                                     r.due_ns};
    h = noble::common::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(fields), sizeof fields), h);
  }
  return h;
}

void shift(std::vector<Request>& requests, std::uint64_t t0_ns) {
  for (Request& r : requests) r.due_ns += t0_ns;
}

/// Latency in microseconds from due time to ready; a request that was not
/// served counts as infinitely late.
double latency_us(const Request& r) {
  return r.outcome == Outcome::kServed ? static_cast<double>(r.ready_ns - r.due_ns) / 1000.0
                                       : std::numeric_limits<double>::infinity();
}

/// One pass of the idle mix on the calling thread, for the tracing-overhead
/// guard; returns the interactive p50 (or -1 when a fix mismatched).
double guard_pass(noble::fleet::Router& router, const Inputs& inputs,
                  const std::vector<Fix>& reference, const noble::serve::ImuLocalizer& imu,
                  std::mt19937_64& rng, bool traced, SpanLog& spans) {
  const Mix mix = kWorkloads[0].mix;
  std::vector<std::uint32_t> next_segment(kSessions, 0);
  std::vector<Request> requests = make_schedule(mix, kGuardPassS, rng, inputs, next_segment);
  const auto sessions = open_sessions(router, inputs);
  if (sessions.size() != kSessions) return -1.0;
  shift(requests, now_ns() + 10'000'000);
  run_open_loop(router, sessions, inputs, mix, requests);
  for (const auto& s : sessions) router.close_session(s);
  if (!verify(requests, inputs, reference, imu).ok()) return -1.0;
  if (traced) add_request_spans(requests, false, 1ULL << 52, spans);
  std::vector<double> lat;
  for (const Request& r : requests) {
    if (r.kind == Kind::kScan) lat.push_back(latency_us(r));
  }
  return quantile(lat, 0.5);
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int fail(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  return 1;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int train(const std::map<std::string, std::string>& args) {
  const auto out = args.find("--out");
  if (out == args.end()) return fail("train needs --out");
  const Bundle bundle = train_bundle();
  const std::string tmp = out->second + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    f << encode_bundle(bundle);
    if (!f.flush()) return fail("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), out->second.c_str()) != 0) {
    return fail("cannot rename " + tmp);
  }
  std::printf("trained in %.3f s: %zu scans, %zu IMU paths\n", bundle.train_s,
              bundle.scans.size(), bundle.paths.size());
  return 0;
}

/// What one measured window leaves behind: every open-loop request, the
/// closed-loop client's tallies, and readings at each slice boundary.
struct WindowRun {
  std::vector<Request> requests;
  ClosedLoopResult closed;
  Window window;
  std::vector<ProcSample> proc;     ///< process readings, kSlices + 1
  std::vector<std::uint64_t> load;  ///< load-thread CPU, kSlices + 1
  noble::fleet::FleetStats stats0, stats1;
};

/// Opens the sessions, runs warm-up plus window, and joins every load
/// thread. Returns an error message on a set-up failure.
std::optional<std::string> run_window(const Workload& workload, Stack& stack,
                                      const Inputs& inputs, const std::vector<Fix>& reference,
                                      std::uint64_t seed, double seconds, bool traced,
                                      WindowRun& run) {
  noble::fleet::Router& router = *stack.router;
  std::vector<noble::fleet::FleetSession> sessions;
  WireConnection conn;
  std::vector<std::uint64_t> wire_sessions;
  if (workload.wire) {
    std::vector<noble::geo::Point2> starts;
    for (std::size_t path : inputs.session_path) starts.push_back(inputs.bundle->paths[path].start);
    if (!conn.connect(stack.listener->port())) return "cannot connect to the gateway";
    wire_sessions = conn.open_sessions(starts);
    if (wire_sessions.size() != kSessions) return "cannot open wire sessions";
  } else {
    sessions = open_sessions(router, inputs);
    if (sessions.size() != kSessions) return "cannot open sessions";
  }

  const std::uint64_t t0 = now_ns() + 20'000'000;
  shift(run.requests, t0);
  run.window.start_ns = t0 + static_cast<std::uint64_t>(kWarmupS * 1e9);
  run.window.end_ns = run.window.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  run.window.slices = kSlices;
  run.closed.completed.assign(kSlices, 0);

  // Load threads stay alive until the window's closing CPU readings are
  // taken, so their per-thread clocks can still be read.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto spawn = [&](std::function<void()> body) {
    threads.emplace_back([body = std::move(body), released] {
      body();
      released.wait();
    });
  };
  if (workload.wire) {
    spawn([&] { conn.send_all(inputs, workload.mix, wire_sessions, run.requests); });
    spawn([&] { conn.receive_all(run.requests); });
  } else {
    spawn([&] { run_open_loop(router, sessions, inputs, workload.mix, run.requests); });
  }
  if (workload.closed_inflight > 0) {
    spawn([&] {
      run_closed_loop(router, inputs, reference, seed, workload.closed_inflight, run.window,
                      stop, traced, run.closed);
    });
  }

  // CPU readings at every slice boundary: the process total, and the load
  // threads' (plus this thread's) own clocks, which are not serving work.
  const auto load_cpu_ns = [&] {
    std::uint64_t total = thread_cpu_ns(pthread_self());
    for (std::thread& t : threads) total += thread_cpu_ns(t.native_handle());
    return total;
  };
  run.proc.resize(kSlices + 1);
  run.load.resize(kSlices + 1);
  for (std::size_t k = 0; k <= kSlices; ++k) {
    sleep_until_ns(run.window.boundary(k));
    run.proc[k] = sample_process();
    run.load[k] = load_cpu_ns();
    if (k == 0) run.stats0 = router.stats();
  }
  run.stats1 = router.stats();
  stop.store(true);
  release.set_value();
  for (std::thread& t : threads) t.join();
  return std::nullopt;
}

/// The window's figures. Latencies are binned by due time and fixes by
/// ready time into the window's slices; the latency, throughput and CPU
/// figures are medians of per-slice values, so a host stall confined to a
/// few slices (steal, a neighbour's burst) does not move them.
struct Summary {
  std::uint64_t attempted = 0, served = 0, fixes = 0;
  std::vector<double> int_lat, sess_lat, lag;  ///< whole window
  double int_p50_us = 0, sess_p50_us = 0, fixes_per_s = 0, cpu_us_per_fix = 0;
  double fix_err_m_p50 = 0;
  double load_cpu_us_per_fix = 0, steal_ms = 0, nivcsw = 0, window_s = 0;
};

Summary summarize(const WindowRun& run, const std::vector<double>& error_m) {
  struct Slice {
    std::vector<double> int_lat, sess_lat;
    std::uint64_t fixes = 0;
  };
  const Window& window = run.window;
  std::vector<Slice> slices(kSlices);
  Summary s;
  std::vector<std::uint64_t> scan_counts = run.closed.scan_counts;
  scan_counts.resize(error_m.size(), 0);
  s.attempted = run.closed.attempted;
  s.served = run.closed.served;
  for (std::size_t k = 0; k < kSlices; ++k) slices[k].fixes = run.closed.completed[k];
  for (const Request& r : run.requests) {
    if (r.outcome == Outcome::kServed && window.contains(r.ready_ns)) {
      ++slices[window.slice_of(r.ready_ns)].fixes;
    }
    if (!window.contains(r.due_ns)) continue;
    Slice& slice = slices[window.slice_of(r.due_ns)];
    ++s.attempted;
    if (r.outcome == Outcome::kServed) ++s.served;
    if (r.sent0_ns != 0) s.lag.push_back(static_cast<double>(r.sent0_ns - r.due_ns) / 1000.0);
    if (r.kind == Kind::kSession) {
      s.sess_lat.push_back(latency_us(r));
      slice.sess_lat.push_back(s.sess_lat.back());
    } else {
      if (r.kind == Kind::kScan) {
        s.int_lat.push_back(latency_us(r));
        slice.int_lat.push_back(s.int_lat.back());
      }
      if (r.outcome == Outcome::kServed) ++scan_counts[r.input];
    }
  }
  std::vector<double> int_p50, sess_p50, fixes_per_s, cpu_per_fix;
  const double slice_s = static_cast<double>(window.boundary(1) - window.boundary(0)) / 1e9;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const Slice& slice = slices[k];
    s.fixes += slice.fixes;
    int_p50.push_back(quantile(slice.int_lat, 0.5));
    sess_p50.push_back(quantile(slice.sess_lat, 0.5));
    fixes_per_s.push_back(static_cast<double>(slice.fixes) / slice_s);
    const std::uint64_t proc_cpu = run.proc[k + 1].cpu_ns - run.proc[k].cpu_ns;
    const std::uint64_t load_cpu = run.load[k + 1] - run.load[k];
    const double serving_us =
        static_cast<double>(proc_cpu > load_cpu ? proc_cpu - load_cpu : 0) / 1000.0;
    cpu_per_fix.push_back(slice.fixes ? serving_us / static_cast<double>(slice.fixes)
                                      : std::numeric_limits<double>::infinity());
  }
  s.int_p50_us = quantile(int_p50, 0.5);
  s.sess_p50_us = quantile(sess_p50, 0.5);
  s.fixes_per_s = quantile(fixes_per_s, 0.5);
  s.cpu_us_per_fix = quantile(cpu_per_fix, 0.5);

  // Error of every served Wi-Fi fix in the window: served fixes equal the
  // reference bit for bit (checked by verify), so the error is the scan's.
  std::vector<std::size_t> order(error_m.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return error_m[a] < error_m[b]; });
  std::uint64_t wifi_served = 0;
  for (std::uint64_t c : scan_counts) wifi_served += c;
  for (std::uint64_t seen = 0; std::size_t i : order) {
    seen += scan_counts[i];
    if (2 * seen >= wifi_served) {
      s.fix_err_m_p50 = error_m[i];
      break;
    }
  }

  s.window_s = static_cast<double>(window.end_ns - window.start_ns) / 1e9;
  const double load_cpu_us = static_cast<double>(run.load[kSlices] - run.load[0]) / 1000.0;
  s.load_cpu_us_per_fix = s.fixes ? load_cpu_us / static_cast<double>(s.fixes) : 0.0;
  s.steal_ms = steal_ticks_to_ms(run.proc[kSlices].steal_ticks - run.proc[0].steal_ticks);
  s.nivcsw = static_cast<double>(run.proc[kSlices].nivcsw - run.proc[0].nivcsw);
  std::printf(
      "window: %.3f s in %zu slices, attempted=%llu served=%llu fixes=%llu | int n=%zu "
      "p50=%.1f us | sess n=%zu p50=%.1f us | loadgen lag p50=%.1f p99=%.1f us, cpu %.1f "
      "us/fix | host steal %.1f ms, nivcsw %.0f\n",
      s.window_s, kSlices, static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.served), static_cast<unsigned long long>(s.fixes),
      s.int_lat.size(), quantile(s.int_lat, 0.5), s.sess_lat.size(),
      quantile(s.sess_lat, 0.5), quantile(s.lag, 0.5), quantile(s.lag, 0.99),
      s.load_cpu_us_per_fix, s.steal_ms, s.nivcsw);
  return s;
}

/// Per request, the self times of the `request` span's children must add up
/// to its duration. Returns the number of request spans that fail this.
std::uint64_t check_request_tiling(const std::vector<Span>& all,
                                   const std::vector<std::uint64_t>& self) {
  std::vector<std::uint64_t> child_self(all.size(), 0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) child_self[static_cast<std::size_t>(all[i].parent)] += self[i];
  }
  std::uint64_t requests = 0, errors = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::strcmp(all[i].name, "request") != 0) continue;
    ++requests;
    if (child_self[i] != all[i].end_ns - all[i].start_ns) ++errors;
  }
  std::printf("trace: %zu spans, %llu request spans, %llu whose children do not tile them\n",
              all.size(), static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(errors));
  return errors;
}

/// Everything the traced run adds: the engine's counters over the window,
/// the layer walk, the tracing-overhead guard and the span checks. Returns
/// the per-layer metrics; clears `correct` on any mismatch.
std::vector<Metric> per_layer_metrics(WindowRun& run, const Summary& s, Stack& stack,
                                      const Inputs& inputs, const std::vector<Fix>& reference,
                                      const noble::serve::ImuLocalizer& ref_imu,
                                      std::uint64_t seed, bool wire,
                                      const std::vector<double>& decode_ms,
                                      const std::string& spans_out, SpanLog& spans,
                                      bool& correct) {
  add_request_spans(run.requests, wire, 1, spans);
  spans.absorb(std::move(run.closed.spans));
  const noble::engine::EngineStats& e0 = run.stats0.total;
  const noble::engine::EngineStats& e1 = run.stats1.total;
  const auto delta = [](noble::Histogram after, const noble::Histogram& before) {
    after.subtract(before);
    return after;
  };
  const noble::Histogram queue_wait = delta(e1.queue_wait_us, e0.queue_wait_us);
  const noble::Histogram assembly = delta(e1.assembly_us, e0.assembly_us);
  const noble::Histogram batch = delta(e1.batch_size, e0.batch_size);
  const noble::Histogram imu_batch = delta(e1.imu_batch_size, e0.imu_batch_size);
  double frames_in = 0, malformed = 0;
  if (stack.listener) {
    const noble::gateway::GatewayCounters c = stack.listener->counters();
    frames_in = static_cast<double>(c.frames_received);
    malformed = static_cast<double>(c.malformed_frames);
  }

  WalkResult walk =
      run_layer_walk(*inputs.bundle, *stack.wifi, *stack.imu, *stack.router, reference);
  for (const std::string& e : walk.errors) {
    std::fprintf(stderr, "servebench: walk: %s\n", e.c_str());
  }
  correct = correct && walk.errors.empty();
  spans.absorb(std::move(walk.spans));

  // Tracing-overhead guard: the idle mix in alternating untraced/traced
  // passes (ABBA, so drift cancels) on this stack's router.
  std::mt19937_64 guard_rng(seed ^ 0x6775617264ULL);
  double untraced_p50 = 0, traced_p50 = 0;
  for (const bool pass_traced : {false, true, true, false}) {
    const double p50 =
        guard_pass(*stack.router, inputs, reference, ref_imu, guard_rng, pass_traced, spans);
    if (p50 < 0) correct = false;
    (pass_traced ? traced_p50 : untraced_p50) += p50 / 2.0;
  }

  const std::vector<Span>& all = spans.spans();
  const std::vector<std::uint64_t> self = self_times_ns(all);
  if (check_request_tiling(all, self) != 0) correct = false;
  if (!spans_out.empty() && !write_spans(spans_out, all, self)) {
    std::fprintf(stderr, "servebench: cannot write spans to %s\n", spans_out.c_str());
    correct = false;
  }

  const auto span_p50 = [&](const char* name) { return quantile(durations_us(all, name), 0.5); };
  std::vector<Metric> metrics;
  for (const char* name : {"kernels.dense_us.b1", "kernels.dense_us.b8", "kernels.dense_us.b32",
                           "serve.predict_us.b1", "serve.predict_us.b32", "serve.locate_us.b1",
                           "serve.locate_batch_us.b8", "serve.locate_batch_us.b32",
                           "serve.imu_update_us.w1", "serve.imu_update_us.w8",
                           "fleet.rtt_us.b1", "net.frame_encode_us", "net.frame_decode_us",
                           "gateway.rtt_us.b1", "cluster.spill_rtt_us_p50"}) {
    metrics.push_back({name, walk.metrics[name], "us"});
  }
  metrics.push_back({"kernels.flop_per_row", walk.metrics["kernels.flop_per_row"], "flop"});
  metrics.push_back({"kernels.weight_bytes", walk.metrics["kernels.weight_bytes"], "bytes"});
  metrics.push_back({"serve.decode_model_ms", quantile(decode_ms, 0.5), "ms"});
  metrics.push_back({"engine.queue_wait_us_p50", queue_wait.percentile(0.5), "us"});
  metrics.push_back({"engine.assembly_us_p50", assembly.percentile(0.5), "us"});
  metrics.push_back({"engine.batch_size_mean", batch.count() ? batch.mean() : 0.0, "count"});
  metrics.push_back(
      {"engine.imu_batch_size_mean", imu_batch.count() ? imu_batch.mean() : 0.0, "count"});
  metrics.push_back({"engine.batches", static_cast<double>(e1.batches - e0.batches), "count"});
  metrics.push_back({"engine.rejected", static_cast<double>(e1.rejected - e0.rejected), "count"});
  metrics.push_back({"engine.expired", static_cast<double>(e1.expired - e0.expired), "count"});
  metrics.push_back({"engine.fixes_per_s",
                     static_cast<double>(e1.completed - e0.completed) / s.window_s, "1/s"});
  metrics.push_back({"fleet.submit_us_p50", span_p50("fleet.submit"), "us"});
  metrics.push_back({"fleet.wait_us_p50", span_p50("fleet.wait"), "us"});
  metrics.push_back({"gateway.frames_in", frames_in + walk.metrics["gateway.frames_in"], "count"});
  metrics.push_back({"gateway.malformed", malformed + walk.metrics["gateway.malformed"], "count"});
  metrics.push_back({"cluster.spill_forwarded", walk.metrics["cluster.spill_forwarded"], "count"});
  metrics.push_back({"cluster.spill_failed", walk.metrics["cluster.spill_failed"], "count"});
  metrics.push_back({"obs.trace_overhead_frac",
                     untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "frac"});
  metrics.push_back({"setup.train_s", inputs.bundle->train_s, "s"});
  metrics.push_back({"loadgen.lag_p50_us", quantile(s.lag, 0.5), "us"});
  metrics.push_back({"loadgen.lag_p99_us", quantile(s.lag, 0.99), "us"});
  metrics.push_back({"loadgen.cpu_us_per_fix", s.load_cpu_us_per_fix, "us"});
  metrics.push_back({"host.steal_ms", s.steal_ms, "ms"});
  metrics.push_back({"host.nivcsw", s.nivcsw, "count"});
  metrics.push_back({"int_p99_us", quantile(s.int_lat, 0.99), "us"});
  metrics.push_back({"sess_p99_us", quantile(s.sess_lat, 0.99), "us"});
  return metrics;
}

int serve(const std::map<std::string, std::string>& args) {
  const auto arg = [&](const char* key) -> std::string {
    const auto it = args.find(key);
    return it == args.end() ? std::string() : it->second;
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (arg("--workload") == w.name) workload = &w;
  }
  if (workload == nullptr) return fail("unknown --workload '" + arg("--workload") + "'");
  char* end = nullptr;
  const std::string seed_text = arg("--seed"), seconds_text = arg("--seconds");
  const std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (seed_text.empty() || *end != '\0') return fail("--seed must be a whole number");
  const double seconds = std::strtod(seconds_text.c_str(), &end);
  if (seconds_text.empty() || *end != '\0' || !(seconds >= 1.0 && seconds <= 120.0)) {
    return fail("--seconds must be a number from 1 to 120");
  }
  const bool traced = arg("--trace") == "1";
  if (!traced && arg("--trace") != "0") return fail("--trace must be 0 or 1");

  const unsigned cpus = online_cpus();
  if (workload->load_threads + workload->connections > cpus) {
    return fail("load threads plus connections exceed the " + std::to_string(cpus) +
                " online CPUs");
  }

  // Library defaults, set explicitly: tracing on at its default sampling,
  // kernel ISA auto-detected.
  noble::obs::Tracer::global().configure(noble::obs::TraceConfig{});
  noble::kernels::force_isa(std::nullopt);

  const auto bytes = read_file(arg("--bundle"));
  if (!bytes) return fail("cannot read bundle '" + arg("--bundle") + "'");
  const std::optional<Bundle> decoded = decode_bundle(*bytes);
  if (!decoded) return fail("malformed bundle");
  const Bundle& bundle = *decoded;

  // References, built apart from the serving stack: a direct locate per
  // scan, and the IMU localizer whose sessions replay every track.
  auto ref_wifi_model = noble::serve::decode_wifi_model(bundle.wifi_artifact);
  auto ref_imu_model = noble::serve::decode_imu_model(bundle.imu_artifact);
  if (!ref_wifi_model || !ref_imu_model) return fail("bundle artifacts do not decode");
  const noble::serve::WifiLocalizer ref_wifi(std::move(*ref_wifi_model));
  const noble::serve::ImuLocalizer ref_imu(std::move(*ref_imu_model));
  std::vector<Fix> reference;
  std::vector<double> error_m;
  for (std::size_t i = 0; i < bundle.scans.size(); ++i) {
    reference.push_back(ref_wifi.locate(bundle.scans[i]));
    const double dx = reference[i].position.x - bundle.scan_truth[i].x;
    const double dy = reference[i].position.y - bundle.scan_truth[i].y;
    error_m.push_back(std::sqrt(dx * dx + dy * dy));
  }

  std::mt19937_64 rng(seed);
  Inputs inputs{&bundle, {}};
  std::uniform_int_distribution<std::size_t> pick_path(0, bundle.paths.size() - 1);
  for (std::size_t s = 0; s < kSessions; ++s) inputs.session_path.push_back(pick_path(rng));
  std::vector<std::uint32_t> next_segment(kSessions, 0);
  WindowRun run;
  run.requests = make_schedule(workload->mix, kWarmupS + seconds, rng, inputs, next_segment);

  const noble::engine::EngineConfig engine_defaults;
  const noble::gateway::GatewayConfig gateway_defaults;
  const noble::obs::TraceConfig trace_config = noble::obs::Tracer::global().config();
  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d rate=%g/s bulk=%g session=%g "
      "bulk_deadline_us=%llu closed_inflight=%zu | engine workers=%zu max_batch=%zu "
      "max_wait_us=%llu queue_cap=%zu | gateway threads=%zu window=%zu | kernel=%s "
      "scale=%g tracing=%d sample=%g | cpus=%u load_threads=%zu connections=%zu\n",
      workload->name, static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0,
      workload->mix.rate_per_s, workload->mix.bulk_frac, workload->mix.session_frac,
      static_cast<unsigned long long>(workload->mix.bulk_deadline_us),
      workload->closed_inflight, engine_defaults.workers, engine_defaults.max_batch,
      static_cast<unsigned long long>(engine_defaults.max_wait_us), engine_defaults.queue_cap,
      gateway_defaults.threads, gateway_defaults.inflight_window,
      noble::kernels::isa_name(noble::kernels::active_isa()), noble::global_scale(),
      trace_config.enabled ? 1 : 0, trace_config.sample_rate, cpus, workload->load_threads,
      workload->connections);
  std::printf(
      "inputs: wifi_artifact=%016llx imu_artifact=%016llx pool=%016llx schedule=%016llx "
      "scans=%zu paths=%zu requests=%zu\n",
      static_cast<unsigned long long>(ref_wifi.artifact_digest()),
      static_cast<unsigned long long>(ref_imu.artifact_digest()),
      static_cast<unsigned long long>(inputs_digest(bundle)),
      static_cast<unsigned long long>(schedule_digest(run.requests)), bundle.scans.size(),
      bundle.paths.size(), run.requests.size());

  // Set-up, repeated; the last stack serves the workload.
  SpanLog spans;
  std::vector<double> setup_s, decode_ms;
  std::optional<Stack> stack;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    double d = 0, t = 0;
    stack = build_stack(bundle, workload->wire, spans, d, t);
    if (!stack) return fail("serving set-up failed");
    decode_ms.push_back(d);
    setup_s.push_back(t);
  }

  if (auto error = run_window(*workload, *stack, inputs, reference, seed, seconds, traced, run)) {
    return fail(*error);
  }
  const Verdict verdict = verify(run.requests, inputs, reference, ref_imu);
  bool correct = verdict.ok() && run.closed.mismatched == 0;
  std::printf(
      "verify: wifi %llu checked %llu mismatched | sessions %llu checked %llu mismatched | "
      "unknown %llu | closed-loop mismatched %llu\n",
      static_cast<unsigned long long>(verdict.wifi_checked),
      static_cast<unsigned long long>(verdict.wifi_mismatched),
      static_cast<unsigned long long>(verdict.session_checked),
      static_cast<unsigned long long>(verdict.session_mismatched),
      static_cast<unsigned long long>(verdict.unknown),
      static_cast<unsigned long long>(run.closed.mismatched));
  const Summary s = summarize(run, error_m);
  if (s.attempted == 0 || s.fixes == 0) return fail("nothing was attempted or served in the window");

  const std::vector<Metric> metrics =
      traced ? per_layer_metrics(run, s, *stack, inputs, reference, ref_imu, seed,
                                 workload->wire, decode_ms, arg("--spans-out"), spans, correct)
             : std::vector<Metric>{
                   {"setup_s", quantile(setup_s, 0.5), "s"},
                   {"int_p50_us", s.int_p50_us, "us"},
                   {"sess_p50_us", s.sess_p50_us, "us"},
                   {"fixes_per_s", s.fixes_per_s, "1/s"},
                   {"cpu_us_per_fix", s.cpu_us_per_fix, "us"},
                   {"served_frac",
                    static_cast<double>(s.served) / static_cast<double>(s.attempted), "frac"},
                   {"fix_err_m_p50", s.fix_err_m_p50, "m"},
                   {"peak_rss_mb", peak_rss_mb(), "MiB"},
               };
  print_json(correct, s.attempted, s.attempted - s.served, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  // The library reads NOBLE_* knobs (dataset scale, trace sampling, kernel
  // ISA) from the environment, some of them once at first use. A run must
  // not depend on the caller's shell, so any such variable is an error.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "NOBLE_", 6) == 0) {
      std::fprintf(stderr, "servebench: unset %s; the benchmark pins library defaults\n", *env);
      return 2;
    }
  }
  if (argc < 2 || (argc - 2) % 2 != 0) {
    std::fprintf(stderr, "usage: servebench train --out FILE | serve --bundle FILE "
                         "--workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const std::string mode = argv[1];
  if (mode == "train") return servebench::train(args);
  if (mode == "serve") return servebench::serve(args);
  std::fprintf(stderr, "servebench: unknown mode '%s'\n", mode.c_str());
  return 2;
}
