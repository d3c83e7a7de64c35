#include "walk.h"

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <span>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "host.h"
#include "kernels/kernels.h"
#include "load.h"
#include "nn/dense.h"

namespace servebench {

namespace {

using noble::serve::Fix;
using noble::serve::RssiVector;

/// Calls `work(i)` `reps` times, one span named `name` per call, then hands
/// each result to `check(i, result)` outside the span.
template <typename Work, typename Check>
void time_calls(SpanLog& log, const char* name, std::size_t reps, Work&& work, Check&& check) {
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    const auto result = work(i);
    log.add(name, t0, now_ns());
    check(i, result);
  }
}

double span_p50(const WalkResult& out, const char* name) {
  return quantile(durations_us(out.spans.spans(), name), 0.5);
}

void walk_kernels(const noble::serve::WifiLocalizer& wifi, WalkResult& out) {
  const noble::nn::Sequential& net = wifi.model().network();
  const noble::nn::Dense* widest = nullptr;
  double flop_per_row = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* dense = dynamic_cast<const noble::nn::Dense*>(&net.layer(i));
    if (dense == nullptr) continue;
    flop_per_row += 2.0 * static_cast<double>(dense->in_dim() * dense->out());
    if (widest == nullptr || dense->in_dim() * dense->out() > widest->in_dim() * widest->out()) {
      widest = dense;
    }
  }
  if (widest == nullptr) {
    out.errors.push_back("kernels: the Wi-Fi network has no Dense layer");
    return;
  }
  // Computed from shapes, not measured: multiply-adds of every Dense layer
  // per query row, and the plan's pre-packed weight storage.
  out.metrics["kernels.flop_per_row"] = flop_per_row;
  out.metrics["kernels.weight_bytes"] = static_cast<double>(wifi.plan()->stats().packed_bytes);
  const noble::kernels::PackedDense packed = noble::kernels::pack_dense(widest->weights());
  const noble::kernels::Epilogue epilogue{widest->bias().data(), nullptr,
                                          noble::kernels::Activation::kNone};
  const struct {
    std::size_t batch;
    const char* span;
    const char* metric;
    std::size_t reps;
  } cases[] = {{1, "kernels.dense_forward.b1", "kernels.dense_us.b1", 4000},
               {8, "kernels.dense_forward.b8", "kernels.dense_us.b8", 2000},
               {32, "kernels.dense_forward.b32", "kernels.dense_us.b32", 1000}};
  for (const auto& c : cases) {
    noble::linalg::Mat x(c.batch, widest->in_dim());
    for (std::size_t i = 0; i < x.rows() * x.cols(); ++i) {
      x.data()[i] = static_cast<float>(i % 17) * 0.05f - 0.4f;
    }
    noble::linalg::Mat y;
    time_calls(
        out.spans, c.span, c.reps,
        [&](std::size_t) {
          noble::kernels::dense_forward(x, packed, epilogue, y);
          return y.data()[0];
        },
        [&](std::size_t, float v) {
          if (!std::isfinite(v)) out.errors.push_back("kernels: non-finite output");
        });
    out.metrics[c.metric] = span_p50(out, c.span);
  }
}

void walk_serve(const Bundle& bundle, const noble::serve::WifiLocalizer& wifi,
                const noble::serve::ImuLocalizer& imu, const std::vector<Fix>& reference,
                WalkResult& out) {
  const std::vector<RssiVector>& scans = bundle.scans;
  const std::size_t n = scans.size();
  const auto window = [&](std::size_t i, std::size_t batch) {
    const std::size_t first = (i * batch) % (n - batch + 1);
    return std::span<const RssiVector>(scans.data() + first, batch);
  };
  std::uint64_t mismatched = 0;

  const auto plan = wifi.plan();
  const noble::linalg::Mat x1 = wifi.featurize(window(0, 1));
  const noble::linalg::Mat x32 = wifi.featurize(window(0, 32));
  const auto predict_check = [&](std::size_t, const noble::linalg::Mat& y) {
    if (y.rows() == 0 || !std::isfinite(y.data()[0])) ++mismatched;
  };
  time_calls(out.spans, "serve.predict.b1", 2000,
             [&](std::size_t) { return plan->predict(x1); }, predict_check);
  time_calls(out.spans, "serve.predict.b32", 500,
             [&](std::size_t) { return plan->predict(x32); }, predict_check);
  time_calls(
      out.spans, "serve.locate.b1", 2000, [&](std::size_t i) { return wifi.locate(scans[i % n]); },
      [&](std::size_t i, const Fix& fix) {
        if (!(fix == reference[i % n])) ++mismatched;
      });
  for (const auto& [batch, span] : {std::pair<std::size_t, const char*>{8, "serve.locate_batch.b8"},
                                    {32, "serve.locate_batch.b32"}}) {
    time_calls(
        out.spans, span, 500, [&](std::size_t i) { return wifi.locate_batch(window(i, batch)); },
        [&](std::size_t i, const std::vector<Fix>& fixes) {
          const std::size_t first = static_cast<std::size_t>(window(i, batch).data() - scans.data());
          for (std::size_t k = 0; k < batch; ++k) {
            if (!(fixes[k] == reference[first + k])) ++mismatched;
          }
        });
  }
  out.metrics["serve.predict_us.b1"] = span_p50(out, "serve.predict.b1");
  out.metrics["serve.predict_us.b32"] = span_p50(out, "serve.predict.b32");
  out.metrics["serve.locate_us.b1"] = span_p50(out, "serve.locate.b1");
  out.metrics["serve.locate_batch_us.b8"] = span_p50(out, "serve.locate_batch.b8");
  out.metrics["serve.locate_batch_us.b32"] = span_p50(out, "serve.locate_batch.b32");

  // Coalesced IMU updates over 1 and 8 tracks, each checked against a
  // serial replay of the same track.
  for (const auto& [width, span, metric] :
       {std::tuple<std::size_t, const char*, const char*>{1, "serve.update_sessions.w1",
                                                          "serve.imu_update_us.w1"},
        {8, "serve.update_sessions.w8", "serve.imu_update_us.w8"}}) {
    std::vector<noble::serve::TrackingSession> tracks, replay;
    for (std::size_t t = 0; t < width; ++t) {
      const ImuTestPath& path = bundle.paths[t % bundle.paths.size()];
      tracks.push_back(imu.start_session(path.start));
      replay.push_back(imu.start_session(path.start));
    }
    std::vector<noble::serve::TrackingSession*> ptrs;
    for (auto& t : tracks) ptrs.push_back(&t);
    const auto segments_for = [&](std::size_t i) {
      std::vector<const noble::serve::ImuSegment*> segments;
      for (std::size_t t = 0; t < width; ++t) {
        const ImuTestPath& path = bundle.paths[t % bundle.paths.size()];
        segments.push_back(&path.segments[i % path.segments.size()]);
      }
      return segments;
    };
    time_calls(
        out.spans, span, 500,
        [&](std::size_t i) { return imu.update_sessions(ptrs, segments_for(i)); },
        [&](std::size_t i, const std::vector<Fix>& fixes) {
          const auto segments = segments_for(i);
          for (std::size_t t = 0; t < width; ++t) {
            if (!(fixes[t] == replay[t].update(*segments[t]))) ++mismatched;
          }
        });
    out.metrics[metric] = span_p50(out, span);
  }
  if (mismatched > 0) {
    out.errors.push_back("serve: " + std::to_string(mismatched) + " fixes differ from reference");
  }
}

void walk_fleet_and_net(const Bundle& bundle, noble::fleet::Router& router,
                        const std::vector<Fix>& reference, WalkResult& out) {
  namespace wire = noble::gateway::wire;
  const std::vector<RssiVector>& scans = bundle.scans;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    const std::uint64_t id = (1ULL << 56) + i;
    const std::uint64_t t0 = now_ns();
    noble::engine::Submission sub = router.submit(kShard, scans[i % scans.size()]);
    const std::uint64_t t1 = now_ns();
    const bool served = sub.accepted() && sub.result.get() == reference[i % scans.size()];
    const std::uint64_t t2 = now_ns();
    if (!served) ++mismatched;
    const std::int64_t root = out.spans.add("fleet.rtt.b1", t0, t2, -1, id);
    out.spans.add("fleet.submit", t0, t1, root, id);
    out.spans.add("fleet.wait", t1, t2, root, id);
  }
  out.metrics["fleet.rtt_us.b1"] = span_p50(out, "fleet.rtt.b1");

  std::vector<std::string> frames;
  time_calls(
      out.spans, "net.frame_encode", 4000,
      [&](std::size_t i) {
        noble::net::Frame frame;
        frame.type = wire::MsgType::kLocate;
        frame.request_id = i + 1;
        frame.body = wire::encode_locate_body(kShard, scans[i % scans.size()]);
        return noble::net::encode_frame(frame);
      },
      [&](std::size_t, const std::string& bytes) { frames.push_back(bytes); });
  time_calls(
      out.spans, "net.frame_decode", frames.size(),
      [&](std::size_t i) {
        noble::net::Frame frame;
        std::string key;
        RssiVector rssi;
        const bool ok = wire::decode_frame(frames[i], frame) == noble::net::DecodeResult::kFrame &&
                        wire::decode_locate_body(frame.body, key, rssi);
        return ok ? rssi : RssiVector{};
      },
      [&](std::size_t i, const RssiVector& rssi) {
        if (rssi != scans[i % scans.size()]) ++mismatched;
      });
  out.metrics["net.frame_encode_us"] = span_p50(out, "net.frame_encode");
  out.metrics["net.frame_decode_us"] = span_p50(out, "net.frame_decode");

  noble::gateway::Listener listener(router);
  std::optional<noble::gateway::GatewayClient> client;
  if (listener.start()) client = noble::gateway::GatewayClient::connect("127.0.0.1", listener.port());
  if (!client) {
    out.errors.push_back("gateway: could not start a listener and connect to it");
    return;
  }
  time_calls(
      out.spans, "gateway.rtt.b1", 500,
      [&](std::size_t i) { return client->locate(kShard, scans[i % scans.size()]); },
      [&](std::size_t i, const noble::gateway::WireResult& res) {
        if (!res.ok() || !(res.fix == reference[i % scans.size()])) ++mismatched;
      });
  out.metrics["gateway.rtt_us.b1"] = span_p50(out, "gateway.rtt.b1");
  client.reset();
  listener.stop();
  const noble::gateway::GatewayCounters counters = listener.counters();
  out.metrics["gateway.frames_in"] = static_cast<double>(counters.frames_received);
  out.metrics["gateway.malformed"] = static_cast<double>(counters.malformed_frames);
  if (mismatched > 0) {
    out.errors.push_back("fleet/net/gateway: " + std::to_string(mismatched) +
                         " calls failed or differ from reference");
  }
}

/// Two in-process nodes on loopback. Node A's bulk lane holds one request,
/// so bursts of bulk scans overflow it and spill to node B.
void walk_cluster(const Bundle& bundle, const noble::serve::WifiLocalizer& wifi,
                  const std::vector<Fix>& reference, WalkResult& out) {
  namespace cluster = noble::cluster;
  cluster::Coordinator coordinator;
  if (!coordinator.start()) {
    out.errors.push_back("cluster: coordinator did not start");
    return;
  }
  noble::fleet::Router router_a, router_b;
  noble::fleet::ShardConfig shard_a;
  shard_a.key = kShard;
  shard_a.engine.workers = 1;
  shard_a.engine.max_batch = 8;
  shard_a.engine.max_wait_us = 100;
  shard_a.engine.queue_cap = 2;
  shard_a.engine.bulk_cap = 1;
  noble::fleet::ShardConfig shard_b;
  shard_b.key = kShard;
  router_a.add_shard(shard_a, wifi);
  router_b.add_shard(shard_b, wifi);
  const auto node_config = [&](const char* name) {
    cluster::NodeConfig cfg;
    cfg.name = name;
    cfg.coordinator_port = coordinator.port();
    cfg.heartbeat_ms = 50;
    return cfg;
  };
  cluster::NodeAgent node_a(router_a, node_config("node-a"));
  cluster::NodeAgent node_b(router_b, node_config("node-b"));
  bool joined = node_a.start() && node_b.start();
  const std::uint64_t give_up = now_ns() + 5'000'000'000ULL;
  const auto sees_b = [&] {
    for (const auto& peer : node_a.peers()) {
      if (peer.name == "node-b" && peer.alive && !peer.shards.empty()) return true;
    }
    return false;
  };
  while (joined && !sees_b()) {
    if (now_ns() > give_up) joined = false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!joined) {
    out.errors.push_back("cluster: node A never saw node B alive");
    return;
  }
  struct Sent {
    std::size_t scan = 0;
    bool spilled = false;
    std::uint64_t t0 = 0;
    std::future<Fix> result;
  };
  std::uint64_t mismatched = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    std::vector<Sent> burst;
    for (std::size_t j = 0; j < 16; ++j) {
      Sent s;
      s.scan = (round * 16 + j) % bundle.scans.size();
      const std::uint64_t forwarded = node_a.counters().spill_forwarded;
      s.t0 = now_ns();
      noble::engine::Submission sub = node_a.submit(
          kShard, bundle.scans[s.scan], noble::engine::SubmitOptions::bulk());
      s.spilled = node_a.counters().spill_forwarded > forwarded;
      if (!sub.accepted()) continue;
      s.result = std::move(sub.result);
      burst.push_back(std::move(s));
    }
    // Poll every future so each spill's round trip ends when its own reply
    // lands, not when an earlier one does.
    std::size_t open = burst.size();
    while (open > 0) {
      for (Sent& s : burst) {
        if (!s.result.valid() ||
            s.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          continue;
        }
        const std::uint64_t t1 = now_ns();
        try {
          if (!(s.result.get() == reference[s.scan])) ++mismatched;
          if (s.spilled) out.spans.add("cluster.spill", s.t0, t1);
        } catch (const std::exception&) {
          // A spill the peer sheds is a clean verdict; spill_failed counts it.
        }
        --open;
      }
    }
  }
  const cluster::NodeCounters counters = node_a.counters();
  out.metrics["cluster.spill_rtt_us_p50"] = span_p50(out, "cluster.spill");
  out.metrics["cluster.spill_forwarded"] = static_cast<double>(counters.spill_forwarded);
  out.metrics["cluster.spill_failed"] = static_cast<double>(counters.spill_failed);
  node_a.stop();
  node_b.stop();
  coordinator.stop();
  if (mismatched > 0) {
    out.errors.push_back("cluster: " + std::to_string(mismatched) + " fixes differ from reference");
  }
}

}  // namespace

WalkResult run_layer_walk(const Bundle& bundle, const noble::serve::WifiLocalizer& wifi,
                          const noble::serve::ImuLocalizer& imu, noble::fleet::Router& router,
                          const std::vector<Fix>& reference) {
  WalkResult out;
  walk_kernels(wifi, out);
  walk_serve(bundle, wifi, imu, reference, out);
  walk_fleet_and_net(bundle, router, reference, out);
  walk_cluster(bundle, wifi, reference, out);
  return out;
}

}  // namespace servebench
