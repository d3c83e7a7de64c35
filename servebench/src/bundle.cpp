#include "bundle.h"

#include <chrono>

#include "common/hash.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "nn/serialize.h"
#include "serve/artifact.h"

namespace servebench {

namespace {

constexpr std::uint32_t kBundleMagic = 0x53424e31;  // "SBN1"

}  // namespace

Bundle train_bundle() {
  using namespace noble;
  const auto t0 = std::chrono::steady_clock::now();

  // Sized so one fit of both models takes a few seconds on one core; the
  // configs are the ones the gateway load bench serves.
  core::WifiExperimentConfig wifi_config;
  wifi_config.total_samples = 3000;
  wifi_config.seed = 12;
  core::WifiExperiment wifi_exp = core::make_uji_experiment(wifi_config);
  core::NobleWifiConfig wifi_model_config;
  wifi_model_config.quantize.tau = 3.0;
  wifi_model_config.quantize.coarse_l = 15.0;
  wifi_model_config.epochs = 10;
  core::NobleWifiModel wifi_model(wifi_model_config);
  wifi_model.fit(wifi_exp.split.train, &wifi_exp.split.val);

  core::ImuExperimentConfig imu_config;
  imu_config.num_paths = 400;
  imu_config.total_walk_time_s = 1000.0;
  imu_config.readings_per_segment = 8;
  imu_config.imu.ref_interval_s = 15.0;
  imu_config.seed = 304;
  core::ImuExperiment imu_exp = core::make_imu_experiment(imu_config);
  core::NobleImuConfig imu_model_config;
  imu_model_config.quantize.tau = 2.0;
  imu_model_config.epochs = 6;
  imu_model_config.projection_dim = 6;
  core::NobleImuTracker tracker(imu_model_config);
  tracker.fit(imu_exp.split.train);

  Bundle bundle;
  bundle.train_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  bundle.wifi_artifact = serve::encode_model(wifi_model);
  bundle.imu_artifact = serve::encode_model(tracker);
  for (const data::WifiSample& sample : wifi_exp.split.test.samples) {
    bundle.scans.push_back(sample.rssi);
    bundle.scan_truth.push_back(sample.position);
  }
  const std::size_t dim = tracker.segment_dim();
  for (const data::ImuPath& path : imu_exp.split.test.paths) {
    ImuTestPath out{path.start, {}};
    for (std::size_t s = 0; s < path.num_segments; ++s) {
      const auto first = path.features.begin() + static_cast<std::ptrdiff_t>(s * dim);
      out.segments.emplace_back(first, first + static_cast<std::ptrdiff_t>(dim));
    }
    if (!out.segments.empty()) bundle.paths.push_back(std::move(out));
  }
  return bundle;
}

std::string encode_bundle(const Bundle& bundle) {
  noble::nn::ByteWriter w;
  w.u32(kBundleMagic);
  w.f64(bundle.train_s);
  w.str(bundle.wifi_artifact);
  w.str(bundle.imu_artifact);
  w.u64(bundle.scans.size());
  for (std::size_t i = 0; i < bundle.scans.size(); ++i) {
    w.f32v(bundle.scans[i]);
    w.f64(bundle.scan_truth[i].x);
    w.f64(bundle.scan_truth[i].y);
  }
  w.u64(bundle.paths.size());
  for (const ImuTestPath& path : bundle.paths) {
    w.f64(path.start.x);
    w.f64(path.start.y);
    w.u64(path.segments.size());
    for (const auto& segment : path.segments) w.f32v(segment);
  }
  return w.take();
}

std::optional<Bundle> decode_bundle(std::string_view bytes) {
  noble::nn::ByteReader r(bytes);
  Bundle b;
  std::uint32_t magic = 0;
  std::uint64_t n = 0;
  if (!r.u32(magic) || magic != kBundleMagic || !r.f64(b.train_s) ||
      !r.str(b.wifi_artifact) || !r.str(b.imu_artifact) || !r.u64(n) ||
      n > bytes.size()) {
    return std::nullopt;
  }
  b.scans.resize(n);
  b.scan_truth.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!r.f32v(b.scans[i]) || !r.f64(b.scan_truth[i].x) || !r.f64(b.scan_truth[i].y)) {
      return std::nullopt;
    }
  }
  if (!r.u64(n) || n > bytes.size()) return std::nullopt;
  b.paths.resize(n);
  for (ImuTestPath& path : b.paths) {
    std::uint64_t segments = 0;
    if (!r.f64(path.start.x) || !r.f64(path.start.y) || !r.u64(segments) ||
        segments > bytes.size()) {
      return std::nullopt;
    }
    path.segments.resize(segments);
    for (auto& segment : path.segments) {
      if (!r.f32v(segment)) return std::nullopt;
    }
  }
  if (!r.exhausted() || b.scans.empty() || b.paths.empty()) return std::nullopt;
  return b;
}

std::uint64_t inputs_digest(const Bundle& bundle) {
  using noble::common::fnv1a64;
  const auto bytes_of = [](const auto& v) {
    return std::string_view(reinterpret_cast<const char*>(v.data()),
                            v.size() * sizeof(v[0]));
  };
  std::uint64_t h = noble::common::kFnvOffsetBasis;
  for (std::size_t i = 0; i < bundle.scans.size(); ++i) {
    h = fnv1a64(bytes_of(bundle.scans[i]), h);
    const double xy[2] = {bundle.scan_truth[i].x, bundle.scan_truth[i].y};
    h = fnv1a64(std::string_view(reinterpret_cast<const char*>(xy), sizeof xy), h);
  }
  for (const ImuTestPath& path : bundle.paths) {
    const double xy[2] = {path.start.x, path.start.y};
    h = fnv1a64(std::string_view(reinterpret_cast<const char*>(xy), sizeof xy), h);
    for (const auto& segment : path.segments) h = fnv1a64(bytes_of(segment), h);
  }
  return h;
}

}  // namespace servebench
