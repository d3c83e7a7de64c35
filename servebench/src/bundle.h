// The hand-over from the training process to the serving process: both
// model artifacts as bytes, plus the held-out inputs the workloads draw from
// (Wi-Fi scans with their true positions, IMU test paths as segments).
#ifndef SERVEBENCH_BUNDLE_H_
#define SERVEBENCH_BUNDLE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/point.h"
#include "serve/fix.h"

namespace servebench {

struct ImuTestPath {
  noble::geo::Point2 start;
  std::vector<noble::serve::ImuSegment> segments;
};

struct Bundle {
  double train_s = 0.0;        ///< wall time of both fits in the training process
  std::string wifi_artifact;   ///< serve::encode_model bytes
  std::string imu_artifact;
  std::vector<noble::serve::RssiVector> scans;  ///< Wi-Fi test split
  std::vector<noble::geo::Point2> scan_truth;   ///< true position per scan
  std::vector<ImuTestPath> paths;               ///< IMU test split
};

/// Trains the Wi-Fi model and the IMU tracker with fixed configs and seeds
/// (nothing read from the environment) and packs the result.
Bundle train_bundle();

std::string encode_bundle(const Bundle& bundle);
std::optional<Bundle> decode_bundle(std::string_view bytes);

/// FNV-1a over every scan, truth position and segment: with the two
/// artifact digests it identifies the inputs a run served.
std::uint64_t inputs_digest(const Bundle& bundle);

}  // namespace servebench

#endif  // SERVEBENCH_BUNDLE_H_
