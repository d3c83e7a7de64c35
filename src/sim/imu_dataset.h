// Path construction per §V-A: from continuous recordings, build training
// paths by (1) choosing a random start reference, (2) choosing a path length
// below 50 references, (3) concatenating the inter-reference IMU windows.
// Each window is resampled to a fixed number of readings so the feature
// layout is constant.
#ifndef NOBLE_SIM_IMU_DATASET_H_
#define NOBLE_SIM_IMU_DATASET_H_

#include "data/dataset.h"
#include "sim/imu.h"

namespace noble::sim {

/// Path-construction parameters.
struct PathConfig {
  /// Readings each inter-reference window is resampled to. The paper records
  /// 768 raw readings per window; the default resamples to 32 for single-core
  /// tractability (see README "Benchmarks and examples") — raise via
  /// NOBLE_IMU_READINGS to match.
  std::size_t readings_per_segment = 32;
  /// Maximum path length in reference hops (paper: < 50).
  std::size_t max_segments = 50;
  /// Number of paths to construct.
  std::size_t num_paths = 6857;
};

/// Resamples the raw window [begin, end) of `rec` to `readings` rows by
/// block averaging (6 channels preserved). Returns readings*6 floats,
/// reading-major: [r0.ax r0.ay r0.az r0.gx r0.gy r0.gz r1.ax ...].
std::vector<float> resample_window(const ImuRecording& rec, std::size_t begin,
                                   std::size_t end, std::size_t readings);

/// Builds the path dataset from one or more walk recordings.
data::ImuDataset build_imu_paths(const std::vector<ImuRecording>& recordings,
                                 const PathConfig& config, Rng& rng);

}  // namespace noble::sim

#endif  // NOBLE_SIM_IMU_DATASET_H_
