// The traced run's fixed layer walk: one span per call into kernels, serve,
// fleet, net, gateway and cluster at batch 1/8/32, each call's result
// checked where it has one. Each layer is timed through its public
// functions and read through its public counters.
#ifndef SERVEBENCH_WALK_H_
#define SERVEBENCH_WALK_H_

#include <map>
#include <string>
#include <vector>

#include "bundle.h"
#include "fleet/router.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"
#include "spans.h"

namespace servebench {

struct WalkResult {
  std::map<std::string, double> metrics;
  SpanLog spans;
  std::vector<std::string> errors;  ///< any mismatch or failed call
};

/// `router` is the workload's (idle by now) serving router; `reference`
/// holds direct WifiLocalizer::locate fixes per scan index.
WalkResult run_layer_walk(const Bundle& bundle, const noble::serve::WifiLocalizer& wifi,
                          const noble::serve::ImuLocalizer& imu,
                          noble::fleet::Router& router,
                          const std::vector<noble::serve::Fix>& reference);

}  // namespace servebench

#endif  // SERVEBENCH_WALK_H_
