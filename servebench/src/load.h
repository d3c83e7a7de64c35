// Load generation for the serving benchmark.
//
// Open loop: a seeded Poisson schedule of scans and IMU session updates,
// each sent at its due time whether or not earlier ones have finished, and
// timed from that due time. Closed loop: one bulk client that keeps a fixed
// number of requests in flight.
//
// Ready time. In process, every request carries an obs::Trace with
// external_respond set, so the engine stamps its kComputed mark just before
// it fulfils the future and finishes nothing else. The load thread reads
// that mark after the future resolves, in any order it likes: no request's
// latency waits on an earlier one. Over the wire, the reader thread stamps
// each response frame as it decodes it.
#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bundle.h"
#include "fleet/router.h"
#include "spans.h"

namespace servebench {

inline constexpr char kShard[] = "bldg-A";

enum class Kind : std::uint8_t { kScan, kBulk, kSession };
enum class Outcome : std::uint8_t { kPending, kServed, kRefused, kExpired, kFailed };

/// One open-loop request and everything measured about it. Times are
/// steady-clock nanoseconds; 0 means "not reached".
struct Request {
  Kind kind = Kind::kScan;
  std::uint16_t session = 0;  ///< session slot (kSession)
  std::uint32_t input = 0;    ///< scan index, or segment index in the session's path
  std::uint64_t due_ns = 0;   ///< scheduled send time
  std::uint64_t sent0_ns = 0; ///< submit / send call entered
  std::uint64_t sent1_ns = 0; ///< submit / send call returned
  std::uint64_t ready_ns = 0; ///< fix ready (or verdict known)
  Outcome outcome = Outcome::kPending;
  noble::serve::Fix fix;
};

/// Traffic mix of an open-loop schedule.
struct Mix {
  double rate_per_s = 200.0;
  double bulk_frac = 0.0;     ///< share of bulk scans
  double session_frac = 0.2;  ///< share of IMU session updates; the rest are interactive scans
  std::uint64_t bulk_deadline_us = 0;  ///< relative deadline of bulk scans; 0 = none
};

/// Inputs a schedule draws from: the scan pool and, per session slot, the
/// test path whose segments it streams.
struct Inputs {
  const Bundle* bundle = nullptr;
  std::vector<std::size_t> session_path;  ///< path index per session slot
  const noble::serve::ImuSegment& segment(const Request& r) const {
    return bundle->paths[session_path[r.session]].segments[r.input];
  }
};

/// Seeded Poisson schedule over [0, seconds): due times are offsets from 0.
/// `next_segment` holds each session slot's next segment index and carries
/// over between schedules that share sessions.
std::vector<Request> make_schedule(const Mix& mix, double seconds, std::mt19937_64& rng,
                                   const Inputs& inputs,
                                   std::vector<std::uint32_t>& next_segment);

/// Open-loop generator against an in-process router; runs on the calling
/// thread until every request has a verdict.
void run_open_loop(noble::fleet::Router& router,
                   const std::vector<noble::fleet::FleetSession>& sessions,
                   const Inputs& inputs, const Mix& mix, std::vector<Request>& requests);

/// The measured window, cut into equal slices so that every per-window
/// figure can also be taken per slice.
struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t slices = 1;
  bool contains(std::uint64_t t) const { return t >= start_ns && t < end_ns; }
  /// Precondition: contains(t).
  std::size_t slice_of(std::uint64_t t) const {
    return static_cast<std::size_t>((t - start_ns) * slices / (end_ns - start_ns));
  }
  std::uint64_t boundary(std::size_t k) const {
    return start_ns + (end_ns - start_ns) * k / slices;
  }
};

/// Closed-loop bulk client: keeps `inflight` bulk scans outstanding until
/// `stop` is set, then drains. Counts what completed inside the window.
struct ClosedLoopResult {
  std::uint64_t attempted = 0;    ///< submitted inside the window
  std::uint64_t served = 0;       ///< of those, served
  std::vector<std::uint64_t> completed;  ///< per slice: fixes whose ready time fell in it
  std::uint64_t mismatched = 0;   ///< fixes that differ from direct locate
  std::vector<std::uint64_t> scan_counts;  ///< served in window, per scan index
  SpanLog spans;                  ///< traced runs: every 64th request
};
void run_closed_loop(noble::fleet::Router& router, const Inputs& inputs,
                     const std::vector<noble::serve::Fix>& reference, std::uint64_t seed,
                     std::size_t inflight, const Window& window,
                     const std::atomic<bool>& stop, bool traced,
                     ClosedLoopResult& out);

/// Every served fix checked: Wi-Fi fixes against `reference` (a direct
/// WifiLocalizer::locate per scan index), session fixes against a direct
/// TrackingSession replay of each session's served updates in send order.
/// A session update that failed for an unknown reason makes the replay
/// unknowable and counts in `unknown`.
struct Verdict {
  std::uint64_t wifi_checked = 0, wifi_mismatched = 0;
  std::uint64_t session_checked = 0, session_mismatched = 0;
  std::uint64_t unknown = 0;
  bool ok() const { return wifi_mismatched == 0 && session_mismatched == 0 && unknown == 0; }
};
Verdict verify(const std::vector<Request>& requests, const Inputs& inputs,
               const std::vector<noble::serve::Fix>& reference,
               const noble::serve::ImuLocalizer& imu);

/// One `request` span per request (due time to ready), with three children
/// that tile it: `loadgen.lag` (due to send), then `fleet.submit` and
/// `fleet.wait` in process or `gateway.send` and `gateway.wait` on the wire.
void add_request_spans(const std::vector<Request>& requests, bool wire,
                       std::uint64_t id_base, SpanLog& log);

/// Loopback connection to a gateway, shared by a sender and a reader
/// thread (full-duplex: one writes, the other reads). gateway::GatewayClient
/// is not used here: its FrameSocket keeps one connection state for both
/// directions and is meant to be driven by one thread.
class WireConnection {
 public:
  WireConnection() = default;
  ~WireConnection();
  WireConnection(const WireConnection&) = delete;
  WireConnection& operator=(const WireConnection&) = delete;

  bool connect(std::uint16_t port);
  /// Opens one sticky session per start point, synchronously, before the
  /// load threads start; returns the wire session ids.
  std::vector<std::uint64_t> open_sessions(const std::vector<noble::geo::Point2>& starts);

  /// Sender thread body: sends each request at its due time.
  void send_all(const Inputs& inputs, const Mix& mix,
                const std::vector<std::uint64_t>& wire_sessions,
                std::vector<Request>& requests);
  /// Reader thread body: stamps and decodes responses until every request
  /// sent has one (or the connection fails).
  void receive_all(std::vector<Request>& requests);

 private:
  bool write_all(const std::string& bytes);
  int fd_ = -1;
  std::atomic<std::size_t> sent_{0};
  std::atomic<bool> sending_done_{false};
};

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
