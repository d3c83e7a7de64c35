#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <future>
#include <memory>

#include "engine/engine.h"
#include "gateway/wire.h"
#include "host.h"
#include "obs/trace.h"

namespace servebench {

namespace wire = noble::gateway::wire;
using noble::engine::RequestClass;
using noble::engine::SubmitOptions;
using noble::engine::SubmitStatus;

std::vector<Request> make_schedule(const Mix& mix, double seconds, std::mt19937_64& rng,
                                   const Inputs& inputs,
                                   std::vector<std::uint32_t>& next_segment) {
  std::exponential_distribution<double> gap_s(mix.rate_per_s);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> scan(
      0, static_cast<std::uint32_t>(inputs.bundle->scans.size() - 1));
  std::uniform_int_distribution<std::uint16_t> session(
      0, static_cast<std::uint16_t>(inputs.session_path.size() - 1));
  std::vector<Request> out;
  double t = gap_s(rng);
  while (t < seconds) {
    Request r;
    r.due_ns = static_cast<std::uint64_t>(t * 1e9);
    const double draw = unit(rng);
    if (draw < mix.session_frac) {
      r.kind = Kind::kSession;
      r.session = session(rng);
      const std::size_t len =
          inputs.bundle->paths[inputs.session_path[r.session]].segments.size();
      r.input = next_segment[r.session];
      next_segment[r.session] = static_cast<std::uint32_t>((r.input + 1) % len);
    } else {
      r.kind = draw < mix.session_frac + mix.bulk_frac ? Kind::kBulk : Kind::kScan;
      r.input = scan(rng);
    }
    out.push_back(r);
    t += gap_s(rng);
  }
  return out;
}

namespace {

struct InFlight {
  std::size_t index = 0;
  std::future<noble::serve::Fix> result;
  std::shared_ptr<noble::obs::Trace> trace;
};

std::shared_ptr<noble::obs::Trace> ready_mark() {
  auto trace = std::make_shared<noble::obs::Trace>();
  trace->external_respond = true;  // nothing finishes it; only marks are stamped
  return trace;
}

/// Resolves a finished future into the request record. The engine stamped
/// kComputed before fulfilling the future, so the mark is visible here.
void settle(InFlight& f, Request& r) {
  try {
    r.fix = f.result.get();
    r.outcome = Outcome::kServed;
    r.ready_ns = f.trace->mark_ns(noble::obs::Mark::kComputed);
  } catch (const noble::engine::DeadlineExpired&) {
    r.outcome = Outcome::kExpired;
  } catch (const std::exception&) {
    r.outcome = Outcome::kFailed;
  }
  if (r.ready_ns == 0) r.ready_ns = now_ns();
}

Outcome refusal(SubmitStatus status) {
  return status == SubmitStatus::kExpired ? Outcome::kExpired : Outcome::kRefused;
}

}  // namespace

void run_open_loop(noble::fleet::Router& router,
                   const std::vector<noble::fleet::FleetSession>& sessions,
                   const Inputs& inputs, const Mix& mix, std::vector<Request>& requests) {
  tighten_timer_slack();
  std::vector<InFlight> inflight;
  const auto sweep = [&] {
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->result.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        settle(*it, requests[it->index]);
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    sweep();
    SubmitOptions options =
        r.kind == Kind::kBulk ? SubmitOptions::bulk() : SubmitOptions::interactive();
    if (r.kind == Kind::kBulk && mix.bulk_deadline_us > 0) {
      options.deadline = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(r.due_ns + mix.bulk_deadline_us * 1000));
    }
    options.trace = ready_mark();
    noble::serve::ImuSegment segment;
    if (r.kind == Kind::kSession) segment = inputs.segment(r);
    sleep_until_ns(r.due_ns);
    r.sent0_ns = now_ns();
    noble::engine::Submission sub =
        r.kind == Kind::kSession
            ? router.track(sessions[r.session], std::move(segment), options)
            : router.submit(kShard, inputs.bundle->scans[r.input], options);
    r.sent1_ns = now_ns();
    if (sub.accepted()) {
      inflight.push_back({i, std::move(sub.result), std::move(options.trace)});
    } else {
      r.outcome = refusal(sub.status);
      r.ready_ns = r.sent1_ns;
    }
  }
  for (InFlight& f : inflight) settle(f, requests[f.index]);
}

void run_closed_loop(noble::fleet::Router& router, const Inputs& inputs,
                     const std::vector<noble::serve::Fix>& reference, std::uint64_t seed,
                     std::size_t inflight, const Window& window,
                     const std::atomic<bool>& stop, bool traced,
                     ClosedLoopResult& out) {
  std::mt19937_64 rng(seed ^ 0x626c6b636c6f7365ULL);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(inputs.bundle->scans.size() - 1));
  out.scan_counts.assign(inputs.bundle->scans.size(), 0);
  out.completed.assign(window.slices, 0);
  struct Pending {
    InFlight f;
    std::uint32_t scan = 0;
    std::uint64_t sent0_ns = 0, sent1_ns = 0;
  };
  std::deque<Pending> queue;
  std::uint64_t sequence = 0;
  const auto submit_one = [&]() -> bool {
    Pending p;
    p.scan = pick(rng);
    SubmitOptions options = SubmitOptions::bulk();
    options.trace = ready_mark();
    p.sent0_ns = now_ns();
    noble::engine::Submission sub = router.submit(kShard, inputs.bundle->scans[p.scan], options);
    p.sent1_ns = now_ns();
    if (window.contains(p.sent0_ns)) ++out.attempted;
    if (!sub.accepted()) return false;  // counted as attempted, never served
    p.f = {0, std::move(sub.result), std::move(options.trace)};
    queue.push_back(std::move(p));
    return true;
  };
  const auto finish_one = [&] {
    Pending p = std::move(queue.front());
    queue.pop_front();
    Request r;
    settle(p.f, r);
    if (r.outcome != Outcome::kServed) return;
    if (!(r.fix == reference[p.scan])) ++out.mismatched;
    if (window.contains(p.sent0_ns)) ++out.served;
    if (window.contains(r.ready_ns)) {
      ++out.completed[window.slice_of(r.ready_ns)];
      ++out.scan_counts[p.scan];
    }
    if (traced && sequence++ % 64 == 0) {
      const std::uint64_t id = (1ULL << 48) + sequence;
      const std::uint64_t sent1 = std::min(p.sent1_ns, r.ready_ns);
      const std::int64_t root = out.spans.add("request", p.sent0_ns, r.ready_ns, -1, id);
      out.spans.add("fleet.submit", p.sent0_ns, sent1, root, id);
      out.spans.add("fleet.wait", sent1, r.ready_ns, root, id);
    }
  };
  while (!stop.load(std::memory_order_relaxed)) {
    while (queue.size() < inflight && submit_one()) {
    }
    if (!queue.empty()) finish_one();
  }
  while (!queue.empty()) finish_one();
}

Verdict verify(const std::vector<Request>& requests, const Inputs& inputs,
               const std::vector<noble::serve::Fix>& reference,
               const noble::serve::ImuLocalizer& imu) {
  Verdict v;
  std::vector<noble::serve::TrackingSession> replay;
  for (std::size_t path : inputs.session_path) {
    replay.push_back(imu.start_session(inputs.bundle->paths[path].start));
  }
  for (const Request& r : requests) {
    if (r.kind == Kind::kSession && (r.outcome == Outcome::kFailed ||
                                     r.outcome == Outcome::kPending)) {
      ++v.unknown;
    }
    if (r.outcome != Outcome::kServed) continue;
    if (r.kind == Kind::kSession) {
      ++v.session_checked;
      if (!(replay[r.session].update(inputs.segment(r)) == r.fix)) ++v.session_mismatched;
    } else {
      ++v.wifi_checked;
      if (!(reference[r.input] == r.fix)) ++v.wifi_mismatched;
    }
  }
  return v;
}

void add_request_spans(const std::vector<Request>& requests, bool wire,
                       std::uint64_t id_base, SpanLog& log) {
  const char* send_name = wire ? "gateway.send" : "fleet.submit";
  const char* wait_name = wire ? "gateway.wait" : "fleet.wait";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.sent0_ns == 0 || r.ready_ns == 0) continue;
    const std::uint64_t id = id_base + i;
    // A reply can land before the sending call returns; clamp so the
    // children tile [due, ready] exactly.
    const std::uint64_t sent0 = std::min(r.sent0_ns, r.ready_ns);
    const std::uint64_t sent1 = std::min(r.sent1_ns, r.ready_ns);
    const std::int64_t root = log.add("request", r.due_ns, r.ready_ns, -1, id);
    log.add("loadgen.lag", r.due_ns, sent0, root, id);
    log.add(send_name, sent0, sent1, root, id);
    log.add(wait_name, sent1, r.ready_ns, root, id);
  }
}

// --- wire ------------------------------------------------------------------

WireConnection::~WireConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireConnection::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool WireConnection::write_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint64_t> WireConnection::open_sessions(
    const std::vector<noble::geo::Point2>& starts) {
  std::vector<std::uint64_t> ids;
  std::string buffer;
  char chunk[4096];
  for (const noble::geo::Point2& start : starts) {
    noble::net::Frame frame;
    frame.type = wire::MsgType::kOpenSession;
    frame.request_id = 1ULL << 40;
    frame.body = wire::encode_open_session_body(kShard, start);
    if (!write_all(noble::net::encode_frame(frame))) return {};
    noble::net::Frame reply;
    while (wire::decode_frame(buffer, reply) != noble::net::DecodeResult::kFrame) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    wire::Status status = wire::Status::kStopped;
    std::uint64_t id = 0;
    if (reply.type != wire::MsgType::kSessionOpened ||
        !wire::decode_session_opened_body(reply.body, status, id) ||
        status != wire::Status::kOk) {
      return {};
    }
    ids.push_back(id);
  }
  return ids;
}

void WireConnection::send_all(const Inputs& inputs, const Mix& mix,
                              const std::vector<std::uint64_t>& wire_sessions,
                              std::vector<Request>& requests) {
  tighten_timer_slack();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    noble::net::Frame frame;
    frame.request_id = i + 1;
    sleep_until_ns(r.due_ns);
    r.sent0_ns = now_ns();
    if (r.kind == Kind::kSession) {
      frame.type = wire::MsgType::kTrackUpdate;
      frame.body = wire::encode_track_body(wire_sessions[r.session], inputs.segment(r));
    } else {
      frame.type = wire::MsgType::kLocate;
      frame.body = wire::encode_locate_body(kShard, inputs.bundle->scans[r.input]);
      if (r.kind == Kind::kBulk) {
        frame.cls = RequestClass::kBulk;
        frame.deadline_us = mix.bulk_deadline_us;
      }
    }
    const bool ok = write_all(noble::net::encode_frame(frame));
    r.sent1_ns = now_ns();
    if (!ok) break;
    sent_.store(i + 1, std::memory_order_release);
  }
  sending_done_.store(true, std::memory_order_release);
}

void WireConnection::receive_all(std::vector<Request>& requests) {
  std::string buffer;
  std::vector<char> chunk(1 << 16);
  std::size_t received = 0;
  std::uint64_t give_up_ns = 0;
  for (;;) {
    const bool done = sending_done_.load(std::memory_order_acquire);
    if (done && received >= sent_.load(std::memory_order_acquire)) return;
    if (done && give_up_ns == 0) give_up_ns = now_ns() + 10'000'000'000ULL;
    if (give_up_ns != 0 && now_ns() > give_up_ns) return;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 20) <= 0) continue;
    const ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    const std::uint64_t arrived_ns = now_ns();
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
    noble::net::Frame frame;
    for (;;) {
      const noble::net::DecodeResult res = wire::decode_frame(buffer, frame);
      if (res == noble::net::DecodeResult::kNeedMore) break;
      if (res == noble::net::DecodeResult::kMalformed) return;
      if (frame.type != wire::MsgType::kFix || frame.request_id == 0 ||
          frame.request_id > requests.size()) {
        return;  // an Error frame or a stray reply: the run cannot be trusted
      }
      Request& r = requests[frame.request_id - 1];
      wire::Status status = wire::Status::kStopped;
      if (!wire::decode_fix_body(frame.body, status, r.fix)) return;
      r.ready_ns = arrived_ns;
      switch (status) {
        case wire::Status::kOk: r.outcome = Outcome::kServed; break;
        case wire::Status::kExpired:
        case wire::Status::kDeadlineExpired: r.outcome = Outcome::kExpired; break;
        case wire::Status::kQueueFull:
        case wire::Status::kWindowFull: r.outcome = Outcome::kRefused; break;
        default: r.outcome = Outcome::kFailed; break;
      }
      ++received;
    }
  }
}

}  // namespace servebench
