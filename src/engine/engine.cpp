#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace noble::engine {

namespace {

std::uint64_t ns_of(const std::chrono::steady_clock::time_point& t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

/// Microseconds from `from_ns` to `to_ns`, 0 when the clock reads went the
/// other way round (the same steady clock obs::Trace::now_ns() reads).
double us_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) / 1000.0 : 0.0;
}

}  // namespace

Engine::Engine(const serve::WifiLocalizer& wifi, EngineConfig config)
    : Engine(make_backend(config.backend, wifi), config) {}

Engine::Engine(std::unique_ptr<WifiBackend> prototype, EngineConfig config)
    : config_(config),
      queue_(config.queue_cap,
             ClassCaps{std::min(config.interactive_cap, config.queue_cap),
                       std::min(config.bulk_cap, config.queue_cap)},
             config.edf_bulk) {
  NOBLE_EXPECTS(prototype != nullptr);
  NOBLE_EXPECTS(config_.workers >= 1);
  NOBLE_EXPECTS(config_.max_batch >= 1);
  NOBLE_EXPECTS(config_.session_backlog >= 1);
  if (config_.cache_capacity > 0) {
    NOBLE_EXPECTS(config_.cache_key_step_db > 0.0);
    cache_.emplace(config_.cache_capacity, config_.cache_shards,
                   FingerprintHash{1.0 / config_.cache_key_step_db});
  }
  // Shared-nothing: each worker serves from its own deep copy, so the
  // batched hot path touches no cross-thread state at all.
  replicas_.reserve(config_.workers);
  replicas_.push_back(std::move(prototype));
  for (std::size_t i = 1; i < config_.workers; ++i) {
    replicas_.push_back(replicas_.front()->clone());
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::Engine(const serve::WifiLocalizer& wifi, const serve::ImuLocalizer& imu,
               EngineConfig config)
    : Engine(wifi, config) {
  // Safe after delegation: workers only touch imu_ via session tokens, and
  // no session can be opened before this constructor returns.
  imu_.emplace(serve::ImuLocalizer::from_model(imu.tracker()));
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  stopped_.store(true);
  queue_.close();
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::optional<Engine::Clock::time_point> Engine::resolve_deadline(
    const SubmitOptions& options, const Clock::time_point& now) const {
  if (options.deadline.has_value()) return options.deadline;
  if (config_.default_deadline_us > 0) {
    return now + std::chrono::microseconds(config_.default_deadline_us);
  }
  return std::nullopt;
}

void Engine::expire_promise(std::promise<serve::Fix>& promise, RequestClass cls) {
  class_expired_[request_class_index(cls)].inc();
  promise.set_exception(std::make_exception_ptr(DeadlineExpired{}));
}

Submission Engine::submit(const serve::RssiVector& rssi, const SubmitOptions& options) {
  const std::size_t cls = request_class_index(options.request_class);
  if (rssi.size() != num_aps()) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kBadDimension, {}};
  }
  const Clock::time_point submitted_at = Clock::now();
  const std::optional<Clock::time_point> deadline =
      resolve_deadline(options, submitted_at);
  if (deadline.has_value() && *deadline <= submitted_at) {
    // Dead on arrival: never admitted, never copied, never a GEMM slot.
    class_expired_[cls].inc();
    return {SubmitStatus::kExpired, {}};
  }
  const bool cached = cache_.has_value() && !stopped_.load(std::memory_order_relaxed);
  if (cached) {
    if (std::optional<serve::Fix> hit = cache_->get(rssi)) {
      // Admission-control fast path: answered without touching the queue.
      // Counted like any other request (accepted, then a latency sample) so
      // the stats invariants hold with the cache on — but never as a batch
      // and without a queue-wait sample: it was never queued. One short
      // stats_mu_ hold; the promise/future machinery dominates the hit cost.
      std::promise<serve::Fix> promise;
      std::future<serve::Fix> result = promise.get_future();
      class_accepted_[cls].inc();
      cache_hits_.inc();
      if (options.trace != nullptr) {
        // The whole pipeline collapses to one instant on a cache hit: every
        // engine stage is stamped "now", so its stage latencies read ~0.
        const std::uint64_t ns = obs::Trace::now_ns();
        options.trace->stamp(obs::Mark::kAdmitted, ns);
        options.trace->stamp(obs::Mark::kDequeued, ns);
        options.trace->stamp(obs::Mark::kAssembled, ns);
        options.trace->stamp(obs::Mark::kComputed, ns);
      }
      promise.set_value(std::move(*hit));
      const double latency_us =  // clock read outside the lock
          std::chrono::duration<double, std::micro>(Clock::now() - submitted_at).count();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        class_latency_[cls].record(latency_us);
      }
      if (options.trace != nullptr && !options.trace->external_respond) {
        options.trace->stamp(obs::Mark::kResponded);
        obs::Tracer::global().finish(*options.trace);
      }
      return {SubmitStatus::kAccepted, std::move(result)};
    }
  }
  // The only copy, on admission.
  WifiRequest request{rssi, {}, submitted_at, options.request_class, options.trace};
  std::future<serve::Fix> result = request.promise.get_future();
  // Counted before the push: once the queue has the request a worker may
  // complete it immediately, and stats() must never observe
  // completed > submitted.
  class_accepted_[cls].inc();
  // Stamped before the push: after it, a worker may already own the trace
  // (the queue handoff is the happens-before edge for the later marks).
  if (options.trace != nullptr) options.trace->stamp(obs::Mark::kAdmitted);
  const PushResult pushed =
      queue_.try_push(Request{std::move(request)}, options.request_class, deadline);
  if (pushed != PushResult::kOk) {
    class_accepted_[cls].sub();
    class_rejected_[cls].inc();
    return {pushed == PushResult::kClosed ? SubmitStatus::kStopped
                                          : SubmitStatus::kQueueFull,
            {}};
  }
  // A cache miss only counts once the scan is admitted: rejected-and-
  // retried submissions must not deflate the reported hit rate.
  if (cached) cache_misses_.inc();
  return {SubmitStatus::kAccepted, std::move(result)};
}

std::optional<SessionId> Engine::open_session(const geo::Point2& start) {
  if (!imu_.has_value() || stopped_.load()) return std::nullopt;
  const SessionId id = next_session_.fetch_add(1);
  auto state = std::make_shared<SessionState>(imu_->start_session(start));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.emplace(id, std::move(state));
  return id;
}

Submission Engine::track(SessionId session, serve::ImuSegment segment,
                         const SubmitOptions& options) {
  const std::size_t cls = request_class_index(options.request_class);
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session);
    if (it != sessions_.end()) state = it->second;
  }
  if (state == nullptr) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kNoSession, {}};
  }
  if (segment.size() != imu_->segment_dim()) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kBadDimension, {}};
  }
  const Clock::time_point submitted_at = Clock::now();
  const std::optional<Clock::time_point> deadline =
      resolve_deadline(options, submitted_at);
  if (deadline.has_value() && *deadline <= submitted_at) {
    class_expired_[cls].inc();
    return {SubmitStatus::kExpired, {}};
  }

  std::lock_guard<std::mutex> lock(state->mu);
  if (state->closed) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kNoSession, {}};
  }
  if (state->pending.size() >= config_.session_backlog) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kQueueFull, {}};
  }
  PendingUpdate update{std::move(segment), {}, submitted_at, options.request_class,
                       deadline, options.trace};
  std::future<serve::Fix> result = update.promise.get_future();
  // Same ordering as submit(): count before the work can become visible to
  // a worker, roll back on rejection. Admission for a session update means
  // entering its FIFO (the session mutex is the handoff edge).
  class_accepted_[cls].inc();
  if (options.trace != nullptr) options.trace->stamp(obs::Mark::kAdmitted);
  state->pending.push_back(std::move(update));
  if (!state->scheduled) {
    // Session tokens carry the class of the update that scheduled them (so
    // a bulk sweep's token queues behind interactive traffic) but never a
    // deadline — per-update deadlines are enforced in drain_sessions.
    const PushResult pushed =
        queue_.try_push(Request{SessionWork{session}}, options.request_class);
    if (pushed != PushResult::kOk) {
      state->pending.pop_back();
      class_accepted_[cls].sub();
      class_rejected_[cls].inc();
      return {pushed == PushResult::kClosed ? SubmitStatus::kStopped
                                            : SubmitStatus::kQueueFull,
              {}};
    }
    state->scheduled = true;
  }
  return {SubmitStatus::kAccepted, std::move(result)};
}

bool Engine::close_session(SessionId session) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    state = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->closed = true;
  for (PendingUpdate& pending : state->pending) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("noble::engine: session closed with pending updates")));
  }
  state->pending.clear();
  return true;
}

EngineStats Engine::stats() const {
  EngineStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot.batch_size = batch_hist_;
    snapshot.imu_batch_size = imu_batch_hist_;
    snapshot.queue_wait_us = queue_wait_hist_;
    snapshot.assembly_us = assembly_hist_;
    snapshot.interactive.latency_us = class_latency_[0];
    snapshot.bulk.latency_us = class_latency_[1];
  }
  // The admission counters are read after the histograms: every completion
  // was counted as accepted first, so this order keeps the derived
  // submitted >= completed in the snapshot.
  for (const RequestClass cls : {RequestClass::kInteractive, RequestClass::kBulk}) {
    ClassStats& cs = cls == RequestClass::kInteractive ? snapshot.interactive : snapshot.bulk;
    const std::size_t i = request_class_index(cls);
    cs.accepted = class_accepted_[i].value();
    cs.rejected = class_rejected_[i].value();
    cs.expired = class_expired_[i].value();
    cs.queue_depth = queue_.depth(cls);
  }
  if (cache_.has_value()) {
    const CacheStats cache = cache_->stats();
    snapshot.cache_hits = cache_hits_.value();
    snapshot.cache_misses = cache_misses_.value();
    snapshot.cache_evictions = cache.evictions;
    snapshot.cache_entries = cache.entries;
  }
  snapshot.derive();
  return snapshot;
}

void EngineStats::derive() {
  submitted = interactive.accepted + bulk.accepted;
  rejected = interactive.rejected + bulk.rejected;
  expired = interactive.expired + bulk.expired;
  queue_depth = interactive.queue_depth + bulk.queue_depth;
  // Every completion is recorded in exactly one class histogram and every
  // batch in exactly one width histogram, so their counts are the totals.
  latency_us = interactive.latency_us;
  latency_us.merge(bulk.latency_us);
  completed = latency_us.count();
  batches = batch_size.count();
  imu_batches = imu_batch_size.count();
  const LatencySummary total = summarize_latency_us(latency_us);
  latency_p50_us = total.p50_us;
  latency_p95_us = total.p95_us;
  latency_p99_us = total.p99_us;
  interactive.latency = summarize_latency_us(interactive.latency_us);
  bulk.latency = summarize_latency_us(bulk.latency_us);
}

void EngineStats::merge(const EngineStats& other) {
  for (const RequestClass cls : {RequestClass::kInteractive, RequestClass::kBulk}) {
    ClassStats& into = cls == RequestClass::kInteractive ? interactive : bulk;
    const ClassStats& from = other.for_class(cls);
    into.accepted += from.accepted;
    into.rejected += from.rejected;
    into.expired += from.expired;
    into.queue_depth += from.queue_depth;
    into.latency_us.merge(from.latency_us);
  }
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  cache_entries += other.cache_entries;
  batch_size.merge(other.batch_size);
  imu_batch_size.merge(other.imu_batch_size);
  queue_wait_us.merge(other.queue_wait_us);
  assembly_us.merge(other.assembly_us);
  derive();
}

void Engine::worker_loop(std::size_t worker_index) {
  const WifiBackend& replica = *replicas_[worker_index];
  for (;;) {
    std::vector<Request> expired;
    std::vector<Request> batch = queue_.pop_batch(
        config_.max_batch, std::chrono::microseconds(config_.max_wait_us), &expired);
    if (batch.empty() && expired.empty()) return;  // closed and fully drained
    // One clock read marks kDequeued for every Wi-Fi request in this batch.
    const std::uint64_t dequeued_ns = obs::Trace::now_ns();
    // Deadline-expired takes never reach a replica: fail their futures and
    // move on — the batch slots went to live requests instead.
    for (Request& request : expired) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        expire_promise(query->promise, query->cls);
      } else {
        // Tokens are pushed without deadlines; treat one here as live.
        batch.push_back(std::move(request));
      }
    }
    // Partition the takes: independent Wi-Fi queries coalesce into one
    // network pass; session tokens are drained afterwards (their ordering
    // lives in the per-session FIFO, not the shared queue).
    std::vector<WifiRequest> wifi;
    std::vector<SessionId> tokens;
    for (Request& request : batch) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        wifi.push_back(std::move(*query));
      } else {
        tokens.push_back(std::get<SessionWork>(request).id);
      }
    }
    if (!wifi.empty()) run_wifi_batch(replica, std::move(wifi), dequeued_ns);
    if (config_.coalesce_sessions) {
      // One IMU pass per round over every track this pop's tokens cover.
      if (!tokens.empty()) drain_sessions(tokens);
    } else {
      for (const SessionId id : tokens) drain_sessions({id});
    }
  }
}

template <typename Ticket, typename Compute, typename Publish>
void Engine::complete_batch(std::vector<Ticket>& tickets, std::uint64_t taken_ns,
                            Compute&& compute, Publish&& publish) {
  constexpr bool kImu = std::is_same_v<Ticket, PendingUpdate>;
  bool any_traced = false;
  for (const Ticket& ticket : tickets) {
    if (ticket.trace == nullptr) continue;
    any_traced = true;
    ticket.trace->stamp(obs::Mark::kDequeued, taken_ns);
  }
  const std::uint64_t assembled_ns = obs::Trace::now_ns();
  if (any_traced) {
    for (const Ticket& ticket : tickets) {
      if (ticket.trace != nullptr) ticket.trace->stamp(obs::Mark::kAssembled, assembled_ns);
    }
  }
  const std::vector<serve::Fix> fixes = compute();
  const Clock::time_point done = Clock::now();  // one read for the batch
  if (any_traced) {
    // Stamp before set_value below: the promise hands the trace to whoever
    // awaits the future, so every engine mark must land first.
    const std::uint64_t done_ns = ns_of(done);
    for (const Ticket& ticket : tickets) {
      if (ticket.trace != nullptr) ticket.trace->stamp(obs::Mark::kComputed, done_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    (kImu ? imu_batch_hist_ : batch_hist_).record(static_cast<double>(tickets.size()));
    assembly_hist_.record(us_between(taken_ns, assembled_ns));
    for (const Ticket& ticket : tickets) {
      queue_wait_hist_.record(us_between(ns_of(ticket.submitted_at), taken_ns));
      class_latency_[request_class_index(ticket.cls)].record(
          std::chrono::duration<double, std::micro>(done - ticket.submitted_at).count());
    }
  }
  publish(fixes);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    tickets[i].promise.set_value(fixes[i]);
    if (tickets[i].trace != nullptr && !tickets[i].trace->external_respond) {
      // In-process serving: fulfilling the future IS the response write.
      tickets[i].trace->stamp(obs::Mark::kResponded);
      obs::Tracer::global().finish(*tickets[i].trace);
    }
  }
}

void Engine::run_wifi_batch(const WifiBackend& replica,
                            std::vector<WifiRequest> batch,
                            std::uint64_t dequeued_ns) {
  std::vector<serve::RssiVector> queries;
  queries.reserve(batch.size());
  for (WifiRequest& request : batch) queries.push_back(std::move(request.rssi));
  complete_batch(
      batch, dequeued_ns, [&] { return replica.locate_batch(queries); },
      [&](const std::vector<serve::Fix>& fixes) {
        if (!cache_.has_value()) return;
        // Populate before fulfilling: once a future resolves, the cache
        // already reflects its scan, so a client that awaits a fix and
        // resubmits the same scan is guaranteed the fast path (and telemetry
        // reads after get() are deterministic).
        for (std::size_t i = 0; i < queries.size(); ++i) {
          cache_->put(std::move(queries[i]), fixes[i]);
        }
      });
}

void Engine::drain_sessions(const std::vector<SessionId>& ids) {
  // shared_ptr copies keep every state alive across the drain even if the
  // session is closed mid-flight (close_session only clears pending and
  // unregisters; it never touches the TrackingSession itself).
  std::vector<std::shared_ptr<SessionState>> tracks;
  tracks.reserve(ids.size());
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const SessionId id : ids) {
      const auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;  // closed while its token was queued
      tracks.push_back(it->second);
    }
  }
  // Locking: each track's mutex is taken only for the instants this loop
  // pops its next pending update or retires its token — never across the
  // batched pass. Producers therefore keep appending to the per-session
  // FIFOs while the GEMM runs (the drain pipelines against submission,
  // which is most of coalescing's engine-level win); holding every lock
  // across the drain instead was measured to convoy all submitters behind
  // the worker. Popping outside the compute is safe: one token is in
  // flight per session, so no other worker can reach these sessions, and
  // the TrackingSession object itself is only ever touched by the token
  // holder. A track retires — atomically with observing its FIFO empty —
  // by clearing `scheduled` under its mutex, after which the next track()
  // submission enqueues a fresh token (possibly for another worker; this
  // one no longer touches it).
  std::vector<char> active(tracks.size(), 1);
  std::vector<PendingUpdate> updates;
  std::vector<serve::TrackingSession*> sessions;
  std::vector<const serve::ImuSegment*> segments;
  for (;;) {
    // One round: at most one live update per session, FIFO within each
    // track, the whole round served by a single batched pass.
    updates.clear();
    sessions.clear();
    segments.clear();
    const Clock::time_point now = Clock::now();
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      if (!active[t]) continue;
      SessionState& state = *tracks[t];
      std::lock_guard<std::mutex> lock(state.mu);
      bool took = false;
      while (!state.pending.empty()) {
        PendingUpdate update = std::move(state.pending.front());
        state.pending.pop_front();
        if (update.deadline.has_value() && *update.deadline <= now) {
          // Expired before its turn: never applied to the track, so later
          // updates see the session state without it; its successor gets
          // this round's slot. Its trace is dropped, not finished — stage
          // latency describes served requests.
          expire_promise(update.promise, update.cls);
          continue;
        }
        updates.push_back(std::move(update));
        sessions.push_back(&state.session);
        took = true;
        break;
      }
      if (!took) {
        state.scheduled = false;  // FIFO drained: retire this track's token
        active[t] = 0;
      }
    }
    if (updates.empty()) break;
    // The round's inputs are taken once every pop is done: each update was
    // admitted to its FIFO before this read, so queue wait never goes
    // negative.
    const std::uint64_t taken_ns = obs::Trace::now_ns();
    // Segment pointers only after the round's updates stopped moving.
    segments.reserve(updates.size());
    for (const PendingUpdate& update : updates) segments.push_back(&update.segment);
    complete_batch(
        updates, taken_ns, [&] { return imu_->update_sessions(sessions, segments); },
        [](const std::vector<serve::Fix>&) {});
  }
}

}  // namespace noble::engine
