// noble::engine — concurrent micro-batching inference engine.
//
// PR 2's localizers are thread-safe but single-query: many concurrent
// clients each paying a one-row network pass forfeit the batched-GEMM
// amortization `locate_batch` already proves out. The engine closes that
// serving gap:
//
//   clients ── submit() ──▶ bounded queue ── pop_batch ──▶ worker 0 ─ replica 0
//      ▲          │            (admission control)         worker 1 ─ replica 1
//      │          └─ kQueueFull / kBadDimension / kStopped    ...        ...
//      └──────────── std::future<Fix> fulfilled per micro-batch
//
// Requests are coalesced under a max-batch-size / max-wait-deadline policy
// that is work-conserving: a worker holds an under-full batch open for up to
// `max_wait_us` only while every other worker is busy, and dispatches at
// once while another sits idle (engine/bounded_queue.h). Batches are
// executed on a worker pool over shared-nothing WifiBackend replicas
// (see engine/backend.h: float32 dense by default, int8 quantized as an
// alternate, both deep-copied so there is no cross-worker sharing and no
// locks on the hot path). Output is bit-identical to direct inference on
// the same backend for every request regardless of how requests get
// batched.
//
// Admission control is class- and deadline-aware. Every submission carries
// a RequestClass — kInteractive (a user is waiting) or kBulk (background
// re-localization sweep) — and optionally a deadline:
//  - per-class queue caps bound how much of the bounded queue bulk traffic
//    may occupy, so a bulk flood sheds (kQueueFull) while interactive
//    admissions keep their reserved headroom;
//  - workers drain interactive entries first within the batching window,
//    bulk fills the remainder of each micro-batch, and a micro-batch that
//    holds both classes runs them as two network passes, interactive
//    first, so an interactive scan never waits on bulk rows;
//  - a request whose deadline passes before a worker reaches it never
//    spends a GEMM slot: at submit() an already-expired deadline returns
//    SubmitStatus::kExpired, and an accepted request that expires while
//    queued fails its future with DeadlineExpired.
// Class and deadline decide *when and whether* a scan runs — never its
// result: any request that is served is bit-identical to direct inference.
//
// An optional RSSI-fingerprint -> Fix cache (quantized-key/exact-verify,
// bounded sharded LRU — engine/fingerprint_cache.h) answers repeated scans
// at submit() without entering the queue.
//
// A session registry multiplexes many concurrent IMU TrackingSessions
// behind the same worker pool: per-session FIFOs keep each track's updates
// ordered while different tracks proceed in parallel. Session updates are
// served in rounds — one pending update per track, one batched IMU pass per
// round — and every Wi-Fi micro-batch and every IMU round completes through
// the same routine (trace stamps, telemetry, promise fulfilment). Between
// rounds a worker hands its still-fed tracks back to the shared queue when
// other work waits there, so a busy track never holds a Wi-Fi scan behind it.
//
// Telemetry: `stats()` snapshots the per-class admission counters and lane
// depths, the micro-batch-size and stage distributions and the per-class
// latency histograms (all noble::Histogram); every total it reports is
// derived from those, so each event is recorded exactly once.
//
// Under overload the engine shares the host's cores with its callers, so a
// thread can be descheduled at any instant. Workers are kept from stalling
// on one another through it: a scan's admission copy lives in a pooled
// buffer (engine/scan_pool.h) that the serving worker swaps out instead of
// freeing submitter memory (whose allocator arena lock a descheduled
// submitter may hold), the queue lock is never held across an allocation,
// and each worker records its batches into its own telemetry shard, which
// stats() merges. A worker that has just woken an interactive caller
// yields its core once, so the caller reads its fix without waiting out a
// time slice behind the worker's next batch. (IMU segments are still moved
// in by the caller and freed by the worker that applies them.)
#ifndef NOBLE_ENGINE_ENGINE_H_
#define NOBLE_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/stats.h"
#include "engine/backend.h"
#include "engine/bounded_queue.h"
#include "engine/fingerprint_cache.h"
#include "engine/scan_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {

/// Admission-control verdict for one submitted request. Shared by Engine
/// and the fleet Router (which adds the kNoShard routing failure).
enum class SubmitStatus {
  kAccepted,      ///< queued; `result` will be fulfilled
  kQueueFull,     ///< backpressure: bounded queue (or session backlog) full
  kBadDimension,  ///< payload size does not match the model's input layout
  kNoSession,     ///< unknown or already-closed session id
  kNoShard,       ///< router-level: no shard registered under that key
  kExpired,       ///< the request's deadline had already passed at submit
  kStopped,       ///< engine is shut down
};

/// Fails the future of an accepted request whose deadline passed while it
/// waited in the queue (or in a session FIFO): the expired analogue of
/// SubmitStatus::kExpired for requests that were already admitted.
class DeadlineExpired : public std::runtime_error {
 public:
  DeadlineExpired()
      : std::runtime_error("noble::engine: deadline expired before execution") {}
};

/// Per-submission admission options: the request's class and an optional
/// absolute deadline. Defaults (interactive, no deadline) keep the plain
/// submit(rssi) behavior.
struct SubmitOptions {
  RequestClass request_class = RequestClass::kInteractive;
  /// Absolute steady-clock deadline. A request not *started* by then is
  /// expired: kExpired at submit if already past, DeadlineExpired on the
  /// future if it lapses in the queue. nullopt falls back to
  /// EngineConfig::default_deadline_us (0 there = no deadline).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional stage trace (obs/trace.h), created by the submitting edge
  /// (gateway or bench harness). The engine stamps kAdmitted/kDequeued/
  /// kAssembled/kComputed on it and — unless `trace->external_respond` says
  /// a higher tier writes the response — stamps kResponded and finishes it
  /// after fulfilling the future. nullptr (the default) costs nothing on
  /// the hot path. Tracing is observability only: it never changes when,
  /// where, or with what result a request runs.
  std::shared_ptr<obs::Trace> trace;

  static SubmitOptions interactive() { return {}; }
  static SubmitOptions bulk() { return {RequestClass::kBulk, std::nullopt, nullptr}; }
  /// Fluent deadline-as-budget: expire unless started within `budget_us`.
  SubmitOptions& expires_in_us(std::uint64_t budget_us) {
    deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
    return *this;
  }
};

/// One submit() outcome: a status plus — only when accepted — a future that
/// the worker pool fulfills with the localization fix.
struct Submission {
  SubmitStatus status = SubmitStatus::kStopped;
  std::future<serve::Fix> result;  ///< valid only when status == kAccepted

  bool accepted() const { return status == SubmitStatus::kAccepted; }
};

struct EngineConfig {
  /// Worker threads; each owns one shared-nothing WifiBackend replica.
  std::size_t workers = 2;
  /// Most requests coalesced into one network pass.
  std::size_t max_batch = 32;
  /// Batching window: how long a worker holds an under-full batch open for
  /// stragglers after taking its first request, while every other worker is
  /// busy. A worker dispatches at once while another is idle, and is
  /// released early when one goes idle; with one worker the window always
  /// holds. 0 = serve whatever is there.
  std::uint64_t max_wait_us = 200;
  /// Bounded request-queue capacity; submissions beyond it are rejected
  /// with kQueueFull (explicit backpressure instead of unbounded memory).
  std::size_t queue_cap = 1024;
  /// Most queue slots interactive submissions may occupy at once; 0 means
  /// "no class cap" (bounded by queue_cap only).
  std::size_t interactive_cap = 0;
  /// Most queue slots bulk submissions may occupy at once; 0 means "no
  /// class cap". Setting this below queue_cap reserves the difference as
  /// interactive-only headroom — the load-shedding knob.
  std::size_t bulk_cap = 0;
  /// Engine-wide default deadline budget in microseconds, applied to every
  /// submission that does not carry its own deadline. 0 = no deadline.
  std::uint64_t default_deadline_us = 0;
  /// Most not-yet-processed segments one tracking session may buffer before
  /// its submissions are rejected with kQueueFull.
  std::size_t session_backlog = 64;
  /// Replica forward path (dense float32 or int8 quantized); ignored by the
  /// backend-injection constructor, which receives a prototype directly.
  BackendKind backend = BackendKind::kDense;
  /// Order the bulk queue lane earliest-deadline-first instead of FIFO
  /// (ties and deadline-less entries break by admission sequence, so
  /// draining stays deterministic). Under a deadline-diverse bulk backlog
  /// EDF converts would-be DeadlineExpired futures into completed fixes at
  /// the same offered load; with uniform (or no) deadlines it degrades to
  /// exactly FIFO, which is why it defaults on. Scheduling only: any
  /// request that is served is still bit-identical to direct inference.
  bool edf_bulk = true;
  /// Coalesce pending IMU updates from *different* sessions into one
  /// batched network pass (the session-path analogue of Wi-Fi
  /// micro-batching). The per-session FIFOs still serialize each track and
  /// every module in the IMU path is row-independent, so coalescing
  /// changes when updates run, never their results. Off = each session
  /// token drains its own track alone, one update per pass (the
  /// serialized-per-track baseline the bench compares).
  bool coalesce_sessions = true;
  /// Fingerprint-cache entries at admission control; 0 disables the cache.
  std::size_t cache_capacity = 0;
  /// Lock shards of the fingerprint cache (contention, not semantics).
  std::size_t cache_shards = 8;
  /// dB step of the cache's quantized hash key (exact-verify on hit keeps
  /// any step bit-identity-safe; the step only tunes bucketing).
  double cache_key_step_db = 1.0;
};

/// Per-class admission/latency telemetry, so fleet views report interactive
/// and bulk behavior separately. Every field but `latency` is recorded;
/// `latency` is derived by EngineStats::derive().
struct ClassStats {
  std::uint64_t accepted = 0;  ///< admitted (queued or served from cache)
  std::uint64_t rejected = 0;  ///< kQueueFull/kBadDimension/kStopped verdicts
  std::uint64_t expired = 0;   ///< kExpired at submit + DeadlineExpired futures
  /// Instantaneous depth of this class's queue lane; EngineStats::queue_depth
  /// is the sum of the two lanes.
  std::size_t queue_depth = 0;
  Histogram latency_us = Histogram::latency_us();  ///< submit -> fulfilled
  /// p50/p95/p99 of latency_us.
  LatencySummary latency;
};

/// Telemetry snapshot. Histograms share noble::Histogram's fixed layouts,
/// so snapshots from several engines can be merge()d for fleet views —
/// that is exactly what fleet::Router::stats() does.
///
/// Two kinds of field: *recorded* ones (the per-class splits, the cache
/// counters and the batch/stage histograms) come from the engine's
/// instruments; *derived* ones (the totals, `latency_us` and the
/// percentiles) are filled from the recorded ones by derive() — the one
/// routine both Engine::stats() and merge() end with.
struct EngineStats {
  // --- derived ------------------------------------------------------------
  std::uint64_t submitted = 0;  ///< accepted (queued or served from cache)
  std::uint64_t rejected = 0;   ///< non-kAccepted submissions (kExpired aside)
  std::uint64_t expired = 0;    ///< deadline-expired requests, both flavors
  std::uint64_t completed = 0;  ///< futures fulfilled (cache hits included)
  std::uint64_t batches = 0;    ///< Wi-Fi micro-batches executed
  /// IMU passes executed: every served session update is counted in
  /// exactly one, whether it shared the pass with other tracks or ran alone.
  std::uint64_t imu_batches = 0;
  std::size_t queue_depth = 0;  ///< instantaneous depth, both lanes
  // --- recorded -----------------------------------------------------------
  /// Per-class splits: the totals above are exactly interactive + bulk.
  ClassStats interactive;
  ClassStats bulk;
  /// Fingerprint-cache counters (all zero when the cache is disabled).
  /// Misses count *admitted* Wi-Fi scans only — a scan rejected with
  /// kQueueFull and retried does not deflate the hit rate. IMU session
  /// updates are stateful and never cached, so they contribute to
  /// `submitted` but to neither cache counter.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;  ///< instantaneous resident entries
  Histogram batch_size = Histogram::batch_sizes();  ///< Wi-Fi batch sizes
  /// IMU pass widths (updates per imu_batch; 1 = a track served alone).
  Histogram imu_batch_size = Histogram::batch_sizes();
  /// Measured per-request queue wait (admit -> the batch's inputs taken:
  /// the pop for Wi-Fi, the round start for IMU) and per-batch assembly
  /// time (inputs taken -> compute start) — the engine-owned, always-on
  /// counterparts of the obs kQueueWait/kBatchAssembly stages.
  Histogram queue_wait_us = Histogram::latency_us();
  Histogram assembly_us = Histogram::latency_us();
  // --- derived ------------------------------------------------------------
  Histogram latency_us = Histogram::latency_us();  ///< both classes' latencies
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;

  /// Per-class view by enum (read-only convenience over the named fields).
  const ClassStats& for_class(RequestClass cls) const {
    return cls == RequestClass::kInteractive ? interactive : bulk;
  }

  /// Fills every derived field from the recorded ones: the totals are the
  /// class sums, `completed`/`batches`/`imu_batches` the counts of the
  /// latency and batch-width histograms, the percentiles their summaries.
  void derive();

  /// Folds another engine's snapshot into this one: recorded counters and
  /// gauges sum, recorded histograms merge() bin-wise, then derive().
  void merge(const EngineStats& other);
};

/// Handle for one registered IMU tracking session.
using SessionId = std::uint64_t;

class Engine {
 public:
  /// Wi-Fi-only engine: builds the config-selected backend over `wifi`,
  /// replicates it once per worker (deep copies) and starts the pool.
  explicit Engine(const serve::WifiLocalizer& wifi, EngineConfig config = {});

  /// Engine that additionally serves streaming IMU sessions. The single
  /// `imu` localizer is shared by all sessions — its inference path is
  /// const and thread-safe, so replicas would buy nothing.
  Engine(const serve::WifiLocalizer& wifi, const serve::ImuLocalizer& imu,
         EngineConfig config = {});

  /// Backend-injection constructor: the worker pool replicates `prototype`
  /// via clone() (prototype becomes replica 0). This is the seam custom
  /// forward paths (tests, future accelerator backends) plug into;
  /// config.backend is ignored.
  explicit Engine(std::unique_ptr<WifiBackend> prototype, EngineConfig config = {});

  /// Drains and joins (see shutdown()).
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Asynchronous localization of one raw RSSI scan. Never blocks: the scan
  /// is answered from the fingerprint cache (kAccepted, future already
  /// fulfilled), queued (kAccepted, fulfilled by a worker micro-batch), or
  /// rejected with an explicit status. Takes a reference and copies only on
  /// admission, so rejection/fallback paths (the fleet router probes
  /// several engines with one scan) never pay for the copy.
  ///
  /// `options` selects the admission class (interactive drains before bulk,
  /// per-class caps apply) and an optional deadline: already expired =>
  /// kExpired here; expires while queued => DeadlineExpired on the future.
  Submission submit(const serve::RssiVector& rssi, const SubmitOptions& options);
  Submission submit(const serve::RssiVector& rssi) { return submit(rssi, {}); }

  /// Registers a streaming IMU track anchored at `start`. nullopt when the
  /// engine was built without an IMU localizer or is stopped.
  std::optional<SessionId> open_session(const geo::Point2& start);

  /// Queues one IMU segment for `session`. Updates to one session are
  /// applied strictly in submission order; distinct sessions proceed in
  /// parallel on the worker pool. Admission options apply per update: an
  /// expired update fails with kExpired/DeadlineExpired and is *not*
  /// applied to the track (later updates see the state without it).
  Submission track(SessionId session, serve::ImuSegment segment,
                   const SubmitOptions& options);
  Submission track(SessionId session, serve::ImuSegment segment) {
    return track(session, std::move(segment), {});
  }

  /// Unregisters a session. Pending (unprocessed) updates fail their
  /// futures with std::runtime_error. Returns false for unknown ids.
  bool close_session(SessionId session);

  /// Stops admission, drains every queued request (all accepted futures are
  /// fulfilled), and joins the workers. Idempotent; the destructor calls it.
  void shutdown();

  /// Telemetry snapshot; safe to call concurrently with serving.
  EngineStats stats() const;

  const EngineConfig& config() const { return config_; }
  /// Instantaneous depth of one class's queue lane — the cheap load signal
  /// the fleet router's depth pass reads (stats() copies whole histograms;
  /// this takes one queue lock). A spilling bulk sweep competes with the
  /// *bulk* lane, not interactive traffic that outranks it everywhere.
  std::size_t queue_depth(RequestClass cls) const { return queue_.depth(cls); }
  std::size_t num_aps() const { return replicas_.front()->input_dim(); }
  /// Name of the backend the worker replicas run ("dense", "quantized", or
  /// whatever an injected prototype reports).
  std::string backend_name() const { return replicas_.front()->name(); }
  bool has_imu() const { return imu_.has_value(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct WifiRequest {
    /// The scan's scan_pool_ slot; kNoSlot when every slot was taken and
    /// `rssi` holds an owned copy instead.
    std::uint32_t slot = ScanPool::kNoSlot;
    serve::RssiVector rssi;
    std::promise<serve::Fix> promise;
    Clock::time_point submitted_at;
    RequestClass cls = RequestClass::kInteractive;
    std::shared_ptr<obs::Trace> trace;  ///< stage clock; nullptr = untraced
  };
  /// Queue token: "this session has pending segments". One token is in
  /// flight per session regardless of backlog depth, so a busy track cannot
  /// starve the shared queue.
  struct SessionWork {
    SessionId id;
  };
  using Request = std::variant<WifiRequest, SessionWork>;

  struct PendingUpdate {
    serve::ImuSegment segment;
    std::promise<serve::Fix> promise;
    Clock::time_point submitted_at;
    RequestClass cls = RequestClass::kInteractive;
    std::optional<Clock::time_point> deadline;
    std::shared_ptr<obs::Trace> trace;  ///< stage clock; nullptr = untraced
  };
  struct SessionState {
    explicit SessionState(serve::TrackingSession s) : session(std::move(s)) {}
    std::mutex mu;
    serve::TrackingSession session;
    std::deque<PendingUpdate> pending;
    bool scheduled = false;  ///< a SessionWork token is queued or running
    bool closed = false;
  };

  /// Completion telemetry of one recorder: a worker, or the admission path
  /// for cache hits. Each has its own lock, so recording a batch never
  /// waits on another worker; stats() merges every shard. Aligned apart so
  /// two recorders never share a cache line.
  struct alignas(64) Telemetry {
    mutable std::mutex mu;
    Histogram batch_size = Histogram::batch_sizes();
    Histogram imu_batch_size = Histogram::batch_sizes();
    Histogram queue_wait_us = Histogram::latency_us();
    Histogram assembly_us = Histogram::latency_us();
    /// One latency histogram per class: every completion is recorded in
    /// exactly one.
    Histogram class_latency_us[kNumRequestClasses] = {Histogram::latency_us(),
                                                      Histogram::latency_us()};
  };

  /// Per-worker state that lives across pops: its replica, its telemetry
  /// shard and the scan buffers its batches are assembled in.
  struct WorkerContext {
    const WifiBackend& replica;
    Telemetry& telemetry;
    std::vector<serve::RssiVector> scans;
  };

  void worker_loop(std::size_t worker_index);
  /// `dequeued_ns` is the batch's single pop timestamp — one clock read
  /// serves every request in the batch (kDequeued is a batch-level boundary).
  void run_wifi_batch(WorkerContext& worker, std::vector<WifiRequest> batch,
                      std::uint64_t dequeued_ns);
  /// Hands a request's scan buffer back to scan_pool_ (no-op without one).
  void release_scan(const WifiRequest& request);
  /// Serves the pending updates of `ids` in rounds: each round takes one
  /// live update per track and runs them as one batched IMU pass
  /// (ImuLocalizer::update_sessions). Session locks are taken only to pop
  /// or retire — never across the pass — so producers keep filling the
  /// per-session FIFOs while the GEMM runs. The one-token-in-flight
  /// invariant makes this worker the sole consumer of every track it
  /// drains. Returns early — re-queueing the token of every track with
  /// updates left — when the shared queue holds work between rounds.
  /// Called once per pop with every token under coalescing, and once per
  /// token with `coalesce_sessions` off.
  void drain_sessions(const std::vector<SessionId>& ids, Telemetry& telemetry);
  /// The one completion path for Wi-Fi micro-batches and IMU rounds.
  /// Stamps kDequeued (at `taken_ns`, the instant the batch's inputs were
  /// taken) and kAssembled, runs `compute` (-> one Fix per ticket), stamps
  /// kComputed, records the batch under one hold of `telemetry`'s lock (the
  /// calling worker's own shard), hands the fixes
  /// to `publish` (the Wi-Fi cache fill) and only then fulfils the promises
  /// and finishes the traces; yields the core if it woke an interactive
  /// caller. Defined in engine.cpp, its only user.
  template <typename Ticket, typename Compute, typename Publish>
  void complete_batch(std::vector<Ticket>& tickets, std::uint64_t taken_ns,
                      Telemetry& telemetry, Compute&& compute, Publish&& publish);
  /// Resolves the effective deadline: explicit > engine default > none.
  std::optional<Clock::time_point> resolve_deadline(const SubmitOptions& options,
                                                    const Clock::time_point& now) const;
  /// Fails `promise` with DeadlineExpired and counts the expiry.
  void expire_promise(std::promise<serve::Fix>& promise, RequestClass cls);

  EngineConfig config_;
  std::vector<std::unique_ptr<WifiBackend>> replicas_;  ///< one per worker
  std::optional<serve::ImuLocalizer> imu_;
  BoundedQueue<Request> queue_;
  /// Admission copies of queued scans: a slot per queue entry plus one per
  /// batch seat, so the owned-copy fallback only covers submitters caught
  /// between taking a slot and a rejected push.
  ScanPool scan_pool_;
  std::optional<FingerprintCache> cache_;  ///< engaged iff cache_capacity > 0

  /// Admission counters are obs::Counter (thread-striped atomics): many
  /// submitter threads increment without sharing a cache line. Indexed by
  /// request_class_index(); the EngineStats totals are derived from them.
  obs::Counter class_accepted_[kNumRequestClasses];
  obs::Counter class_rejected_[kNumRequestClasses];
  obs::Counter class_expired_[kNumRequestClasses];
  /// Cache admission outcomes, engine-owned rather than read from the
  /// cache's own counters: a miss is only counted once the Wi-Fi scan is
  /// actually admitted to the queue, so kQueueFull retry loops cannot
  /// deflate the hit rate. (IMU updates are stateful and never cached.)
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  /// One shard per worker, then the admission path's. Their histogram
  /// counts are the completed/batches/imu_batches totals, and each batch is
  /// recorded under one hold of its shard's lock, so it lands whole.
  std::unique_ptr<Telemetry[]> telemetry_;

  mutable std::mutex sessions_mu_;  ///< guards the registry map only
  std::unordered_map<SessionId, std::shared_ptr<SessionState>> sessions_;
  std::atomic<SessionId> next_session_{1};

  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mu_;  ///< serializes the join in shutdown()
  std::vector<std::thread> workers_;
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_ENGINE_H_
