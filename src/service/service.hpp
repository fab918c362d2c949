// Compile-as-a-service: a multiplexing daemon over resilience::compile.
//
// The paper frames mapping as the repeated, expensive step between every
// algorithm and every device; at service scale the same (circuit, device,
// pipeline, seed) tuples arrive over and over from many clients. The
// CompileService is the long-running front door for that workload:
//
//   request (JSON line)                 response (JSON line)
//   ------------------                  --------------------
//   {"op":"compile","client":"a",      {"id":"r1","status":"ok",
//    "id":"r1","device":"qx4",    -->   "cache":"miss","rung":0,
//    "qasm":"OPENQASM 2.0;...",         "winner":"greedy+sabre",
//    "seed":7,"deadline_ms":500}        "fingerprint":"<digest>",...}
//
//   * multiplexing: dispatcher threads drain per-client FIFO queues in
//     round-robin order, so a client flooding requests cannot starve its
//     neighbours — each full rotation serves every waiting client once.
//     Compiles themselves fan rung-0 portfolio races onto ONE shared
//     engine ThreadPool (pool sharing, not per-request pools);
//   * admission: every cold request passes the same
//     ResilientCompiler::assess() path that resilience::compile and
//     compile_batch use — one AdmissionGuard per device, so reject and
//     down-tier behaviour cannot drift between entry points;
//   * caching: answers come from a sharded content-addressed ResultCache
//     (service/cache.hpp) keyed on the canonical request text — circuit
//     re-serialized as OpenQASM, device name, PipelineSpec::canonical_json
//     (so JSON key order or elided defaults cannot split the cache), seed
//     and deadline. Identical in-flight requests coalesce onto a single
//     compile (single-flight); repeated requests return in microseconds;
//   * determinism: a cache hit replays the byte-identical outcome
//     fingerprint the cold path produced — resilience outcomes are
//     byte-deterministic for a fixed seed, so hit and cold responses are
//     indistinguishable (pinned across 1/2/8 dispatcher threads in
//     tests/test_service.cpp);
//   * disconnects: disconnect(client) flushes the client's queued
//     requests and drops its interest in in-flight compiles; a compile no
//     other client is waiting on is cancelled through the engine's
//     CancelToken parent-links (engine/cancel.hpp) and never cached;
//   * overload control: a global queue budget on top of the per-client
//     cap, deadline-aware shedding (a request whose predicted queue wait
//     already exceeds its deadline is answered `status:"shed"` with a
//     `retry_after_ms` hint instead of compiling doomed work), and a
//     brownout mode that down-tiers cold compiles to the cheap rung-2
//     pipeline while the queue stays hot — degraded answers are delivered
//     but never cached, so they cannot outlive the overload;
//   * circuit breakers: each device owns a resilience::CircuitBreaker;
//     consecutive Permanent/crash outcomes open it and further compiles
//     fast-fail `status:"unavailable"` (cache hits still serve) until
//     timed half-open probes succeed;
//   * graceful drain: drain(deadline_ms) stops admission, waits for
//     in-flight work, then cancels stragglers through the drain token —
//     qmap_serve wires SIGTERM/SIGINT to it so a supervisor restart never
//     drops an accepted request on the floor.
//
// Transport is a JSON-lines loop over any std::istream/std::ostream
// (serve()); the qmap_serve binary wires it to stdin/stdout or a Unix
// socket. Request lines are read under a byte cap (max_request_line_bytes)
// so a hostile client cannot balloon memory with one endless line.
// Metrics land under service.* (DESIGN.md §10, linted).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/device.hpp"
#include "engine/thread_pool.hpp"
#include "ir/circuit.hpp"
#include "pass/spec.hpp"
#include "resilience/breaker.hpp"
#include "resilience/resilience.hpp"
#include "service/cache.hpp"

namespace qmap::service {

/// One parsed JSON-lines request. Unknown fields are rejected at parse so
/// a typo ("sead") fails loudly instead of silently compiling defaults.
struct ServiceRequest {
  /// "compile" (default), "stats", "disconnect", or "ping".
  std::string op = "compile";
  /// Echoed back verbatim so clients can correlate out-of-order responses.
  std::string id;
  /// Fairness/accounting identity; defaults to "anon".
  std::string client = "anon";
  /// Registered device name (compile op).
  std::string device;
  /// OpenQASM 2.0 source (compile op).
  std::string qasm;
  /// Pinned pipeline: the ladder starts at rung 1 running exactly this
  /// spec (with the never-fails rung below it) instead of racing the
  /// portfolio. Absent = full portfolio race.
  std::optional<PipelineSpec> pipeline;
  std::uint64_t seed = 0xC0FFEE;
  /// 0 = the service default.
  double deadline_ms = 0.0;
  /// Bypass the cache entirely (no lookup, no store, no coalescing).
  bool no_cache = false;
  /// Attach the full CompileOutcome JSON to the response.
  bool verbose = false;

  /// Parses one request object; throws MappingError/ParseError on unknown
  /// fields or wrong types.
  [[nodiscard]] static ServiceRequest from_json(const Json& json);
  [[nodiscard]] Json to_json() const;
};

struct ServiceResponse {
  std::string id;
  std::string client;
  /// "ok" | "error" | "rejected" | "cancelled" | "pong" | "stats" |
  /// "shed" (overload admission refused the request; retry after
  /// `retry_after_ms`) | "unavailable" (the device's circuit breaker is
  /// open; retry after `retry_after_ms`).
  std::string status;
  /// Compile ops: "hit" | "negative-hit" | "miss" | "coalesced" | "bypass".
  std::string cache;
  /// content_digest of the outcome fingerprint — byte-identical between a
  /// cold compile and every later cache hit of the same request.
  std::string fingerprint;
  int rung = -1;
  std::string winner;
  bool validated = false;
  /// Service-side latency (queue wait + compile or cache lookup).
  double wall_ms = 0.0;
  std::string error;
  /// Client backoff hint, serialized only when > 0 (shed/unavailable).
  double retry_after_ms = 0.0;
  /// "brownout" when the answer came from an overload-down-tiered compile
  /// (rung 2, never cached); empty otherwise.
  std::string mode;
  /// stats op: cache/queue stats. verbose compile: full outcome JSON.
  Json payload;

  [[nodiscard]] Json to_json() const;
};

/// Overload-control knobs. The global budget and the predicted-wait model
/// gate admission in submit(); brownout is hysteresis on the global queue
/// depth. All of it is disabled by max_queued_total = 0.
struct OverloadConfig {
  /// Global cap on queued requests across all clients (0 = unlimited,
  /// which also disables brownout).
  std::size_t max_queued_total = 256;
  /// Floor for the retry_after_ms hint on shed/unavailable responses.
  double retry_after_ms = 100.0;
  /// Cold-start per-compile cost estimate feeding the predicted-wait
  /// model before any compile has been observed.
  double initial_cost_ms = 50.0;
  /// EMA weight for observed cold-compile cost (0 pins the estimate).
  double cost_ema_alpha = 0.2;
  /// Brownout enters when queued >= enter_fraction * max_queued_total...
  double brownout_enter_fraction = 0.75;
  /// ...and exits when queued <= exit_fraction * max_queued_total.
  double brownout_exit_fraction = 0.25;
  bool brownout_enabled = true;
};

/// One admission verdict from CompileService::assess_load().
struct LoadDecision {
  bool shed = false;
  /// Human-readable shed reason (becomes the response error).
  std::string reason;
  /// outstanding * cost_estimate / num_workers at decision time.
  double predicted_wait_ms = 0.0;
  /// Backoff hint (max of the configured floor and the predicted wait).
  double retry_after_ms = 0.0;
  /// True when brownout mode was active at decision time.
  bool brownout = false;
};

/// Result of CompileService::drain().
struct DrainReport {
  /// True when every outstanding request finished inside the deadline;
  /// false when the drain token had to cancel stragglers.
  bool clean = true;
  double wall_ms = 0.0;
};

struct ServiceConfig {
  /// Dispatcher threads draining the per-client queues. Deliberately
  /// separate from the compile pool: a dispatcher blocks while its
  /// request compiles or waits on a flight, workers in the compile pool
  /// never do.
  int num_workers = 2;
  /// Shared engine ThreadPool for rung-0 portfolio races
  /// (0 = hardware concurrency).
  int num_compile_threads = 0;
  /// Per-client queue cap; submits beyond it are rejected immediately
  /// ("queue full") instead of buffering without bound.
  std::size_t max_queued_per_client = 64;
  /// Deadline applied when a request carries none (0 = unlimited).
  double default_deadline_ms = 0.0;
  /// Result cache shape (the service owns the cache; cache.obs is
  /// overridden with `obs` below).
  CacheConfig cache;
  /// Base policy for every compile; per-request seed/deadline/pipeline/
  /// cancellation are overlaid per request.
  resilience::Policy policy;
  /// Overload admission / brownout knobs.
  OverloadConfig overload;
  /// Per-device circuit breaker shape (breaker.failure_threshold <= 0
  /// disables breakers entirely).
  resilience::BreakerConfig breaker;
  /// serve(): longest request line accepted, in bytes (0 = unlimited).
  /// Over-cap lines are discarded and answered status:"error" without
  /// wedging the connection.
  std::size_t max_request_line_bytes = std::size_t(1) << 20;
  /// Register qx4/qx5/surface7/surface17 at construction.
  bool register_builtin_devices = true;
  /// Metrics/trace sink (not owned; null disables recording).
  obs::Observer* obs = nullptr;
};

/// Canonical cache-key text for a compile request (exposed for tests and
/// tools): the parsed circuit re-serialized as OpenQASM (so source
/// whitespace/register names cannot split the cache), the device name, the
/// canonical pipeline JSON or "portfolio", seed and effective deadline.
[[nodiscard]] std::string canonical_request_text(const ServiceRequest& request,
                                                 const Circuit& circuit,
                                                 double effective_deadline_ms);

class CompileService {
 public:
  /// Client ids that get their own service.client.<id>.latency_ms
  /// histogram; later ids share service.client.overflow.latency_ms, so
  /// hostile client ids cannot grow the metrics registry without bound.
  static constexpr std::size_t kMaxClientLatencyHistograms = 256;

  explicit CompileService(ServiceConfig config = {});
  /// Drains the queues (outstanding requests are answered), then joins.
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Registers (or replaces) a device; builds its ResilientCompiler and
  /// shared AdmissionGuard eagerly.
  void register_device(Device device);
  [[nodiscard]] std::vector<std::string> device_names() const;

  /// Synchronous path: cache lookup / single-flight / admission / compile
  /// on the calling thread (rung-0 races still fan onto the shared pool).
  /// Thread-safe; this is what dispatcher workers run.
  [[nodiscard]] ServiceResponse handle(const ServiceRequest& request);

  /// Queued path: enqueues onto the client's FIFO queue and returns; a
  /// dispatcher picks it up in round-robin order and invokes `done`
  /// (on the dispatcher thread) with the response.
  void submit(ServiceRequest request,
              std::function<void(ServiceResponse)> done);
  [[nodiscard]] std::future<ServiceResponse> submit(ServiceRequest request);

  /// Flushes the client's queued requests (each answered "cancelled") and
  /// drops its interest in in-flight compiles; a flight with no remaining
  /// interested client is cancelled and not cached.
  void disconnect(const std::string& client);

  /// Overload admission verdict for a request carrying `deadline_ms`
  /// (0 = no deadline). submit() consults this before enqueueing; exposed
  /// so tools/benches can probe the shed decision without side effects.
  [[nodiscard]] LoadDecision assess_load(double deadline_ms) const;

  /// Graceful drain: stop admitting (further submits are shed with
  /// "service draining"), wait up to `deadline_ms` for outstanding
  /// requests, then cancel stragglers through the drain token and wait for
  /// them to flush. Every accepted request still gets its one response.
  /// Idempotent; deadline_ms <= 0 waits without forcing. qmap_serve calls
  /// this from its SIGTERM/SIGINT handler thread.
  DrainReport drain(double deadline_ms);

  /// True once drain() has begun (new submits are being shed).
  [[nodiscard]] bool draining() const;
  /// True while brownout mode is down-tiering cold compiles.
  [[nodiscard]] bool brownout_active() const noexcept;
  /// The named device's breaker state (Closed for unknown devices).
  [[nodiscard]] resilience::BreakerState breaker_state(
      const std::string& device) const;

  /// JSON-lines loop: one request per line from `in`, one response per
  /// line to `out` in completion order (correlate by id). Returns once
  /// `in` hits EOF and every accepted request was answered. Returns the
  /// number of lines consumed.
  int serve(std::istream& in, std::ostream& out);

  /// Blocks until every queued/in-flight request has been answered.
  void wait_idle();

  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct DeviceEntry {
    Device device;
    /// Base-policy supervisor: its assess() is the one admission path
    /// (shared with resilience::compile/compile_batch by construction).
    std::unique_ptr<resilience::ResilientCompiler> supervisor;
    /// Per-device breaker; cheap no-op when failure_threshold <= 0.
    std::unique_ptr<resilience::CircuitBreaker> breaker;
  };

  struct Pending {
    ServiceRequest request;
    std::function<void(ServiceResponse)> done;
  };

  struct ClientQueue {
    std::deque<Pending> pending;
  };

  void worker_loop();
  [[nodiscard]] ServiceResponse handle_compile(const ServiceRequest& request);
  [[nodiscard]] ServiceResponse stats_response(const ServiceRequest& request);
  [[nodiscard]] CachedOutcome run_compile(const DeviceEntry& entry,
                                          const ServiceRequest& request,
                                          const Circuit& circuit,
                                          double effective_deadline_ms,
                                          const CancelToken* cancel,
                                          bool brownout);
  /// Leader/bypass compile with crash containment and cost accounting;
  /// settles the breaker verdict is left to the caller (the cancelled
  /// path needs release(), not record()).
  [[nodiscard]] CachedOutcome guarded_compile(const DeviceEntry& entry,
                                              const ServiceRequest& request,
                                              const Circuit& circuit,
                                              double effective_deadline_ms,
                                              const CancelToken* cancel,
                                              bool brownout);
  void track_flight(const std::string& client,
                    const std::shared_ptr<ResultCache::Flight>& flight);
  void untrack_flight(const std::string& client,
                      const ResultCache::Flight* flight);
  void finish_one();
  /// Re-evaluates brownout hysteresis; requires queue_mutex_ held.
  void update_brownout_locked();
  /// Folds an observed cold-compile cost into the EMA estimate.
  void record_cost(double wall_ms);
  /// The latency histogram name for `client` (see
  /// kMaxClientLatencyHistograms).
  [[nodiscard]] std::string client_latency_metric(const std::string& client);

  ServiceConfig config_;
  ResultCache cache_;
  ThreadPool compile_pool_;

  mutable std::mutex devices_mutex_;
  std::map<std::string, DeviceEntry> devices_;

  // Dispatch state: per-client FIFO queues drained round-robin.
  // (mutable: assess_load() is logically const but reads queued_.)
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::map<std::string, ClientQueue> queues_;
  /// Round-robin rotation of client names with waiting requests.
  std::deque<std::string> rotation_;
  std::size_t queued_ = 0;
  bool stopping_ = false;
  bool draining_ = false;
  std::vector<std::thread> workers_;

  // In-flight interest: client -> flights it is waiting on.
  std::mutex flights_mutex_;
  std::multimap<std::string, std::weak_ptr<ResultCache::Flight>> flights_;

  // Client ids holding their own latency histogram, at most
  // kMaxClientLatencyHistograms.
  std::mutex client_metrics_mutex_;
  std::set<std::string> client_metric_ids_;

  // Outstanding = queued + executing; serve()/wait_idle() block on zero.
  mutable std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;
  std::size_t outstanding_ = 0;

  // Overload state: EMA of cold-compile cost + brownout latch.
  mutable std::mutex cost_mutex_;
  double cost_estimate_ms_ = 0.0;  // seeded from overload.initial_cost_ms
  std::atomic<bool> brownout_{false};

  /// Parent token every leader/bypass compile links to; drain() fires it
  /// to cancel stragglers past the drain deadline.
  CancelToken drain_token_;
};

}  // namespace qmap::service
