#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <istream>
#include <ostream>
#include <utility>

#include "arch/builtin.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "qasm/openqasm.hpp"

namespace qmap::service {

namespace {

[[nodiscard]] double wall_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Response status for a cached/computed outcome. Admission rejections are
/// stored with an "rejected:" error prefix so hits replay the same status
/// the cold path answered.
[[nodiscard]] std::string status_of(const CachedOutcome& value) {
  if (value.ok) return "ok";
  if (starts_with(value.error, "rejected")) return "rejected";
  return "error";
}

}  // namespace

ServiceRequest ServiceRequest::from_json(const Json& json) {
  ServiceRequest request;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "op") {
      request.op = value.as_string();
    } else if (key == "id") {
      request.id = value.as_string();
    } else if (key == "client") {
      request.client = value.as_string();
    } else if (key == "device") {
      request.device = value.as_string();
    } else if (key == "qasm") {
      request.qasm = value.as_string();
    } else if (key == "pipeline") {
      request.pipeline = PipelineSpec::from_json(value);
    } else if (key == "seed") {
      // JSON numbers are doubles: only integers in [0, 2^53) convert to a
      // seed exactly, so anything else is refused rather than cast.
      const double seed = value.as_number();
      if (!(seed >= 0.0 && seed < 9007199254740992.0) ||
          seed != std::floor(seed)) {
        throw MappingError(
            "service request: field 'seed' must be an integer in "
            "[0, 2^53)");
      }
      request.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "deadline_ms") {
      request.deadline_ms = value.as_number();
    } else if (key == "no_cache") {
      request.no_cache = value.as_bool();
    } else if (key == "verbose") {
      request.verbose = value.as_bool();
    } else {
      throw MappingError("service request: unknown field '" + key +
                         "' (valid: client, deadline_ms, device, id, "
                         "no_cache, op, pipeline, qasm, seed, verbose)");
    }
  }
  if (request.op != "compile" && request.op != "stats" &&
      request.op != "disconnect" && request.op != "ping") {
    throw MappingError("service request: unknown op '" + request.op +
                       "' (valid: compile, disconnect, ping, stats)");
  }
  if (request.client.empty()) request.client = "anon";
  return request;
}

Json ServiceRequest::to_json() const {
  JsonObject object;
  object["op"] = op;
  if (!id.empty()) object["id"] = id;
  object["client"] = client;
  if (!device.empty()) object["device"] = device;
  if (!qasm.empty()) object["qasm"] = qasm;
  if (pipeline.has_value()) object["pipeline"] = pipeline->to_json();
  object["seed"] = seed;
  if (deadline_ms > 0.0) object["deadline_ms"] = deadline_ms;
  if (no_cache) object["no_cache"] = true;
  if (verbose) object["verbose"] = true;
  return Json(std::move(object));
}

Json ServiceResponse::to_json() const {
  JsonObject object;
  if (!id.empty()) object["id"] = id;
  object["client"] = client;
  object["status"] = status;
  if (!cache.empty()) object["cache"] = cache;
  if (!fingerprint.empty()) object["fingerprint"] = fingerprint;
  if (rung >= 0) object["rung"] = rung;
  if (!winner.empty()) object["winner"] = winner;
  if (rung >= 0) object["validated"] = validated;
  object["wall_ms"] = wall_ms;
  if (!error.empty()) object["error"] = error;
  if (retry_after_ms > 0.0) object["retry_after_ms"] = retry_after_ms;
  if (!mode.empty()) object["mode"] = mode;
  if (!payload.is_null()) object["payload"] = payload;
  return Json(std::move(object));
}

std::string canonical_request_text(const ServiceRequest& request,
                                   const Circuit& circuit,
                                   double effective_deadline_ms) {
  // Versioned so a future change to the key recipe invalidates (rather
  // than aliases) old entries. The circuit is re-serialized from the
  // parsed IR: whitespace, comments, and register naming in the source
  // cannot split the cache.
  std::string text = "qmap-service-request/v1\n";
  text += "device=" + request.device + "\n";
  text += "seed=" + std::to_string(request.seed) + "\n";
  text += "deadline_ms=" + format_double(effective_deadline_ms) + "\n";
  text += "pipeline=";
  text += request.pipeline.has_value()
              ? request.pipeline->canonical_json().dump()
              : std::string("portfolio");
  text += "\nqasm=\n" + to_openqasm(circuit);
  return text;
}

CompileService::CompileService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache, config_.obs),
      compile_pool_(config_.num_compile_threads) {
  config_.num_workers = std::max(1, config_.num_workers);
  cost_estimate_ms_ = std::max(0.0, config_.overload.initial_cost_ms);
  register_device(devices::ibm_qx4());
  register_device(devices::ibm_qx5());
  register_device(devices::surface7());
  register_device(devices::surface17());
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CompileService::~CompileService() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void CompileService::register_device(Device device) {
  resilience::Policy policy = config_.policy;
  policy.obs = config_.obs;
  auto supervisor = std::make_unique<resilience::ResilientCompiler>(
      device, std::move(policy));
  std::string name = device.name();
  auto breaker =
      std::make_unique<resilience::CircuitBreaker>(config_.breaker);
  breaker->on_transition = [this, name](resilience::BreakerState state) {
    // Counters are aggregation-point increments (byte-deterministic for a
    // deterministic failure sequence); the per-device gauge is the live
    // dashboard view: 0 closed, 1 half-open, 2 open.
    switch (state) {
      case resilience::BreakerState::Open:
        obs::add(config_.obs, "service.breaker_open");
        break;
      case resilience::BreakerState::HalfOpen:
        obs::add(config_.obs, "service.breaker_half_open");
        break;
      case resilience::BreakerState::Closed:
        obs::add(config_.obs, "service.breaker_closed");
        break;
    }
    obs::set_gauge(config_.obs, "service.breaker." + name + ".state",
                   state == resilience::BreakerState::Closed   ? 0.0
                   : state == resilience::BreakerState::HalfOpen ? 1.0
                                                                 : 2.0);
  };
  std::lock_guard<std::mutex> lock(devices_mutex_);
  devices_.insert_or_assign(
      std::move(name), DeviceEntry{std::move(device), std::move(supervisor),
                                   std::move(breaker)});
}

std::vector<std::string> CompileService::device_names() const {
  std::lock_guard<std::mutex> lock(devices_mutex_);
  std::vector<std::string> names;
  names.reserve(devices_.size());
  for (const auto& [name, entry] : devices_) names.push_back(name);
  return names;
}

ServiceResponse CompileService::handle(const ServiceRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::add(config_.obs, "service.requests");

  ServiceResponse response;
  if (request.op == "ping") {
    response.id = request.id;
    response.client = request.client;
    response.status = "pong";
  } else if (request.op == "stats") {
    response = stats_response(request);
  } else if (request.op == "disconnect") {
    disconnect(request.client);
    response.id = request.id;
    response.client = request.client;
    response.status = "ok";
  } else {
    response = handle_compile(request);
  }

  response.wall_ms = wall_since(start);
  obs::observe(config_.obs, "service.latency_ms", response.wall_ms);
  if (config_.obs != nullptr) {
    obs::observe(config_.obs, client_latency_metric(request.client),
                 response.wall_ms);
  }
  if (response.status == "ok" || response.status == "pong" ||
      response.status == "stats") {
    obs::add(config_.obs, "service.requests.ok");
  } else if (response.status == "rejected") {
    obs::add(config_.obs, "service.requests.rejected");
  } else if (response.status == "cancelled") {
    obs::add(config_.obs, "service.requests.cancelled");
  } else if (response.status == "unavailable") {
    obs::add(config_.obs, "service.requests.unavailable");
  } else {
    obs::add(config_.obs, "service.requests.failed");
  }
  return response;
}

std::string CompileService::client_latency_metric(const std::string& client) {
  const std::lock_guard<std::mutex> lock(client_metrics_mutex_);
  if (client_metric_ids_.size() < kMaxClientLatencyHistograms) {
    client_metric_ids_.insert(client);
  }
  if (!client_metric_ids_.contains(client)) {
    return "service.client.overflow.latency_ms";
  }
  return "service.client." + client + ".latency_ms";
}

ServiceResponse CompileService::stats_response(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.client = request.client;
  response.status = "stats";
  const CacheStats stats = cache_.stats();
  JsonObject cache;
  cache["hits"] = stats.hits;
  cache["negative_hits"] = stats.negative_hits;
  cache["misses"] = stats.misses;
  cache["coalesced"] = stats.coalesced;
  cache["evictions"] = stats.evictions;
  cache["expired"] = stats.expired;
  cache["insert_rejected"] = stats.insert_rejected;
  cache["bytes"] = stats.bytes;
  cache["entries"] = stats.entries;
  JsonObject payload;
  payload["cache"] = Json(std::move(cache));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    payload["queued"] = queued_;
  }
  JsonArray devices;
  for (auto& name : device_names()) devices.emplace_back(std::move(name));
  payload["devices"] = Json(std::move(devices));
  response.payload = Json(std::move(payload));
  return response;
}

namespace {

/// Copies the cached fields every response shape shares.
void fill_from_outcome(ServiceResponse& response, const CachedOutcome& value,
                       bool verbose) {
  response.status = status_of(value);
  response.fingerprint = value.fingerprint_digest;
  response.rung = value.rung;
  response.winner = value.winner_label;
  response.validated = value.validated;
  response.error = value.error;
  if (value.brownout) response.mode = "brownout";
  if (verbose && !value.outcome_json.empty()) {
    response.payload = Json::parse(value.outcome_json);
  }
}

/// Settles the breaker verdict for a finished compile. Admission
/// rejections are per-request verdicts (too many qubits), not device
/// health — they release the acquisition instead of counting.
void settle_breaker(resilience::CircuitBreaker& breaker,
                    resilience::BreakerPermit permit,
                    const CachedOutcome& value) {
  if (!value.ok && starts_with(value.error, "rejected")) {
    breaker.release(permit);
    return;
  }
  breaker.record(permit, value.ok, value.error_class);
}

}  // namespace

ServiceResponse CompileService::handle_compile(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.client = request.client;

  const DeviceEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(devices_mutex_);
    auto it = devices_.find(request.device);
    if (it != devices_.end()) entry = &it->second;
  }
  if (entry == nullptr) {
    obs::add(config_.obs, "service.requests.invalid");
    response.status = "error";
    response.error = "unknown device '" + request.device +
                     "' (registered: " + join(device_names(), ", ") + ")";
    return response;
  }

  Circuit circuit;
  try {
    circuit = parse_openqasm(request.qasm);
  } catch (const std::exception& e) {
    obs::add(config_.obs, "service.requests.invalid");
    response.status = "error";
    response.error = std::string("qasm parse failed: ") + e.what();
    return response;
  }

  const double effective_deadline_ms = request.deadline_ms > 0.0
                                           ? request.deadline_ms
                                           : config_.default_deadline_ms;

  resilience::CircuitBreaker& breaker = *entry->breaker;

  if (request.no_cache) {
    const resilience::BreakerPermit permit = breaker.try_acquire();
    if (!permit) {
      obs::add(config_.obs, "service.breaker_fast_fail");
      response.status = "unavailable";
      response.error =
          "device '" + request.device + "' circuit breaker open";
      response.retry_after_ms =
          std::max(breaker.retry_after_ms(), kRetryAfterFloorMs);
      return response;
    }
    obs::add(config_.obs, "service.cache.bypass");
    const CachedOutcome value =
        guarded_compile(*entry, request, circuit, effective_deadline_ms,
                        &drain_token_, brownout_active());
    settle_breaker(breaker, permit, value);
    fill_from_outcome(response, value, request.verbose);
    response.cache = "bypass";
    return response;
  }

  const std::string key = content_digest(
      canonical_request_text(request, circuit, effective_deadline_ms));

  const resilience::BreakerPermit permit = breaker.try_acquire();
  if (!permit) {
    // Open breaker: cached answers (positive or negative — both are
    // deterministic replays) still serve; only fresh work at the sick
    // device fast-fails.
    if (const auto cached = cache_.lookup(key)) {
      fill_from_outcome(response, *cached, request.verbose);
      response.cache = cached->ok ? "hit" : "negative-hit";
      return response;
    }
    obs::add(config_.obs, "service.breaker_fast_fail");
    response.status = "unavailable";
    response.error = "device '" + request.device + "' circuit breaker open";
    response.retry_after_ms =
        std::max(breaker.retry_after_ms(), kRetryAfterFloorMs);
    return response;
  }

  ResultCache::Lookup lookup = cache_.acquire(key);

  switch (lookup.kind) {
    case ResultCache::Lookup::Kind::Hit: {
      breaker.release(permit);  // no fresh work ran; verdict is neutral
      fill_from_outcome(response, *lookup.value, request.verbose);
      response.cache = lookup.value->ok ? "hit" : "negative-hit";
      return response;
    }
    case ResultCache::Lookup::Kind::Follower: {
      breaker.release(permit);  // the leader owns this compile's verdict
      track_flight(request.client, lookup.flight);
      const auto value = cache_.wait(lookup.flight);
      if (value == nullptr) {
        // Leader abandoned (cancelled): nothing was cached; this client's
        // request dies with the flight it joined.
        untrack_flight(request.client, lookup.flight.get());
        response.status = "cancelled";
        response.cache = "coalesced";
        response.error = "compile cancelled before completion";
        return response;
      }
      untrack_flight(request.client, lookup.flight.get());
      fill_from_outcome(response, *value, request.verbose);
      response.cache = "coalesced";
      return response;
    }
    case ResultCache::Lookup::Kind::Leader:
      break;
  }

  // Drain cancels stragglers through this parent link; the flight's own
  // token still fires on total client disinterest as before.
  lookup.flight->token().link_parent(&drain_token_);

  track_flight(request.client, lookup.flight);
  const CachedOutcome value =
      guarded_compile(*entry, request, circuit, effective_deadline_ms,
                      &lookup.flight->token(), brownout_active());

  if (!value.ok && lookup.flight->token().cancelled()) {
    // Every interested client hung up mid-compile (or drain fired); don't
    // poison the cache with a cancellation artifact, and don't count it
    // against the device either.
    breaker.release(permit);
    cache_.abandon(lookup.flight);
    untrack_flight(request.client, lookup.flight.get());
    response.status = "cancelled";
    response.cache = "miss";
    response.error = value.error.empty() ? "compile cancelled" : value.error;
    return response;
  }

  settle_breaker(breaker, permit, value);
  // Brownout answers are delivered (to this client and every follower)
  // but never stored: a degraded rung-2 result must not be replayed as a
  // hit after the overload clears.
  cache_.complete(lookup.flight, value, /*store=*/!value.brownout);
  untrack_flight(request.client, lookup.flight.get());
  fill_from_outcome(response, value, request.verbose);
  response.cache = "miss";
  return response;
}

CachedOutcome CompileService::guarded_compile(const DeviceEntry& entry,
                                              const ServiceRequest& request,
                                              const Circuit& circuit,
                                              double effective_deadline_ms,
                                              const CancelToken* cancel,
                                              bool brownout) {
  const auto start = std::chrono::steady_clock::now();
  CachedOutcome value;
  try {
    value = run_compile(entry, request, circuit, effective_deadline_ms,
                        cancel, brownout);
  } catch (const std::exception& e) {
    // An exception that escaped the shielded ladder indicts the device's
    // pipeline as hard as any Permanent failure.
    value.ok = false;
    value.error = std::string("compile threw: ") + e.what();
    value.error_class = ErrorClass::Permanent;
    value.brownout = brownout;
  }
  record_cost(wall_since(start));
  return value;
}

CachedOutcome CompileService::run_compile(const DeviceEntry& entry,
                                          const ServiceRequest& request,
                                          const Circuit& circuit,
                                          double effective_deadline_ms,
                                          const CancelToken* cancel,
                                          bool brownout) {
  CachedOutcome out;

  // Shared admission path: the same supervisor assess() that
  // resilience::compile and compile_batch run. Rejections are answered
  // (and negatively cached) without constructing a per-request compiler.
  const resilience::AdmissionReport admission =
      entry.supervisor->assess(circuit);
  if (!admission.admitted()) {
    out.ok = false;
    out.error = "rejected: " + join(admission.reasons, "; ");
    out.outcome_json = admission.to_json().dump();
    return out;
  }

  resilience::Policy policy = config_.policy;
  policy.seed = request.seed;
  policy.deadline_ms = effective_deadline_ms;
  policy.obs = config_.obs;
  policy.cancel = cancel;
  if (request.pipeline.has_value()) {
    // A pinned pipeline runs as rung 1 (with the never-fails rung below
    // it); no portfolio race is spent on a request that asked for one
    // strategy. Canonical form so the rung label/report match the cache
    // key's normalization.
    policy.rung1_pipeline = request.pipeline->canonical();
    policy.first_rung = std::max(policy.first_rung, 1);
  }
  if (brownout) {
    // Sustained overload: skip straight to the cheap never-fails rung so
    // the queue keeps moving. The answer is marked and never cached.
    policy.first_rung = std::max(policy.first_rung, 2);
    out.brownout = true;
    obs::add(config_.obs, "service.brownout_compiles");
  }

  const resilience::ResilientCompiler compiler(entry.device,
                                               std::move(policy));
  const resilience::CompileOutcome outcome =
      compiler.compile(circuit, compile_pool_);
  obs::add(config_.obs, "service.compiles");

  out.ok = outcome.ok;
  out.fingerprint = outcome.fingerprint();
  out.fingerprint_digest = content_digest(out.fingerprint);
  out.outcome_json = outcome.to_json().dump();
  out.winner_label = outcome.winner_label;
  out.rung = outcome.rung;
  out.validated = outcome.validated;
  out.error = outcome.error;
  if (!out.ok) {
    // Terminal recovery class for the breaker: the last rung that actually
    // attempted work decides; cancellations are Transient whatever the
    // rung reported (a hung-up client says nothing about the device).
    out.error_class = ErrorClass::Permanent;
    for (auto it = outcome.rungs.rbegin(); it != outcome.rungs.rend(); ++it) {
      if (it->skipped || it->attempts.empty()) continue;
      out.error_class = it->attempts.back().error_class;
      break;
    }
    if (out.error.find("cancel") != std::string::npos) {
      out.error_class = ErrorClass::Transient;
    }
  }
  return out;
}

void CompileService::track_flight(
    const std::string& client,
    const std::shared_ptr<ResultCache::Flight>& flight) {
  // The interest unit was acquired in ResultCache::acquire (leader: the
  // Flight's initial count; follower: retain_interest). Recording the
  // (client, flight) pair hands ownership of that unit to exactly one of
  // untrack_flight (normal completion) or disconnect (client hangup).
  std::lock_guard<std::mutex> lock(flights_mutex_);
  flights_.emplace(client, flight);
}

void CompileService::untrack_flight(const std::string& client,
                                    const ResultCache::Flight* flight) {
  std::lock_guard<std::mutex> lock(flights_mutex_);
  auto [begin, end] = flights_.equal_range(client);
  for (auto it = begin; it != end; ++it) {
    const auto held = it->second.lock();
    if (held.get() == flight) {
      flights_.erase(it);
      held->drop_interest();
      return;
    }
  }
  // Absent: disconnect() already claimed (and dropped) this unit.
}

void CompileService::disconnect(const std::string& client) {
  obs::add(config_.obs, "service.disconnects");

  // Flush queued requests first so none of them starts a flight after the
  // interest purge below.
  std::deque<Pending> flushed;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    auto it = queues_.find(client);
    if (it != queues_.end()) {
      flushed = std::move(it->second.pending);
      queues_.erase(it);
      rotation_.erase(std::remove(rotation_.begin(), rotation_.end(), client),
                      rotation_.end());
      queued_ -= flushed.size();
      obs::set_gauge(config_.obs, "service.queue_depth",
                     static_cast<double>(queued_));
      update_brownout_locked();
    }
  }
  for (auto& pending : flushed) {
    ServiceResponse response;
    response.id = pending.request.id;
    response.client = client;
    response.status = "cancelled";
    response.error = "client disconnected before dispatch";
    obs::add(config_.obs, "service.requests.cancelled");
    if (pending.done) pending.done(std::move(response));
    finish_one();
  }

  // Drop this client's interest in every in-flight compile; a flight with
  // no remaining interested client fires its CancelToken.
  std::vector<std::shared_ptr<ResultCache::Flight>> dropped;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto [begin, end] = flights_.equal_range(client);
    for (auto it = begin; it != end;) {
      if (auto flight = it->second.lock()) {
        dropped.push_back(std::move(flight));
      }
      it = flights_.erase(it);
    }
  }
  for (const auto& flight : dropped) flight->drop_interest();
}

LoadDecision CompileService::assess_load(double deadline_ms) const {
  LoadDecision decision;
  std::size_t queued = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queued = queued_;
    draining = draining_ || stopping_;
  }
  std::size_t outstanding = 0;
  {
    std::lock_guard<std::mutex> lock(outstanding_mutex_);
    outstanding = outstanding_;
  }
  double cost_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(cost_mutex_);
    cost_ms = cost_estimate_ms_;
  }
  // Outstanding (queued + executing) over the dispatcher width: the wait a
  // request admitted *now* would see if every request ahead of it costs
  // the EMA estimate.
  decision.predicted_wait_ms = static_cast<double>(outstanding) * cost_ms /
                               static_cast<double>(
                                   std::max(1, config_.num_workers));
  decision.brownout = brownout_.load(std::memory_order_relaxed);
  if (draining) {
    decision.shed = true;
    decision.reason = "service draining";
  } else if (config_.overload.max_queued_total > 0 &&
             queued >= config_.overload.max_queued_total) {
    decision.shed = true;
    decision.reason =
        "queue budget exhausted (max " +
        std::to_string(config_.overload.max_queued_total) + ")";
  } else if (deadline_ms > 0.0 &&
             decision.predicted_wait_ms > deadline_ms) {
    decision.shed = true;
    decision.reason = "predicted queue wait " +
                      format_double(decision.predicted_wait_ms) +
                      "ms exceeds deadline " + format_double(deadline_ms) +
                      "ms";
  }
  if (decision.shed) {
    decision.retry_after_ms =
        std::max(kRetryAfterFloorMs, decision.predicted_wait_ms);
  }
  return decision;
}

void CompileService::submit(ServiceRequest request,
                            std::function<void(ServiceResponse)> done) {
  // Overload admission before the queue lock: shedding is deliberately a
  // read-only decision (a racing submit may slip one request past the
  // budget; the budget is a watermark, not an invariant).
  const double effective_deadline_ms = request.deadline_ms > 0.0
                                           ? request.deadline_ms
                                           : config_.default_deadline_ms;
  const LoadDecision decision = assess_load(effective_deadline_ms);
  if (decision.shed) {
    obs::add(config_.obs, "service.requests");
    obs::add(config_.obs, "service.shed");
    ServiceResponse response;
    response.id = request.id;
    response.client = request.client;
    response.status = "shed";
    response.error = decision.reason;
    response.retry_after_ms = decision.retry_after_ms;
    if (done) done(std::move(response));
    return;
  }

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ || draining_) {
      rejected = true;
    } else {
      ClientQueue& queue = queues_[request.client];
      if (queue.pending.size() >= config_.max_queued_per_client) {
        rejected = true;
      } else {
        const bool was_idle = queue.pending.empty();
        const std::string client = request.client;
        queue.pending.push_back(Pending{std::move(request), std::move(done)});
        if (was_idle) rotation_.push_back(client);
        ++queued_;
        obs::set_gauge(config_.obs, "service.queue_depth",
                       static_cast<double>(queued_));
        update_brownout_locked();
        {
          std::lock_guard<std::mutex> outstanding_lock(outstanding_mutex_);
          ++outstanding_;
        }
      }
    }
  }
  if (rejected) {
    obs::add(config_.obs, "service.requests");
    obs::add(config_.obs, "service.requests.rejected");
    ServiceResponse response;
    response.id = request.id;
    response.client = request.client;
    response.status = "rejected";
    response.error = "client queue full (max " +
                     std::to_string(config_.max_queued_per_client) + ")";
    if (done) done(std::move(response));
    return;
  }
  queue_cv_.notify_one();
}

std::future<ServiceResponse> CompileService::submit(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  submit(std::move(request), [promise](ServiceResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void CompileService::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !rotation_.empty(); });
      if (rotation_.empty()) {
        // stopping_ and fully drained: outstanding requests were all
        // answered before the destructor let workers exit.
        return;
      }
      // Round-robin: serve the head client one request, then rotate it to
      // the back if it still has work. A flooding client advances one
      // request per full rotation, the same as everyone else.
      const std::string client = std::move(rotation_.front());
      rotation_.pop_front();
      auto it = queues_.find(client);
      if (it == queues_.end() || it->second.pending.empty()) {
        if (it != queues_.end()) queues_.erase(it);
        continue;
      }
      pending = std::move(it->second.pending.front());
      it->second.pending.pop_front();
      if (it->second.pending.empty()) {
        queues_.erase(it);
      } else {
        rotation_.push_back(client);
      }
      --queued_;
      obs::set_gauge(config_.obs, "service.queue_depth",
                     static_cast<double>(queued_));
      update_brownout_locked();
    }
    ServiceResponse response = handle(pending.request);
    if (pending.done) pending.done(std::move(response));
    finish_one();
  }
}

void CompileService::finish_one() {
  std::lock_guard<std::mutex> lock(outstanding_mutex_);
  --outstanding_;
  outstanding_cv_.notify_all();
}

void CompileService::wait_idle() {
  std::unique_lock<std::mutex> lock(outstanding_mutex_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void CompileService::update_brownout_locked() {
  if (config_.overload.max_queued_total == 0) return;
  const double total =
      static_cast<double>(config_.overload.max_queued_total);
  const double depth = static_cast<double>(queued_);
  const bool active = brownout_.load(std::memory_order_relaxed);
  if (!active &&
      depth >= config_.overload.brownout_enter_fraction * total) {
    brownout_.store(true, std::memory_order_relaxed);
    obs::add(config_.obs, "service.brownout_entered");
    obs::set_gauge(config_.obs, "service.brownout", 1.0);
  } else if (active &&
             depth <= config_.overload.brownout_exit_fraction * total) {
    brownout_.store(false, std::memory_order_relaxed);
    obs::add(config_.obs, "service.brownout_exited");
    obs::set_gauge(config_.obs, "service.brownout", 0.0);
  }
}

bool CompileService::brownout_active() const noexcept {
  return brownout_.load(std::memory_order_relaxed);
}

void CompileService::record_cost(double wall_ms) {
  std::lock_guard<std::mutex> lock(cost_mutex_);
  const double alpha =
      std::min(1.0, std::max(0.0, config_.overload.cost_ema_alpha));
  cost_estimate_ms_ = (1.0 - alpha) * cost_estimate_ms_ + alpha * wall_ms;
  obs::set_gauge(config_.obs, "service.cost_estimate_ms", cost_estimate_ms_);
}

resilience::BreakerState CompileService::breaker_state(
    const std::string& device) const {
  std::lock_guard<std::mutex> lock(devices_mutex_);
  const auto it = devices_.find(device);
  if (it == devices_.end()) return resilience::BreakerState::Closed;
  return it->second.breaker->state();
}

bool CompileService::draining() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return draining_;
}

DrainReport CompileService::drain(double deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  DrainReport report;
  {
    std::unique_lock<std::mutex> lock(outstanding_mutex_);
    if (deadline_ms > 0.0) {
      report.clean = outstanding_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(deadline_ms),
          [this] { return outstanding_ == 0; });
    } else {
      outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
    }
  }
  if (!report.clean) {
    // Deadline passed with work still in flight: fire the drain token —
    // every leader/bypass compile is parent-linked to it — and wait for
    // the cancellations to flush. Each request still gets its response
    // (status "cancelled"), just not its result.
    obs::add(config_.obs, "service.drain_forced");
    drain_token_.cancel();
    std::unique_lock<std::mutex> lock(outstanding_mutex_);
    outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }
  report.wall_ms = wall_since(start);
  obs::observe(config_.obs, "service.drain_ms", report.wall_ms);
  return report;
}

namespace {

enum class LineRead { Eof, Ok, OverCap };

/// getline with a byte cap: an over-cap line is discarded (the bytes are
/// drained up to the newline but never accumulated, so one hostile line
/// cannot balloon memory) and reported so the caller can answer it.
/// `has_content` mirrors the serve() loop's blank-line skip: over-cap
/// whitespace runs are ignored exactly like short ones.
[[nodiscard]] LineRead read_request_line(std::istream& in, std::string& line,
                                         std::size_t cap, bool& has_content) {
  line.clear();
  has_content = false;
  std::streambuf* buf = in.rdbuf();
  bool over = false;
  bool any = false;
  for (;;) {
    const int ch = buf->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      if (!any) return LineRead::Eof;
      return over ? LineRead::OverCap : LineRead::Ok;
    }
    any = true;
    if (ch == '\n') return over ? LineRead::OverCap : LineRead::Ok;
    const char c = static_cast<char>(ch);
    if (c != ' ' && c != '\t' && c != '\r' && c != '\v' && c != '\f') {
      has_content = true;
    }
    if (over) continue;  // draining the rest of an over-cap line
    line.push_back(c);
    if (cap > 0 && line.size() > cap) {
      over = true;
      line.clear();
      line.shrink_to_fit();
    }
  }
}

}  // namespace

int CompileService::serve(std::istream& in, std::ostream& out) {
  // Workers answer concurrently; one mutex keeps response lines whole.
  // serve() outlives every pending done-callback (wait_idle below), so
  // capturing these locals by reference is safe.
  std::mutex out_mutex;
  const auto write_line = [&out, &out_mutex](const ServiceResponse& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response.to_json().dump() << "\n";
    out.flush();
  };

  int lines = 0;
  std::string line;
  for (;;) {
    bool has_content = false;
    const LineRead read = read_request_line(
        in, line, config_.max_request_line_bytes, has_content);
    if (read == LineRead::Eof) break;
    if (!has_content) continue;
    ++lines;
    if (read == LineRead::OverCap) {
      obs::add(config_.obs, "service.requests.invalid");
      ServiceResponse response;
      response.status = "error";
      response.error =
          "request line exceeds " +
          std::to_string(config_.max_request_line_bytes) + "-byte cap";
      write_line(response);
      continue;
    }
    Json json;
    ServiceRequest request;
    try {
      json = Json::parse(line);
      request = ServiceRequest::from_json(json);
    } catch (const std::exception& e) {
      obs::add(config_.obs, "service.requests.invalid");
      ServiceResponse response;
      // Compile responses arrive out of order, so echo what names the
      // request whenever the line parsed.
      if (const Json* id = json.find("id"); id && id->is_string()) {
        response.id = id->as_string();
      }
      if (const Json* client = json.find("client");
          client && client->is_string()) {
        response.client = client->as_string();
      }
      response.status = "error";
      response.error = std::string("bad request: ") + e.what();
      write_line(response);
      continue;
    }
    if (request.op == "compile") {
      submit(std::move(request), write_line);
    } else {
      // Control ops answer inline: a disconnect must flush the client's
      // queue *now*, not after it.
      write_line(handle(request));
    }
  }
  wait_idle();
  return lines;
}

}  // namespace qmap::service
