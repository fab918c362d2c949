// Per-dependency circuit breaker over the ErrorClass taxonomy.
//
// A long-lived compile service fronts many devices; when one device's
// pipeline starts failing deterministically (a corrupted calibration, a
// pass stack that crashes on that topology), every further request routed
// at it burns a full fallback-ladder run just to fail again. The breaker
// is the classic three-state remedy, wired to the same recovery taxonomy
// the retry/fallback ladder acts on (common/error.hpp):
//
//   Closed    — normal operation. Failures classified Permanent (or a
//               crash that escaped the ladder) count; `failure_threshold`
//               *consecutive* ones trip the breaker. Transient and
//               ResourceExhausted outcomes never count: a deadline slice
//               expiring or a too-big request says nothing about the
//               device's health.
//   Open      — fast-fail: try_acquire() denies immediately (the service
//               answers `status:"unavailable"` with `retry_after_ms`)
//               until `open_ms` has elapsed on the injectable clock.
//   HalfOpen  — after `open_ms`, one probe request at a time is let
//               through. A successful probe closes the breaker; a
//               Permanent failure re-opens it (with a fresh open window).
//
// Every try_acquire() that returned true must be balanced by exactly one
// of on_success() / on_failure() / release() — release() is the neutral
// verdict for outcomes that say nothing about the dependency (cache hit,
// admission rejection, cancellation). `record(ok, error_class)` maps a
// compile outcome onto that trio. State transitions invoke the
// `on_transition` callback (under the lock; keep it cheap — the compile
// service increments service.breaker_* counters there).
//
// The clock is injectable (BreakerConfig::now_us) so tests can step
// deterministically through open -> half-open -> closed without sleeping,
// mirroring CacheConfig::now_us.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>

#include "common/error.hpp"

namespace qmap::resilience {

struct BreakerConfig {
  /// Consecutive Permanent/crash failures that trip the breaker.
  /// <= 0 disables the breaker entirely (try_acquire always passes).
  int failure_threshold = 5;
  /// How long the breaker stays open before allowing a half-open probe.
  double open_ms = 5000.0;
  /// Microsecond clock for the open window; defaults to steady_clock.
  /// Tests inject a fake to step through the states deterministically.
  std::function<std::int64_t()> now_us;
};

enum class BreakerState { Closed, Open, HalfOpen };

[[nodiscard]] const char* breaker_state_name(BreakerState state);

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {});

  /// Admission check. True = proceed (and owe exactly one verdict call);
  /// false = fast-fail without touching the dependency. An expired open
  /// window transitions Open -> HalfOpen inside this call.
  [[nodiscard]] bool try_acquire();

  /// Neutral verdict: the acquisition ran no work that reflects on the
  /// dependency (cache hit, coalesced join, admission rejection,
  /// cancellation). Frees the half-open probe slot without counting.
  void release();
  /// The acquired work succeeded.
  void on_success();
  /// The acquired work failed in a way that indicts the dependency
  /// (ErrorClass::Permanent or an escaped exception).
  void on_failure();
  /// Maps a compile outcome onto the verdict trio: ok -> on_success,
  /// Permanent -> on_failure, anything else (Transient, including
  /// cancellation, and ResourceExhausted) -> release.
  void record(bool ok, ErrorClass error_class);

  [[nodiscard]] BreakerState state() const;
  /// Milliseconds until the open window lapses (0 unless Open).
  [[nodiscard]] double retry_after_ms() const;
  [[nodiscard]] int consecutive_failures() const;

  /// Invoked on every state change, under the breaker lock, with the new
  /// state. Set once right after construction, before concurrent use.
  std::function<void(BreakerState)> on_transition;

 private:
  [[nodiscard]] std::int64_t now_us_() const;
  void transition_(BreakerState next);  // requires mutex_ held

  BreakerConfig config_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  /// True while the one half-open probe is out.
  bool probe_in_flight_ = false;
  std::int64_t opened_at_us_ = 0;
};

}  // namespace qmap::resilience
