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
// try_acquire() hands back a BreakerPermit naming what it granted: a
// normal permit (Closed, or a disabled breaker), the half-open probe, or
// nothing. Every granted permit must be passed back to exactly one of
// on_success() / on_failure() / release() — release() is the neutral
// verdict for outcomes that say nothing about the dependency (cache hit,
// admission rejection, cancellation). `record(permit, ok, error_class)`
// maps a compile outcome onto that trio. Only the probe's verdict frees
// the probe slot or moves HalfOpen to Closed or Open; a normal permit's
// verdict counts only while the breaker is Closed, so a request admitted
// before a trip that finishes after it cannot free the probe slot or
// decide the probe's outcome. State transitions invoke the
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

/// What CircuitBreaker::try_acquire() granted. A denied permit (false)
/// owes no verdict; a granted one owes exactly one verdict call, made with
/// this permit.
class BreakerPermit {
 public:
  /// A denied permit.
  BreakerPermit() = default;

  /// True when the request may proceed.
  explicit operator bool() const noexcept { return kind_ != Kind::Denied; }
  /// True for the one half-open probe.
  [[nodiscard]] bool probe() const noexcept { return kind_ == Kind::Probe; }

 private:
  friend class CircuitBreaker;
  enum class Kind { Denied, Normal, Probe };
  explicit BreakerPermit(Kind kind) noexcept : kind_(kind) {}

  Kind kind_ = Kind::Denied;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {});

  /// Admission check. A granted permit = proceed (and owe exactly one
  /// verdict call with it); a denied one = fast-fail without touching the
  /// dependency. An expired open window transitions Open -> HalfOpen
  /// inside this call, and the permit it then grants is the probe.
  [[nodiscard]] BreakerPermit try_acquire();

  /// Neutral verdict: the acquisition ran no work that reflects on the
  /// dependency (cache hit, coalesced join, admission rejection,
  /// cancellation). A probe's release frees the probe slot without
  /// counting.
  void release(BreakerPermit permit);
  /// The acquired work succeeded. The probe's success closes the breaker.
  void on_success(BreakerPermit permit);
  /// The acquired work failed in a way that indicts the dependency
  /// (ErrorClass::Permanent or an escaped exception). The probe's failure
  /// re-opens the breaker.
  void on_failure(BreakerPermit permit);
  /// Maps a compile outcome onto the verdict trio: ok -> on_success,
  /// Permanent -> on_failure, anything else (Transient, including
  /// cancellation, and ResourceExhausted) -> release.
  void record(BreakerPermit permit, bool ok, ErrorClass error_class);

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
