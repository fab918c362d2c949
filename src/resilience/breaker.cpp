#include "resilience/breaker.hpp"

#include <chrono>
#include <utility>

namespace qmap::resilience {

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "closed";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config)
    : config_(std::move(config)) {}

std::int64_t CircuitBreaker::now_us_() const {
  if (config_.now_us) return config_.now_us();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CircuitBreaker::transition_(BreakerState next) {
  if (state_ == next) return;
  state_ = next;
  // Every transition starts or ends a half-open episode: no probe is out.
  probe_in_flight_ = false;
  if (next == BreakerState::Open) {
    opened_at_us_ = now_us_();
  }
  if (next == BreakerState::Closed) {
    consecutive_failures_ = 0;
  }
  if (on_transition) on_transition(next);
}

BreakerPermit CircuitBreaker::try_acquire() {
  using Kind = BreakerPermit::Kind;
  if (config_.failure_threshold <= 0) return BreakerPermit(Kind::Normal);
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::Open) {
    const double elapsed_ms =
        static_cast<double>(now_us_() - opened_at_us_) / 1000.0;
    if (elapsed_ms < config_.open_ms) return BreakerPermit();
    transition_(BreakerState::HalfOpen);
  }
  if (state_ == BreakerState::HalfOpen) {
    if (probe_in_flight_) return BreakerPermit();
    probe_in_flight_ = true;
    return BreakerPermit(Kind::Probe);
  }
  return BreakerPermit(Kind::Normal);
}

void CircuitBreaker::release(BreakerPermit permit) {
  if (!permit.probe()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  probe_in_flight_ = false;
}

void CircuitBreaker::on_success(BreakerPermit permit) {
  if (config_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (permit.probe()) {
    transition_(BreakerState::Closed);
  } else if (state_ == BreakerState::Closed) {
    consecutive_failures_ = 0;
  }
}

void CircuitBreaker::on_failure(BreakerPermit permit) {
  if (config_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (permit.probe()) {
    transition_(BreakerState::Open);
  } else if (state_ == BreakerState::Closed &&
             ++consecutive_failures_ >= config_.failure_threshold) {
    transition_(BreakerState::Open);
  }
}

void CircuitBreaker::record(BreakerPermit permit, bool ok,
                            ErrorClass error_class) {
  if (ok) {
    on_success(permit);
  } else if (error_class == ErrorClass::Permanent) {
    on_failure(permit);
  } else {
    release(permit);
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

double CircuitBreaker::retry_after_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != BreakerState::Open) return 0.0;
  const double elapsed_ms =
      static_cast<double>(now_us_() - opened_at_us_) / 1000.0;
  return elapsed_ms >= config_.open_ms ? 0.0 : config_.open_ms - elapsed_ms;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return consecutive_failures_;
}

}  // namespace qmap::resilience
