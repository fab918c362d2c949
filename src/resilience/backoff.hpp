// Decorrelated-jitter retry backoff.
//
// The resilience pipeline retries rung attempts that failed with a
// Transient error class (common/error.hpp). Naive fixed or purely
// exponential delays synchronize retry storms: every caller that failed at
// t=0 retries at exactly t=d, collides again, and repeats. The
// decorrelated-jitter schedule (from the AWS architecture blog's
// "Exponential Backoff And Jitter" analysis) draws each delay uniformly
// from [base, prev * kBackoffMultiplier] capped at `cap`, which spreads
// retries while still growing the expected delay geometrically.
//
// Header-only and driven by the repo's deterministic Rng: for a fixed seed
// the delay sequence is reproducible, so retry telemetry fingerprints are
// byte-identical across runs and thread counts. The class only *computes*
// delays; sleeping (and clamping against the caller's remaining deadline)
// is the caller's job.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"

namespace qmap::resilience {

/// Growth factor: delay_k is drawn from [base, delay_{k-1} * 3].
inline constexpr double kBackoffMultiplier = 3.0;

struct BackoffOptions {
  /// Lower bound of every draw and the first delay's scale (milliseconds).
  double base_ms = 1.0;
  /// Hard upper bound on any single delay (milliseconds).
  double cap_ms = 250.0;
};

class Backoff {
 public:
  explicit Backoff(BackoffOptions options = {}, std::uint64_t seed = 0xB0FF)
      : options_(options), rng_(seed), prev_ms_(options.base_ms) {}

  /// The next delay in milliseconds. Deterministic for a fixed seed.
  [[nodiscard]] double next_ms() {
    const double hi = std::max(options_.base_ms, prev_ms_ * kBackoffMultiplier);
    const double drawn = rng_.uniform(options_.base_ms, hi);
    prev_ms_ = std::min(options_.cap_ms, drawn);
    return prev_ms_;
  }

  /// Restarts the schedule (a fresh rung restarts its retry budget but
  /// keeps consuming the same Rng stream, so two rungs never mirror each
  /// other's delays).
  void reset() { prev_ms_ = options_.base_ms; }

  [[nodiscard]] const BackoffOptions& options() const noexcept {
    return options_;
  }

 private:
  BackoffOptions options_;
  Rng rng_;
  double prev_ms_;
};

}  // namespace qmap::resilience
