// Resilient compilation front door: guarded, supervised, degradable.
//
// The paper's Fig. 2 pipeline — and the PR-1 portfolio engine racing it —
// assumes a well-behaved request and a healthy pass stack. This module is
// the hardened wrapper a mapping *service* actually exposes:
//
//   resilience::compile(circuit, device, policy)
//
// runs the request through
//
//   1. admission control (resilience/admission.hpp): structured validation
//      and resource budgets; hopeless or oversized requests are rejected
//      before any compute is spent, tight budgets down-tier past the
//      portfolio race;
//   2. a fallback ladder of rungs, each cheaper and more predictable than
//      the last, each inside its own crash boundary with its own slice of
//      the wall-clock deadline:
//        rung 0  portfolio race (PortfolioCompiler, all strategies);
//        rung 1  one pipeline: Policy::rung1_pipeline, or the standard
//                greedy+sabre preset when it is unset;
//        rung 2  trivial identity placement + naive router — guaranteed to
//                terminate on any connected device (see route/naive.hpp),
//                runs with no deadline and (by default) shielded from
//                fault injection, so the ladder as a whole cannot come
//                back empty-handed.
//      Every rung is a PipelineSpec: rung 0 races one per StrategySpec,
//      rungs 1 and 2 each run theirs through a PassManager on the
//      supervisor's own Device;
//   3. retry with decorrelated-jitter backoff (resilience/backoff.hpp) for
//      attempts that failed with ErrorClass::Transient — a deadline slice
//      expiring, a transient pass error — while Permanent failures fall
//      through to the next rung immediately and ResourceExhausted ones are
//      never retried at the same tier;
//   4. post-compile validation (verify::ValidityChecker) on every rung, so
//      a corrupted result degrades to the next rung instead of escaping to
//      the caller;
//   5. systematic fault injection (resilience/fault_injector.hpp) armed
//      from the policy, so every one of those degradation paths is
//      exercisable in tests rather than discovered in production.
//
// The CompileOutcome records exactly how degraded the answer is: which
// rung produced it, how many retries were spent, and which faults fired.
// For a fixed policy seed the outcome fingerprint is byte-identical across
// runs and thread counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/json.hpp"
#include "engine/cancel.hpp"
#include "engine/portfolio.hpp"
#include "engine/thread_pool.hpp"
#include "pass/manager.hpp"
#include "resilience/admission.hpp"
#include "resilience/backoff.hpp"
#include "resilience/fault_injector.hpp"

namespace qmap::resilience {

/// Share of Policy::deadline_ms the portfolio race (rung 0) may spend.
inline constexpr double kRung0DeadlineFraction = 0.6;
/// Share of the deadline left after rung 0 that rung 1 may spend.
inline constexpr double kRung1DeadlineFraction = 0.5;

struct Policy {
  /// Admission budgets (see resilience/admission.hpp).
  ResourceBudget budget;
  /// Total wall-clock deadline for the whole ladder in milliseconds
  /// (0 = none). Rung 0 gets kRung0DeadlineFraction of it, rung 1
  /// kRung1DeadlineFraction of what is left; rung 2 always runs unbounded.
  double deadline_ms = 0.0;
  /// Retries per rung for Transient failures (on top of the first
  /// attempt). Permanent and ResourceExhausted failures never retry.
  int max_retries_per_rung = 2;
  BackoffOptions backoff;
  /// Seed for everything stochastic: strategy streams, backoff jitter,
  /// fault-injection decisions.
  std::uint64_t seed = 0xC0FFEE;
  /// Worker threads for the portfolio rung (0 = hardware concurrency).
  int num_threads = 0;
  /// Keep fault hooks and deadlines away from the last rung so its
  /// never-fails guarantee survives even a probability-1.0 injection
  /// campaign. Disable only to test the ladder's own failure path.
  bool shield_last_rung = true;
  /// First ladder rung to attempt (0 = portfolio race). Admission can only
  /// push this *down* (DownTier starts at max(first_rung, 1)). The compile
  /// service sets 1 for requests that pin an explicit pipeline: the pinned
  /// spec runs as rung 1 with the never-fails rung below it, and no
  /// portfolio race is spent on a request that asked for one strategy.
  int first_rung = 0;
  /// Upstream cancellation (not owned; null = none): checked between rungs
  /// and attempts, parent-linked into the rung-0 race and the rung-1
  /// deadline token. Explicit cancellation is a caller request, not a
  /// failure mode, so it stops the ladder even ahead of the shielded last
  /// rung. Must outlive the compile call. The compile service fires it
  /// when the last client interested in a request disconnects.
  const CancelToken* cancel = nullptr;
  /// Rung 0 strategy set; empty = PortfolioCompiler::default_portfolio.
  /// Each StrategySpec expands to a PipelineSpec (StrategySpec::pipeline),
  /// so all three rungs are pipeline data in the end.
  std::vector<StrategySpec> portfolio;
  /// Rung 1 as declarative data (build with PipelineSpec::standard or
  /// parse with PipelineSpec::from_json); unset = PipelineSpec::standard(),
  /// greedy+sabre. The rung label is the pipeline's label(). Rung 2 is
  /// always PipelineSpec::standard("identity", "naive").
  std::optional<PipelineSpec> rung1_pipeline;
  /// Armed faults (empty in production).
  std::vector<FaultSpec> faults;
  /// Observability sink (obs/): a root span per compile, one span per rung
  /// and per attempt, instant events for fired faults, and ladder counters.
  /// Not owned; null disables recording.
  obs::Observer* obs = nullptr;
};

/// One compile attempt inside one rung.
struct AttemptReport {
  int attempt = 0;   // 0 = first try, >0 = retry
  bool ok = false;
  /// Meaningful when !ok.
  ErrorClass error_class = ErrorClass::Permanent;
  std::string error;
  /// Backoff slept *before* this attempt (0 for attempt 0).
  double backoff_ms = 0.0;
  double wall_ms = 0.0;
  /// Faults that fired during this attempt (sorted, deduplicated).
  std::vector<std::string> injected_faults;

  [[nodiscard]] Json to_json() const;
};

/// One ladder rung's history.
struct RungReport {
  int rung = -1;
  std::string label;  // "portfolio" / "greedy+sabre" / "identity+naive"
  bool ok = false;
  bool skipped = false;  // admission down-tier or earlier rung succeeded
  std::vector<AttemptReport> attempts;
  /// Rung 0 only: per-strategy telemetry of the last attempt's race.
  std::vector<StrategyTelemetry> strategies;

  [[nodiscard]] Json to_json() const;
};

/// What the caller gets back: the result plus an honest account of how it
/// was obtained.
struct CompileOutcome {
  bool ok = false;
  AdmissionReport admission;
  /// Valid when ok.
  CompilationResult result;
  /// Ladder rung that produced the result (-1 when !ok).
  int rung = -1;
  /// Winning strategy ("greedy+sabre", "identity+naive", ...).
  std::string winner_label;
  /// Transient retries spent across all rungs.
  int total_retries = 0;
  /// Union of fault points that fired anywhere (sorted, deduplicated).
  std::vector<std::string> injected_faults;
  /// True when the returned result passed a ValidityChecker audit; every
  /// rung audits, so this equals ok.
  bool validated = false;
  std::vector<RungReport> rungs;
  double wall_ms = 0.0;
  /// Failure summary when !ok (admission rejection or — only possible
  /// with shield_last_rung off — a fully exhausted ladder).
  std::string error;

  /// True when the answer came from a rung below the portfolio race.
  [[nodiscard]] bool degraded() const noexcept { return ok && rung > 0; }
  /// Human-readable account: admission verdict, per-rung attempt table,
  /// winner, degradation summary.
  [[nodiscard]] std::string report() const;
  [[nodiscard]] Json to_json() const;
  /// Deterministic digest excluding wall-clock fields: byte-identical
  /// across runs and thread counts for a fixed policy seed.
  [[nodiscard]] std::string fingerprint() const;
};

class ResilientCompiler {
 public:
  /// Validates the policy eagerly: strategy and fault-point names, the
  /// rung-1 pipeline, retry and rung bounds. Throws MappingError on
  /// nonsense.
  explicit ResilientCompiler(Device device, Policy policy = {});

  [[nodiscard]] const Device& device() const noexcept { return device_; }
  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }

  /// The one admission path every entry point shares — compile(),
  /// compile_batch(), and the compile service's pre-queue check all call
  /// this, so reject/down-tier behaviour cannot drift between front doors.
  /// Wraps the guard with the policy-derived race width and deadline.
  [[nodiscard]] AdmissionReport assess(const Circuit& circuit) const;

  /// Never throws for any admitted circuit: every failure is contained in
  /// the outcome. Runs the portfolio rung on an internally owned pool.
  [[nodiscard]] CompileOutcome compile(const Circuit& circuit) const;
  /// Same, sharing a caller-owned pool.
  [[nodiscard]] CompileOutcome compile(const Circuit& circuit,
                                       ThreadPool& pool) const;

  /// Per-item isolation: circuit k is compiled with a seed derived from
  /// (policy.seed, k) and its own outcome slot; a poisoned item — even one
  /// rejected at admission — never sinks its siblings. Outcomes are in
  /// submission order.
  [[nodiscard]] std::vector<CompileOutcome> compile_batch(
      const std::vector<Circuit>& circuits) const;

 private:
  [[nodiscard]] CompileOutcome compile_(const Circuit& circuit,
                                        ThreadPool& pool,
                                        std::uint64_t seed) const;

  Device device_;
  Policy policy_;
  /// Width of the rung-0 race, resolved once (empty policy portfolio =
  /// default_portfolio size); feeds the guard's memory estimate.
  std::size_t num_strategies_ = 1;
  /// One guard per supervisor, shared by every entry point (see assess()).
  AdmissionGuard guard_;
  /// Rungs 1 and 2, built once; every attempt runs one on device_.
  PassManager rung1_;
  PassManager rung2_;
};

/// Front door: one call, one hardened answer.
[[nodiscard]] CompileOutcome compile(const Circuit& circuit,
                                     const Device& device,
                                     const Policy& policy = {});

}  // namespace qmap::resilience
