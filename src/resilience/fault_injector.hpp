// Pluggable fault-injection registry for the resilience pipeline.
//
// Generalizes the fuzzer's planted result corruptions (verify/faults.hpp)
// into named fault *points* that fire inside the live pipeline, selected
// by name, rung, probability, and seed:
//
//   throw-in-placer  — MappingError at the placer stage boundary
//                      (Permanent: retrying reproduces it; fall back);
//   throw-in-router  — TransientError at the router stage boundary
//                      (Transient: exercises the retry/backoff path);
//   oom-simulate     — ResourceError at the placer stage boundary
//                      (ResourceExhausted: fall back, never retry);
//   stall-ms         — sleeps at the router stage boundary so the rung's
//                      deadline slice expires (surfaces as CancelledError,
//                      Transient, through the normal cancellation path);
//   corrupt-result   — sabotages the *finished* CompilationResult with a
//                      verify::FaultInjection primitive; only post-compile
//                      validation can catch this one.
//   service.*        — transport faults (truncate-line, garbage-bytes,
//                      oversize-line, disconnect, stall-write) delivered by
//                      the service's ChaosTransport wire harness
//                      (src/service/chaos.hpp) rather than at_stage();
//                      registered here so arming shares the same validated
//                      FaultSpec machinery and seeded fire decisions.
//
// Stage faults are delivered through PipelineRuntime::stage_hook (rungs 1
// and 2) and PortfolioOptions::stage_hook (the rung-0 race) — the injector
// never patches a pass. The stage names it matches against ("placer",
// "router", ...) are exactly the Pass::name() values the PassManager hands
// to the hook (src/pass/), so the matrix keeps working for any pipeline
// built from registered passes.
// Decisions are pure functions of (seed, spec index, rung, strategy,
// attempt): no global counters, no clocks, so a fixed seed fires the same
// faults whether the portfolio runs on 1 thread or 16. Fired faults are
// recorded under a mutex and drained sorted, keeping telemetry
// byte-deterministic despite concurrent workers.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/compiler.hpp"
#include "verify/faults.hpp"

namespace qmap::resilience {

/// Names accepted by FaultSpec::point, in canonical order.
[[nodiscard]] const std::vector<std::string>& known_fault_points();

/// One armed fault.
struct FaultSpec {
  /// One of known_fault_points(). Unknown names throw at registration.
  std::string point;
  /// Ladder rung the fault targets (-1 = every rung).
  int rung = -1;
  /// Probability that the fault fires at each eligible (rung, strategy,
  /// attempt) decision.
  double probability = 1.0;
  /// stall-ms only: how long to sleep at the stage boundary.
  double stall_ms = 50.0;
  /// corrupt-result only: which corruption primitive to apply.
  verify::FaultInjection corruption = verify::FaultInjection::FlipLastCx;

  [[nodiscard]] std::string label() const;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(std::vector<FaultSpec> specs,
                         std::uint64_t seed = 0x5EED);

  /// Validates the point name (throws MappingError listing valid names).
  void add(FaultSpec spec);

  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }

  /// Stage-boundary delivery: evaluates every armed stage fault against
  /// (stage, rung, strategy, attempt) and performs the first that fires —
  /// throwing its error or stalling. Deterministic for a fixed seed.
  /// Wire this into PipelineRuntime::stage_hook (or the portfolio's
  /// per-strategy variant). Thread-safe.
  void at_stage(const char* stage, int rung, int strategy, int attempt) const;

  /// Post-compile delivery: applies every "corrupt-result" spec that fires
  /// for (rung, strategy, attempt) to the finished result. Returns true
  /// when the result was altered. Thread-safe.
  bool corrupt(CompilationResult& result, const Device& device, int rung,
               int strategy, int attempt) const;

  /// Returns the names of faults fired since the last drain, sorted and
  /// deduplicated, and clears the record. The resilience supervisor drains
  /// once per attempt (workers are joined between attempts).
  [[nodiscard]] std::vector<std::string> drain_fired() const;

 private:
  [[nodiscard]] bool fires_(std::size_t spec_index, const FaultSpec& spec,
                            int rung, int strategy, int attempt) const;
  void record_(const std::string& name) const;

  std::vector<FaultSpec> specs_;
  std::uint64_t seed_ = 0x5EED;
  mutable std::mutex mutex_;
  mutable std::vector<std::string> fired_;
};

}  // namespace qmap::resilience
