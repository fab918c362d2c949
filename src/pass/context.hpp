// CompileContext: the state a pipeline of passes evolves.
//
// Also home of CompilationResult — the pipeline's product — which predates
// the pass layer (it used to live in core/compiler.hpp; core re-exports it,
// so existing includes keep working).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "ir/metrics.hpp"
#include "layout/placement.hpp"
#include "obs/obs.hpp"
#include "route/router.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

class CancelToken;  // engine/cancel.hpp

struct CompilationResult {
  Circuit original;        // input, program qubits
  Circuit lowered;         // after decomposition (program qubits)
  RoutingResult routing;   // physical qubits, SWAP placeholders
  Circuit final_circuit;   // native gate set, coupling-legal
  Schedule schedule;       // empty unless a schedule pass ran
  CircuitMetrics original_metrics;
  CircuitMetrics final_metrics;
  /// Latency of the lowered-but-unrouted circuit, dependencies only —
  /// the paper's "before mapping" baseline (Sec. V).
  int baseline_cycles = 0;
  /// Latency of the final scheduled circuit (0 unless scheduled).
  int scheduled_cycles = 0;

  [[nodiscard]] double latency_ratio() const {
    return baseline_cycles > 0
               ? static_cast<double>(scheduled_cycles) / baseline_cycles
               : 0.0;
  }
  [[nodiscard]] std::string report() const;

  /// Machine-readable report (for toolchain integration / CI dashboards):
  /// metrics before/after, routing statistics, placements, latency.
  [[nodiscard]] Json to_json() const;

  /// Deterministic digest of everything observable about the result —
  /// final gate stream, placements, routing statistics, metrics, latency.
  /// Two results with equal fingerprints went through byte-identical
  /// pipelines; the pass-layer parity tests pin facade-vs-spec equality
  /// with it. Timing fields (runtime_ms) are excluded.
  [[nodiscard]] std::string fingerprint() const;
};

/// Everything a pipeline run needs besides the circuit and device: seed,
/// cancellation, hooks, and observability.
/// Plain data; copy one per run.
struct PipelineRuntime {
  /// Seed for stochastic passes (annealing placer). The portfolio engine
  /// derives a distinct stream per strategy so parallel runs reproduce.
  std::uint64_t seed = 0xC0FFEE;
  /// Cooperative cancellation (engine/cancel.hpp): checked at stage
  /// boundaries and inside placer/router main loops. Not owned; may be null.
  const CancelToken* cancel = nullptr;
  /// Instrumentation/fault-injection hook called at stage boundaries with
  /// the pass's name() ("placer", "router", "postroute", "schedule" in the
  /// standard pipeline), before the named stage runs. An exception thrown
  /// from the hook aborts the compile exactly like a crash inside the
  /// stage, which is how the resilience fault injector plants
  /// deterministic crashes without patching any pass.
  std::function<void(const char* stage)> stage_hook;
  /// Observability sink (obs/): a compile span with one child span per
  /// stage-boundary pass, plus router/scheduler counters. Not owned; null
  /// (the default) disables recording at the cost of one pointer compare.
  obs::Observer* obs = nullptr;
  /// The device's own distance tables, for callers that pass
  /// Compiler::artifacts() along. Null or device.artifacts() only: any
  /// other bundle makes CompileContext throw MappingError, since routers
  /// would index its tables with the device's qubit numbers.
  std::shared_ptr<const ArchArtifacts> artifacts;
};

/// The evolving state of one pipeline run. Passes are the writers: the
/// result, the working placement, and the stage flags are public by
/// design. The input circuit, device, and runtime are read-only.
class CompileContext {
 public:
  /// Binds the run to `circuit` and `device` (neither owned; both must
  /// outlive the context) and seeds result.original/lowered so a pipeline
  /// without a decompose pass still has a well-defined lowered circuit.
  /// Throws MappingError when runtime.artifacts is set to anything but
  /// device.artifacts().
  CompileContext(const Circuit& circuit, const Device& device,
                 PipelineRuntime runtime);

  [[nodiscard]] const Circuit& input() const noexcept { return *input_; }
  [[nodiscard]] const Device& device() const noexcept { return *device_; }
  [[nodiscard]] const PipelineRuntime& runtime() const noexcept {
    return runtime_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return runtime_.seed; }
  [[nodiscard]] obs::Observer* obs() const noexcept { return runtime_.obs; }
  [[nodiscard]] const CancelToken* cancel() const noexcept {
    return runtime_.cancel;
  }
  /// Throws CancelledError when the run's token has been cancelled.
  void checkpoint() const;

  // --- Evolving state (written by passes) ---

  CompilationResult result;
  /// Working placement between the place and route passes.
  Placement placement;
  bool placed = false;
  bool routed = false;
  bool postrouted = false;

  /// Per-pass wall-clock timings, appended by the PassManager in pipeline
  /// order (every pass, boundary or not).
  struct PassTiming {
    std::string pass;
    double ms = 0.0;
  };
  std::vector<PassTiming> timings;

 private:
  const Circuit* input_;
  const Device* device_;
  PipelineRuntime runtime_;
};

}  // namespace qmap
