// PassManager: executes a declared pipeline over a CompileContext.
//
// All cross-cutting ceremony lives here, once, instead of being hand-rolled
// per stage in the facade: cancellation checkpoints, the stage hook (the
// resilience fault injector's seam), per-stage obs spans under one compile
// span, per-pass wall-clock timings, and the final compile counters. A
// PassManager is immutable after construction and safe to run concurrently
// from multiple threads (each run gets its own CompileContext).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pass/context.hpp"
#include "pass/spec.hpp"
#include "pass/streaming.hpp"

namespace qmap {

class PassManager {
 public:
  /// Builds every pass up front; throws MappingError on unknown names or
  /// options (see pass/registry.hpp).
  explicit PassManager(const PipelineSpec& spec);

  [[nodiscard]] const PipelineSpec& spec() const noexcept { return spec_; }

  /// Runs the pipeline over an existing context (the caller reads
  /// ctx.result / ctx.timings afterwards).
  void run(CompileContext& ctx) const;

  /// Convenience: build a context, run, return the result.
  [[nodiscard]] CompilationResult run(const Circuit& circuit,
                                      const Device& device,
                                      const PipelineRuntime& runtime) const;

  /// Streaming execution mode (pass/streaming.hpp): pulls program gates
  /// from `source`, pushes the pipeline's product to `sink`. Window-capable
  /// passes run chunk-by-chunk; the rest transparently materialize. Stage
  /// hooks, cancellation checkpoints, and per-pass timings go through the
  /// same run_stage() as run(). Implemented in streaming.cpp.
  [[nodiscard]] StreamReport run_stream(
      GateSource& source, const Device& device, GateSink& sink,
      const PipelineRuntime& runtime,
      const StreamPipelineOptions& options = {}) const;

 private:
  /// The ceremony run() gives every pass, shared with run_stream's streamed
  /// stages: at a stage boundary a cancellation checkpoint, the stage hook,
  /// and a fresh obs span in `stage_span` (ending the previous one); then
  /// `work`, timed into ctx.timings under `name`.
  static void run_stage(CompileContext& ctx, obs::Span& stage_span,
                        const std::string& name, bool stage_boundary,
                        const std::function<void()>& work);

  PipelineSpec spec_;
  std::vector<std::unique_ptr<Pass>> passes_;
  // Cached for the compile span's args; empty when the stage is absent.
  std::string placer_label_;
  std::string router_label_;
};

}  // namespace qmap
