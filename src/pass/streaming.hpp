// Streaming execution mode for the pass pipeline (out-of-core
// compilation).
//
// PassManager::run_stream threads a GateSource through the pipeline into a
// GateSink, in one of two shapes:
//
//   * streamed head: when the pipeline has the standard shape, the
//     "identity" placer, and a router that can stream, decompose, route,
//     and the token-swap finisher run chunk-by-chunk with peak memory
//     proportional to the routing window, so million-gate circuits compile
//     without ever being resident. Postroute/schedule are whole-circuit
//     analyses: the routed stream is collected back into memory before
//     they run;
//   * materialized: any other pipeline (another placer needs the whole
//     interaction graph; a non-streamable router or a non-standard shape)
//     drains the source into a circuit, runs PassManager::run on it, and
//     forwards the product to the sink.
//
// In both shapes the sink receives the pipeline's product — the final
// circuit when a postroute pass is present, the routed (plus token-swap
// cleanup) stream otherwise — followed by one flush(). StreamStats records
// which passes ran materialized, so callers can assert a pipeline really
// ran out-of-core.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pass/context.hpp"

namespace qmap {

/// Knobs of a streaming pipeline run.
struct StreamPipelineOptions {
  /// Pull granularity from the source, the router's window-extension chunk
  /// size, and the routed-output batch the emitter pushes downstream.
  std::size_t chunk_gates = 4096;
};

/// Self time of each stage of one run_stream call, in milliseconds: the
/// time a stage spent minus what it spent waiting on its upstream pulls and
/// downstream pushes. The clock is read once per chunk, not once per gate.
/// The fields sum to the call's wall time less its fixed set-up (router
/// construction, context and result moves).
struct StreamStageTimes {
  /// The caller's source: its pull() calls (parsing, for a QASM source).
  /// In the materialized shape: draining the source into a circuit.
  double source_ms = 0.0;
  /// Lowering to the device's gate set (LoweringSource, chunk-wise).
  double decompose_ms = 0.0;
  double placer_ms = 0.0;
  /// Routing, minus the pulls from decompose/source and the pushes to the
  /// finisher/collector/sink.
  double route_ms = 0.0;
  /// The token-swap finisher: forwarding the routed stream and planning
  /// and splicing the end-of-stream cleanup, minus its downstream pushes.
  double token_swap_ms = 0.0;
  /// Gathering the routed stream into a circuit for a materialized tail.
  double collect_ms = 0.0;
  double postroute_ms = 0.0;
  double schedule_ms = 0.0;
  /// Handing the product to the caller's sink (put_chunk and flush; with
  /// a materialized tail, the chunk copies of the circuit too).
  double sink_ms = 0.0;

  [[nodiscard]] double total_ms() const noexcept {
    return source_ms + decompose_ms + placer_ms + route_ms + token_swap_ms +
           collect_ms + postroute_ms + schedule_ms + sink_ms;
  }
};

/// What actually streamed. A fully out-of-core run has streamed_route true
/// and materialized_passes empty.
struct StreamStats {
  /// True when the head streamed: routing ran through the bounded window
  /// (route_stream). False when the source was drained into an in-memory
  /// circuit and the whole pipeline ran materialized.
  bool streamed_route = false;
  /// Names of the passes that ran on a materialized circuit.
  std::vector<std::string> materialized_passes;
  /// Program gates pulled from the source.
  std::size_t gates_in = 0;
  /// Gates pushed to the sink.
  std::size_t gates_out = 0;
  /// Router window high-water mark (0 when routing did not stream).
  std::size_t window_peak_gates = 0;
  /// Where the run's time went, stage by stage.
  StreamStageTimes stage_ms;
};

/// Product of a streaming run. `result` carries the same placements,
/// routing counters, metrics, and latency numbers a materialized run
/// produces; circuit-valued fields are only populated for the stages that
/// fell back to materialization (a fully streamed run leaves
/// original/lowered/routing.circuit/final_circuit empty — the gates went to
/// the sink).
struct StreamReport {
  CompilationResult result;
  StreamStats stream;
};

}  // namespace qmap
