// PassManager::run_stream: the streaming execution mode declared in
// pass/streaming.hpp.
//
// When the head can stream, the window-capable chain is assembled as a
// source→sink pipeline:
//
//   GateSource → [LoweringSource: a DecomposeStage, fed chunk-wise]
//              → route_stream (bounded window)
//              → [TokenSwapFinisherSink: cleanup at end-of-stream]
//              → sink (or a CircuitSink when a materialized tail follows)
//
// The placer, router and token-swap stages go through run_stage(), the
// ceremony PassManager::run gives each pass (stage hooks, spans, timings);
// the postroute/schedule tail runs the same Pass objects on the collected
// circuit. Any other pipeline is PassManager::run on the materialized
// source. Parity contract: the gates
// that reach the sink are byte-identical to the materialized pipeline's
// product (pinned by the `stream` test suite against the golden
// fingerprint matrix).
#include "pass/manager.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "pass/passes.hpp"
#include "pass/registry.hpp"
#include "route/token_swap.hpp"

namespace qmap {
namespace {

/// Slot index of each standard stage in the spec, or -1. `standard` is
/// false when a pass repeats or appears out of the canonical order — such
/// pipelines run materialized.
struct StageLayout {
  int decompose = -1;
  int placer = -1;
  int router = -1;
  int token_swap = -1;
  int postroute = -1;
  int schedule = -1;
  bool standard = true;
};

StageLayout analyze(const PipelineSpec& spec) {
  StageLayout layout;
  int last_rank = -1;
  for (std::size_t i = 0; i < spec.passes().size(); ++i) {
    const std::string& name = spec.passes()[i].pass;
    int rank = -1;
    int* slot = nullptr;
    if (name == "decompose") {
      rank = 0;
      slot = &layout.decompose;
    } else if (name == "placer") {
      rank = 1;
      slot = &layout.placer;
    } else if (name == "router") {
      rank = 2;
      slot = &layout.router;
    } else if (name == "token_swap_finisher") {
      rank = 3;
      slot = &layout.token_swap;
    } else if (name == "postroute") {
      rank = 4;
      slot = &layout.postroute;
    } else if (name == "schedule") {
      rank = 5;
      slot = &layout.schedule;
    }
    if (slot == nullptr || rank <= last_rank) {
      layout.standard = false;
      return layout;
    }
    *slot = static_cast<int>(i);
    last_rank = rank;
  }
  return layout;
}

/// Drains a source into an in-memory circuit (the materialization
/// fallback). Gates are trusted, matching CircuitSink.
Circuit materialize_source(GateSource& source, std::size_t chunk_gates) {
  Circuit circuit(source.num_qubits(), source.name());
  std::vector<Gate> chunk;
  while (true) {
    chunk.clear();
    if (source.pull(chunk, std::max<std::size_t>(chunk_gates, 1)) == 0) break;
    for (Gate& gate : chunk) circuit.add_unchecked(std::move(gate));
  }
  return circuit;
}

/// Pushes a materialized circuit to the sink in chunks and flushes it.
std::size_t push_circuit(const Circuit& circuit, GateSink& sink,
                         std::size_t chunk_gates) {
  const std::size_t chunk = std::max<std::size_t>(chunk_gates, 1);
  std::vector<Gate> buf;
  buf.reserve(std::min(chunk, circuit.size()));
  for (const Gate& gate : circuit) {
    buf.push_back(gate);
    if (buf.size() >= chunk) {
      sink.put_chunk(buf);
      buf.clear();
    }
  }
  if (!buf.empty()) sink.put_chunk(buf);
  sink.flush();
  return circuit.size();
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Adds the wall time of `work` to `ms`.
template <typename Work>
void timed(double& ms, Work&& work) {
  const Clock::time_point start = Clock::now();
  work();
  ms += ms_since(start);
}

/// Adds a pass's wall time (as run_stage recorded it) to its stage field.
void add_pass_time(StreamStageTimes& times, const std::string& pass,
                   double ms) {
  if (pass == "decompose") times.decompose_ms += ms;
  if (pass == "placer") times.placer_ms += ms;
  if (pass == "router") times.route_ms += ms;
  if (pass == "token_swap_finisher") times.token_swap_ms += ms;
  if (pass == "postroute") times.postroute_ms += ms;
  if (pass == "schedule") times.schedule_ms += ms;
}

/// GateSource wrapper adding the wall time of each pull() — one chunk — to
/// a counter.
class TimedSource final : public GateSource {
 public:
  TimedSource(GateSource& inner, double& ms) : inner_(&inner), ms_(&ms) {}

  [[nodiscard]] int num_qubits() const override {
    return inner_->num_qubits();
  }
  [[nodiscard]] int num_cbits() const override { return inner_->num_cbits(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::size_t pull(std::vector<Gate>& out, std::size_t max_gates) override {
    std::size_t pulled = 0;
    timed(*ms_, [&] { pulled = inner_->pull(out, max_gates); });
    return pulled;
  }

 private:
  GateSource* inner_;
  double* ms_;
};

/// GateSink wrapper adding the wall time of each call to a counter. The
/// streamed head pushes whole chunks, so that is per chunk, not per gate.
class TimedSink final : public GateSink {
 public:
  TimedSink(GateSink& inner, double& ms) : inner_(&inner), ms_(&ms) {}

  void put(Gate gate) override {
    timed(*ms_, [&] { inner_->put(std::move(gate)); });
  }
  void put_chunk(std::vector<Gate>& gates) override {
    timed(*ms_, [&] { inner_->put_chunk(gates); });
  }
  void flush() override {
    timed(*ms_, [&] { inner_->flush(); });
  }

 private:
  GateSink* inner_;
  double* ms_;
};

/// GateSource adapter running the decompose stage chunk-by-chunk: each
/// refill pulls one upstream chunk through the DecomposeStage, which also
/// keeps the baseline latency DecomposePass records.
class LoweringSource final : public GateSource {
 public:
  LoweringSource(GateSource& inner, DecomposeStage stage,
                 std::size_t chunk_gates)
      : inner_(&inner),
        stage_(std::move(stage)),
        chunk_gates_(std::max<std::size_t>(chunk_gates, 1)),
        scratch_(inner.num_qubits(), inner.name()) {}

  [[nodiscard]] int num_qubits() const override {
    return inner_->num_qubits();
  }
  [[nodiscard]] int num_cbits() const override { return inner_->num_cbits(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::size_t pull(std::vector<Gate>& out, std::size_t max_gates) override {
    std::size_t appended = 0;
    while (appended < max_gates) {
      if (pos_ < pending_.size()) {
        out.push_back(std::move(pending_[pos_++]));
        ++appended;
        continue;
      }
      if (done_) break;
      refill();
    }
    return appended;
  }

  /// Gates pulled from the wrapped source (pre-lowering).
  [[nodiscard]] std::size_t raw_gates_in() const noexcept { return raw_in_; }
  /// Valid once the stream is drained.
  [[nodiscard]] int baseline_cycles() const noexcept {
    return stage_.baseline_cycles();
  }

 private:
  void refill() {
    // Recycle the consumed pending buffer as the scratch circuit's storage.
    pending_.clear();
    pos_ = 0;
    scratch_.set_gates(std::move(pending_));
    raw_.clear();
    const std::size_t pulled = inner_->pull(raw_, chunk_gates_);
    raw_in_ += pulled;
    if (pulled == 0) {
      done_ = true;
      stage_.finish(scratch_);
    } else {
      stage_.feed(raw_, scratch_);
    }
    pending_ = scratch_.take_gates();
  }

  GateSource* inner_;
  DecomposeStage stage_;
  std::size_t chunk_gates_;
  Circuit scratch_;
  std::vector<Gate> raw_;
  std::vector<Gate> pending_;
  std::size_t pos_ = 0;
  std::size_t raw_in_ = 0;
  bool done_ = false;
};

/// GateSink adapter running the token-swap finisher at end-of-stream:
/// forwards the routed stream, buffering only the current trailing run of
/// Measure/Barrier gates (O(trailing suffix), not O(circuit)). The
/// upstream flush is swallowed — the final placement is not known until
/// route_stream returns, so the driver triggers the cleanup via finish(),
/// which emits the SWAPs, the remapped suffix, and the downstream flush.
class TokenSwapFinisherSink final : public GateSink {
 public:
  explicit TokenSwapFinisherSink(GateSink& downstream)
      : downstream_(&downstream) {}

  void put(Gate gate) override {
    if (is_suffix_kind(gate.kind)) {
      suffix_.push_back(std::move(gate));
      return;
    }
    forward_suffix();
    ++forwarded_;
    downstream_->put(std::move(gate));
  }

  /// Forwards the chunk up to its last gate that is not a Measure/Barrier
  /// in one downstream call, and holds back the trailing run.
  void put_chunk(std::vector<Gate>& gates) override {
    std::size_t keep = gates.size();
    while (keep > 0 && is_suffix_kind(gates[keep - 1].kind)) --keep;
    if (keep == 0) {
      std::move(gates.begin(), gates.end(), std::back_inserter(suffix_));
      return;
    }
    forward_suffix();
    std::move(gates.begin() + static_cast<std::ptrdiff_t>(keep), gates.end(),
              std::back_inserter(suffix_));
    gates.resize(keep);
    forwarded_ += keep;
    downstream_->put_chunk(gates);
  }

  void flush() override {}

  /// End of routing: plans the cleanup against the routed stream's final
  /// placement (mutating it, like the materialized pass), emits SWAPs +
  /// remapped suffix, and flushes downstream.
  void finish(Placement& final_placement, const Placement& initial,
              const Device& device) {
    const TokenSwapPlan plan =
        splice_token_swap_cleanup(suffix_, final_placement, initial, device);
    rounds_ = plan.rounds.size();
    swaps_ = plan.total_swaps();
    forward_suffix();
    downstream_->flush();
  }

  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t swaps() const noexcept { return swaps_; }
  /// Gates forwarded downstream (program gates + cleanup SWAPs + suffix).
  [[nodiscard]] std::size_t forwarded() const noexcept { return forwarded_; }

 private:
  void forward_suffix() {
    if (suffix_.empty()) return;
    forwarded_ += suffix_.size();
    downstream_->put_chunk(suffix_);
    suffix_.clear();
  }

  static bool is_suffix_kind(GateKind kind) {
    return kind == GateKind::Measure || kind == GateKind::Barrier;
  }

  GateSink* downstream_;
  std::vector<Gate> suffix_;
  std::size_t rounds_ = 0;
  std::size_t swaps_ = 0;
  std::size_t forwarded_ = 0;
};

}  // namespace

StreamReport PassManager::run_stream(GateSource& source, const Device& device,
                                     GateSink& sink,
                                     const PipelineRuntime& runtime,
                                     const StreamPipelineOptions& options) const {
  StreamReport report;
  StreamStats& stats = report.stream;
  const StageLayout layout = analyze(spec_);
  const bool stream_head =
      layout.standard && layout.placer >= 0 && layout.router >= 0 &&
      placer_label_ == "identity" &&
      make_router(router_label_)->supports_streaming();

  obs::Observer* obs = runtime.obs;
  obs::Span compile_span(obs, "compile_stream", "core");
  if (compile_span.active()) {
    compile_span.arg("circuit", source.name());
    if (!placer_label_.empty()) compile_span.arg("placer", placer_label_);
    if (!router_label_.empty()) compile_span.arg("router", router_label_);
    compile_span.arg("mode", stream_head ? "streamed" : "materialized");
  }
  obs::add(obs, "compile.stream_runs");

  StreamStageTimes& times = stats.stage_ms;
  if (!stream_head) {
    const Clock::time_point drain_start = Clock::now();
    const Circuit input = materialize_source(source, options.chunk_gates);
    times.source_ms = ms_since(drain_start);
    stats.gates_in = input.size();
    CompileContext ctx(input, device, runtime);
    for (const std::unique_ptr<Pass>& pass : passes_) {
      stats.materialized_passes.push_back(pass->name());
    }
    run(ctx);
    for (const CompileContext::PassTiming& timing : ctx.timings) {
      add_pass_time(times, timing.pass, timing.ms);
    }
    const Circuit& product = ctx.postrouted ? ctx.result.final_circuit
                             : ctx.routed   ? ctx.result.routing.circuit
                                            : ctx.result.lowered;
    timed(times.sink_ms, [&] {
      stats.gates_out = push_circuit(product, sink, options.chunk_gates);
    });
    report.result = std::move(ctx.result);
    return report;
  }

  const Circuit input(source.num_qubits(), source.name());
  CompileContext ctx(input, device, runtime);
  obs::Span stage_span;

  // --- Head: decompose inside the route's source, identity placement. ---
  // Each link of the chain is wrapped in a timer (one clock pair per
  // chunk); a stage's self time is its link's total minus its neighbours'.
  TimedSource timed_source(source, times.source_ms);
  GateSource* route_source = &timed_source;
  std::optional<LoweringSource> lowering;
  double lowering_ms = 0.0;
  std::optional<TimedSource> timed_lowering;
  if (layout.decompose >= 0) {
    lowering.emplace(timed_source, DecomposeStage(device, source.num_qubits()),
                     options.chunk_gates);
    timed_lowering.emplace(*lowering, lowering_ms);
    route_source = &*timed_lowering;
  }
  run_stage(ctx, stage_span, "placer", true, [&] {
    ctx.placement =
        Placement::identity(source.num_qubits(), device.num_qubits());
    ctx.placed = true;
  });

  // --- Route: through the bounded window. ---
  const bool tail_materializes =
      layout.postroute >= 0 || layout.schedule >= 0;
  std::optional<CircuitSink> collect;
  GateSink* product_dest = &sink;
  if (tail_materializes) {
    collect.emplace(device.num_qubits(),
                    route_source->name() + "@" + device.name());
    product_dest = &*collect;
  }
  // The routed stream's last hop: into the caller's sink, or into the
  // collector when a materialized tail follows.
  double& product_ms = tail_materializes ? times.collect_ms : times.sink_ms;
  TimedSink timed_product(*product_dest, product_ms);
  GateSink* route_dest = &timed_product;
  std::optional<TokenSwapFinisherSink> token_swap_sink;
  double finisher_ms = 0.0;
  std::optional<TimedSink> timed_finisher;
  if (layout.token_swap >= 0) {
    token_swap_sink.emplace(timed_product);
    timed_finisher.emplace(*token_swap_sink, finisher_ms);
    route_dest = &*timed_finisher;
  }
  StreamRouteStats route_stats;
  run_stage(ctx, stage_span, "router", true, [&] {
    std::unique_ptr<Router> router = make_router(router_label_);
    router->set_cancel_token(ctx.cancel());
    router->set_observer(obs);
    StreamRouteOptions route_options;
    route_options.chunk_gates = options.chunk_gates;
    route_stats = router->route_stream(*route_source, device, ctx.placement,
                                       *route_dest, route_options);
  });
  stats.streamed_route = true;
  stats.window_peak_gates = route_stats.window_peak_gates;
  stats.gates_in = lowering ? lowering->raw_gates_in() : route_stats.gates_in;
  if (lowering) ctx.result.baseline_cycles = lowering->baseline_cycles();

  if (token_swap_sink) {
    run_stage(ctx, stage_span, "token_swap_finisher", true, [&] {
      token_swap_sink->finish(route_stats.final, route_stats.initial, device);
      obs::add(obs, "router.bridge.token_swap_rounds",
               token_swap_sink->rounds());
      obs::add(obs, "router.bridge.token_swap_swaps",
               token_swap_sink->swaps());
      route_stats.added_swaps += token_swap_sink->swaps();
    });
  }

  RoutingResult& routing = ctx.result.routing;
  routing.initial = std::move(route_stats.initial);
  routing.final = std::move(route_stats.final);
  routing.added_swaps = route_stats.added_swaps;
  routing.added_moves = route_stats.added_moves;
  routing.added_bridges = route_stats.added_bridges;
  routing.direction_fixes = route_stats.direction_fixes;
  routing.runtime_ms = route_stats.runtime_ms;
  if (collect) routing.circuit = std::move(*collect).take();
  ctx.routed = true;

  // --- Tail: postroute/schedule on the collected circuit. ---
  for (const int index : {layout.postroute, layout.schedule}) {
    if (index < 0) continue;
    Pass& pass = *passes_[static_cast<std::size_t>(index)];
    run_stage(ctx, stage_span, pass.name(), pass.is_stage_boundary(),
              [&] { pass.run(ctx); });
    stats.materialized_passes.push_back(pass.name());
  }
  stage_span.end();
  obs::observe(obs, "compile.final_two_qubit_gates",
               static_cast<double>(ctx.result.final_metrics.two_qubit_gates));

  if (tail_materializes) {
    const Circuit& product = ctx.postrouted ? ctx.result.final_circuit
                                            : ctx.result.routing.circuit;
    timed(times.sink_ms, [&] {
      stats.gates_out = push_circuit(product, sink, options.chunk_gates);
    });
  } else {
    stats.gates_out =
        token_swap_sink ? token_swap_sink->forwarded() : route_stats.gates_out;
  }
  // run_stage's wall times of the placer, router, finisher and tail
  // passes; router and finisher are then reduced to their self time.
  for (const CompileContext::PassTiming& timing : ctx.timings) {
    add_pass_time(times, timing.pass, timing.ms);
  }
  if (lowering) times.decompose_ms = lowering_ms - times.source_ms;
  times.route_ms -= (lowering ? lowering_ms : times.source_ms) +
                    (token_swap_sink ? finisher_ms : product_ms);
  if (token_swap_sink) times.token_swap_ms += finisher_ms - product_ms;
  report.result = std::move(ctx.result);
  return report;
}

}  // namespace qmap
