#include "route/stream_core.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace qmap {
namespace {

/// The resident window and its driver: pulls chunks from the source,
/// keeps the window-advance invariants (see the header) and owns the
/// RouteCore built over the window.
class StreamWindow {
 public:
  StreamWindow(GateSource& source, const Device& device,
               const Placement& initial, std::size_t chunk_gates,
               bool enable_bridge, RouteArena& arena)
      : source_(&source),
        chunk_gates_(std::max<std::size_t>(chunk_gates, 1)),
        enable_bridge_(enable_bridge),
        arena_(&arena),
        window_(source.num_qubits(), source.name()),
        touchers_(static_cast<std::size_t>(source.num_qubits()), 0),
        idle_qubits_(source.num_qubits()),
        buffers_(alloc_sabre_buffers(arena, device.num_qubits(),
                                     kSabreExtendedWindow)),
        marker_(arena.mark()),
        core_(window_, device, DagMode::Sequential, initial, arena) {
    advance(initial);
  }
  StreamWindow(const StreamWindow&) = delete;
  StreamWindow& operator=(const StreamWindow&) = delete;

  /// Pulls until the invariants hold or the source dries. When it pulled,
  /// drops the scheduled gates from the window, rewinds the arena and
  /// rebuilds the core over the window from `placement`; returns whether
  /// it did.
  bool advance(const Placement& placement);
  /// Moves gate `node` of the core out for emission, after its
  /// on_scheduled: nothing reads a scheduled gate again.
  [[nodiscard]] Gate take_gate(std::uint32_t node) {
    return window_.take_gate(node);
  }
  /// The window's bookkeeping for `node` of the core, now scheduled.
  void on_scheduled(std::uint32_t node) {
    for (const int q : window_.gate(node).qubits) {
      if (--touchers_[static_cast<std::size_t>(q)] == 0) ++idle_qubits_;
    }
    if (core_.ir.is_two_qubit(node)) --unscheduled_2q_;
  }

  [[nodiscard]] RouteCore& core() { return core_; }
  [[nodiscard]] const SabreLoopBuffers& buffers() const { return buffers_; }
  [[nodiscard]] bool dry() const { return dry_; }
  [[nodiscard]] std::size_t two_qubit_seen() const { return seen_two_qubit_; }
  [[nodiscard]] std::size_t gates_seen() const { return gates_seen_; }
  [[nodiscard]] std::size_t window_peak_gates() const { return window_peak_; }

 private:
  /// Checks and appends one pulled gate; returns whether it is ready in
  /// the full DAG (every operand idle before it).
  bool append(Gate&& gate);
  /// Removes the core's scheduled gates from the window; the core is
  /// stale until advance rebuilds it.
  void drop_scheduled();

  GateSource* source_;
  std::size_t chunk_gates_;
  bool enable_bridge_;
  RouteArena* arena_;
  Circuit window_;  // pulled, not yet dropped, in program order
  std::vector<std::uint32_t> touchers_;  // unscheduled, per program qubit
  int idle_qubits_;                      // qubits with zero touchers
  std::size_t unscheduled_2q_ = 0;
  std::size_t seen_two_qubit_ = 0;  // cumulative
  std::size_t gates_seen_ = 0;
  std::size_t window_peak_ = 0;
  bool dry_ = false;
  std::vector<Gate> pull_buf_;
  SabreLoopBuffers buffers_;
  RouteArena::Marker marker_;  // after the route-long loop buffers
  RouteCore core_;
};

bool StreamWindow::advance(const Placement& placement) {
  // Invariant (b) counts the window's ready gates: the core's, plus the
  // pulled ones with every operand idle.
  std::size_t ready = core_.front.ready_size();
  bool pulled = false;
  while (!dry_ &&
         (idle_qubits_ > 0 || unscheduled_2q_ < kSabreExtendedWindow + ready)) {
    pull_buf_.clear();
    if (source_->pull(pull_buf_, chunk_gates_) == 0) {
      dry_ = true;
      break;
    }
    if (!pulled) drop_scheduled();
    pulled = true;
    for (Gate& gate : pull_buf_) ready += append(std::move(gate)) ? 1 : 0;
    window_peak_ = std::max(window_peak_, window_.size());
  }
  if (!pulled) return false;
  arena_->release(marker_);
  core_.rebuild(window_, DagMode::Sequential, placement, *arena_);
  alloc_front_buffers(*arena_, core_.ir.num_two_qubit, enable_bridge_,
                      buffers_);
  return true;
}

bool StreamWindow::append(Gate&& gate) {
  const std::size_t arity = gate.qubits.size();
  if (arity > 2 && gate.kind != GateKind::Barrier) {
    throw MappingError(
        "circuit contains a gate of arity > 2; run gate decomposition "
        "before routing");
  }
  if (arity == 0) {
    // A zero-operand gate is ready from the start regardless of position,
    // which no bounded window can order correctly.
    throw MappingError(
        "streaming route: gate with no qubit operands cannot be "
        "window-ordered; materialize the circuit and call route()");
  }
  bool ready = true;
  for (const int q : gate.qubits) {
    if (q < 0 || q >= window_.num_qubits()) {
      throw MappingError("streaming route: gate operand q" +
                         std::to_string(q) + " out of range for a " +
                         std::to_string(window_.num_qubits()) +
                         "-qubit source");
    }
    if (touchers_[static_cast<std::size_t>(q)] != 0) ready = false;
  }
  for (const int q : gate.qubits) {
    if (touchers_[static_cast<std::size_t>(q)]++ == 0) --idle_qubits_;
  }
  if (arity == 2 && gate.kind != GateKind::Barrier) {
    ++seen_two_qubit_;
    ++unscheduled_2q_;
  }
  ++gates_seen_;
  window_.add_unchecked(std::move(gate));
  return ready;
}

void StreamWindow::drop_scheduled() {
  std::vector<Gate> gates = window_.take_gates();
  std::size_t kept = 0;
  for (std::uint32_t i = 0; i < core_.ir.num_gates; ++i) {
    if (core_.front.scheduled(i)) continue;
    if (kept != i) gates[kept] = std::move(gates[i]);  // no self-move
    ++kept;
  }
  gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(kept), gates.end());
  window_.set_gates(std::move(gates));
}

/// The streamed route's loop core: the materialized one over the window's
/// RouteCore, advancing the window before every flush pass.
class StreamLoopCore : public MaterializedLoopCore<HopDistance> {
 public:
  StreamLoopCore(StreamWindow& window, const Device& device,
                 RouteArena& arena)
      : MaterializedLoopCore(window.core(), device, arena, window.buffers()),
        window_(&window) {}

  [[nodiscard]] bool all_scheduled() const {
    return window_->dry() && route_core().front.all_scheduled();
  }
  bool flush(RoutingEmitter& emitter) {
    const bool any = route_core().flush_executable(
        [&](std::uint32_t node) {
          window_->on_scheduled(node);
          emitter.emit_program_gate(window_->take_gate(node));
        },
        [&] {
          if (window_->advance(emitter.placement())) {
            rebind(window_->buffers());
          }
        });
    emitter.spill_if_needed();
    return any;
  }
  /// min(kSabreExtendedWindow, two-qubit gates seen so far). Equal at
  /// every decision point to the materialized min(kSabreExtendedWindow,
  /// total): invariant (b) guarantees seen >= the window while the source
  /// has gates left, and once dry seen == total.
  [[nodiscard]] std::size_t ext_cap() const {
    return std::min(kSabreExtendedWindow, window_->two_qubit_seen());
  }
  void mark_front_scheduled(std::uint32_t node) {
    window_->on_scheduled(node);
    MaterializedLoopCore::mark_front_scheduled(node);
  }

 private:
  StreamWindow* window_;
};

}  // namespace

StreamRouteStats run_sabre_stream(GateSource& source, const Device& device,
                                  const Placement& initial, GateSink& sink,
                                  const StreamRouteOptions& options,
                                  const SabreLoopParams& params,
                                  const std::function<void()>& check_cancelled,
                                  SabreLoopStats* loop_stats) {
  const auto start_time = std::chrono::steady_clock::now();
  // check_routable's width/connectivity legs, up front; the arity and
  // operand legs run per gate as chunks arrive.
  if (source.num_qubits() > device.num_qubits()) {
    throw MappingError("circuit has " + std::to_string(source.num_qubits()) +
                       " qubits; device '" + device.name() + "' has " +
                       std::to_string(device.num_qubits()));
  }
  if (!device.artifacts()->connected()) {
    throw MappingError("device coupling graph is disconnected");
  }
  // A route-local arena, not the thread's scratch one: its blocks, sized
  // by the window, are freed when the route ends instead of staying
  // resident through the stages that follow.
  RouteArena arena;
  StreamWindow window(source, device, initial, options.chunk_gates,
                      params.enable_bridge, arena);
  StreamLoopCore core(window, device, arena);
  const std::size_t spill = std::max<std::size_t>(options.chunk_gates, 1);
  RoutingEmitter emitter(device, initial,
                         source.name() + "@" + device.name());
  // The emitter's resident buffer tops out around the spill threshold
  // (plus one flush pass of slack).
  emitter.reserve(spill * 2 + 16);
  emitter.set_sink(&sink, spill);
  const SabreLoopStats stats =
      run_sabre_loop(core, emitter, device.coupling(), device.num_qubits(),
                     params, check_cancelled);
  emitter.spill_all();
  sink.flush();
  if (loop_stats != nullptr) *loop_stats = stats;

  StreamRouteStats out;
  out.initial = initial;
  out.final = emitter.placement();
  out.added_swaps = emitter.added_swaps();
  out.added_moves = emitter.added_moves();
  out.added_bridges = emitter.added_bridges();
  out.direction_fixes = emitter.direction_fixes();
  out.gates_in = window.gates_seen();
  out.gates_out = emitter.total_emitted();
  out.window_peak_gates = window.window_peak_gates();
  out.runtime_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_time)
                       .count();
  return out;
}

}  // namespace qmap
