// Router interface and shared routing utilities.
//
// A router consumes a circuit over program qubits (every gate arity <= 2;
// lower multi-qubit gates first) together with an initial placement, and
// produces a circuit over *physical* qubits in which every two-qubit gate
// satisfies the device's coupling graph. Routing SWAPs are emitted as
// explicit SWAP gates (placeholders for later native expansion, Fig. 6);
// forbidden CX orientations are repaired inline with 4 Hadamards (Sec. IV).
#pragma once

#include <memory>
#include <string>

#include "arch/device.hpp"
#include "engine/cancel.hpp"
#include "ir/circuit.hpp"
#include "ir/gate_stream.hpp"
#include "layout/placement.hpp"
#include "obs/obs.hpp"

#include <vector>

namespace qmap {

struct RoutingResult {
  Circuit circuit;      // on physical qubits; contains SWAP placeholders
  Placement initial;    // wire -> physical at circuit start
  Placement final;      // wire -> physical at circuit end
  std::size_t added_swaps = 0;
  std::size_t added_moves = 0;      // shuttle moves (Sec. VI-C devices)
  std::size_t added_bridges = 0;    // distance-2 CXs run as 4-CX BRIDGEs
  std::size_t direction_fixes = 0;  // CXs that needed the 4-H inversion
  double runtime_ms = 0.0;

  [[nodiscard]] std::string to_string() const;
};

/// Knobs of a streaming route (Router::route_stream).
struct StreamRouteOptions {
  /// Pull granularity from the GateSource: how many gates each window
  /// extension requests at once. A value >= the circuit size degenerates
  /// to the materialized window (useful for parity testing). Also the
  /// emitter-to-sink spill threshold: routed output gates buffered before
  /// being pushed downstream.
  std::size_t chunk_gates = 4096;
};

/// Result of a streaming route: the RoutingResult counters without the
/// circuit (which went to the sink, chunk by chunk).
struct StreamRouteStats {
  Placement initial;    // wire -> physical at circuit start
  Placement final;      // wire -> physical at circuit end
  std::size_t added_swaps = 0;
  std::size_t added_moves = 0;
  std::size_t added_bridges = 0;
  std::size_t direction_fixes = 0;
  std::size_t gates_in = 0;           // program gates consumed
  std::size_t gates_out = 0;          // physical gates emitted
  std::size_t window_peak_gates = 0;  // resident-window high-water mark
  double runtime_ms = 0.0;
};

class Router {
 public:
  virtual ~Router() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RoutingResult route(const Circuit& circuit,
                                            const Device& device,
                                            const Placement& initial) = 0;

  /// True when this router implements route_stream().
  [[nodiscard]] virtual bool supports_streaming() const { return false; }

  /// Routes a gate stream through a bounded window: program gates are
  /// pulled from `source` chunk by chunk, routed output is pushed to
  /// `sink` (including a final sink.flush()), and peak memory is
  /// O(window), not O(circuit). Streaming routers produce byte-identical
  /// output to route() on the materialized circuit. The base
  /// implementation throws MappingError; check supports_streaming().
  virtual StreamRouteStats route_stream(GateSource& source,
                                        const Device& device,
                                        const Placement& initial,
                                        GateSink& sink,
                                        const StreamRouteOptions& options);

  /// Attaches a cooperative cancellation token (engine/cancel.hpp, header
  /// only — no dependency on the engine library). Not owned; null detaches.
  /// Implementations poll it via check_cancelled() in their main loops and
  /// abort by letting CancelledError propagate.
  void set_cancel_token(const CancelToken* token) noexcept { cancel_ = token; }

  /// Attaches an observer for per-route counters and histograms (obs/).
  /// Not owned; null (the default) detaches and makes recording free.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

 protected:
  /// Cancellation checkpoint for router main loops; cheap enough to call
  /// once per routing decision. Throws CancelledError when the token fired.
  void check_cancelled() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// Maybe-null observability sink for implementations.
  [[nodiscard]] obs::Observer* observer() const noexcept { return observer_; }

 private:
  const CancelToken* cancel_ = nullptr;
  obs::Observer* observer_ = nullptr;
};

/// Helper used by all router implementations: appends gates to the output
/// circuit while maintaining the placement and the routing statistics.
class RoutingEmitter {
 public:
  RoutingEmitter(const Device& device, Placement placement,
                 std::string circuit_name);

  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] const Device& device() const noexcept { return *device_; }

  /// Pre-sizes the output gate list. Routers call this with an estimate
  /// of the final gate count (program gates + inserted SWAPs + direction
  /// fixes); over-estimating only costs slack capacity.
  void reserve(std::size_t gates) { circuit_.reserve(gates); }

  /// Emits a program-qubit gate at its current physical location.
  /// Two-qubit gates must be physically adjacent; directional gates with a
  /// forbidden orientation are wrapped in Hadamards. Throws MappingError on
  /// non-adjacent operands. The rvalue overload moves the gate's operand
  /// and parameter storage straight into the output — the streaming path
  /// (and any caller done with its copy) emits without per-gate
  /// allocations.
  void emit_program_gate(const Gate& gate) { emit_mapped(gate); }
  void emit_program_gate(Gate&& gate) { emit_mapped(std::move(gate)); }

  /// Emits a SWAP between two adjacent physical qubits and updates the
  /// placement.
  void emit_swap(int phys_a, int phys_b);

  /// Emits a shuttle Move: relocates the occupant of `phys_from` into the
  /// empty site `phys_to`. Requires device shuttling support, adjacency,
  /// and that `phys_to` holds a free wire. Updates the placement.
  void emit_move(int phys_from, int phys_to);

  /// Emits the 4-CX BRIDGE template realizing CX(phys_c, phys_t) through
  /// the middle qubit `phys_m`:
  ///   CX(c,m) CX(m,t) CX(c,m) CX(m,t)
  /// The placement is untouched (a bridge moves no wires). Requires both
  /// legs adjacent and control/target *not* adjacent (distance exactly 2);
  /// forbidden leg orientations are repaired with Hadamards like any CX.
  void emit_bridge(int phys_c, int phys_m, int phys_t);

  /// Moves this emitter's state into a RoutingResult.
  [[nodiscard]] RoutingResult finish(const Placement& initial,
                                     double runtime_ms) &&;

  /// Streaming mode: attaches a downstream sink. Once set, accumulated
  /// output gates are moved to the sink whenever spill_if_needed() sees
  /// `spill_threshold` or more of them (and unconditionally by spill_all()),
  /// keeping the emitter's resident state O(spill threshold). finish()
  /// then returns an empty circuit — the gates went downstream.
  void set_sink(GateSink* sink, std::size_t spill_threshold) noexcept {
    sink_ = sink;
    spill_threshold_ = spill_threshold;
  }
  void spill_if_needed();
  /// Pushes any remaining buffered gates to the sink (no sink.flush() —
  /// the driver owns stream termination).
  void spill_all();

  /// Total gates emitted: spilled to the sink plus still buffered.
  [[nodiscard]] std::size_t total_emitted() const noexcept {
    return spilled_gates_ + circuit_.size();
  }
  [[nodiscard]] std::size_t added_swaps() const noexcept {
    return added_swaps_;
  }
  [[nodiscard]] std::size_t added_moves() const noexcept {
    return added_moves_;
  }
  [[nodiscard]] std::size_t added_bridges() const noexcept {
    return added_bridges_;
  }
  [[nodiscard]] std::size_t direction_fixes() const noexcept {
    return direction_fixes_;
  }

 private:
  // One coupling-legal CX, wrapped in Hadamards when the orientation is
  // forbidden (shared by the four bridge legs).
  void emit_physical_cx(int phys_control, int phys_target);
  // Maps program operands to physical and appends (both emit_program_gate
  // overloads funnel here; by-value so moved-in gates stay allocation-free).
  void emit_mapped(Gate gate);

  const Device* device_;
  Placement placement_;
  Circuit circuit_;
  GateSink* sink_ = nullptr;
  std::size_t spill_threshold_ = 0;
  std::size_t spilled_gates_ = 0;
  std::vector<Gate> spill_buf_;  // recycled between spills
  std::size_t added_swaps_ = 0;
  std::size_t added_moves_ = 0;
  std::size_t added_bridges_ = 0;
  std::size_t direction_fixes_ = 0;
};

/// Validation helper (used by tests and assertions): true when every
/// two-qubit gate of `circuit` is allowed by the device coupling graph,
/// orientation included.
[[nodiscard]] bool respects_coupling(const Circuit& circuit,
                                     const Device& device);

/// Throws MappingError when the circuit is not routable at all:
/// wider than the device, device disconnected, or gates of arity > 2.
void check_routable(const Circuit& circuit, const Device& device);

}  // namespace qmap
