#include "route/qmap_router.hpp"

#include <algorithm>
#include <cmath>

#include "route/sabre_loop.hpp"

namespace qmap {
namespace {

// A small lookahead over future two-qubit gates, lightly weighted: the
// latency look-back, not the lookahead, is this router's signature.
constexpr std::size_t kExtendedWindow = 10;
constexpr double kExtendedWeight = 0.3;
// Scores this close count as tied, and the earlier-finishing SWAP wins.
constexpr double kTieTolerance = 1e-12;

/// qmap's loop core: SWAPs scored by hop-distance progress without decay,
/// near-ties broken on the SWAP's look-back finish cycle, and every
/// emitted gate advancing the busy-until cycles of the sites it occupies.
class QmapLoopCore : public MaterializedLoopCore<HopDistance> {
 public:
  QmapLoopCore(RouteCore& core, const Device& device, RouteArena& arena,
               const SabreLoopBuffers& buffers)
      : MaterializedLoopCore(core, device, arena, buffers),
        device_(&device),
        busy_until_(arena.alloc<double>(device.num_qubits())),
        swap_cycles_(device.cycles_for(make_gate(GateKind::SWAP, {0, 1}))) {
    std::fill(busy_until_, busy_until_ + device.num_qubits(), 0.0);
  }

  bool flush(RoutingEmitter& emitter) {
    return route_core().flush_executable(
        [&](std::uint32_t node) {
          emitter.emit_program_gate(route_core().circuit().gate(node));
          occupy_gate(node);
        },
        [] {});
  }
  [[nodiscard]] std::size_t ext_cap() const {
    return std::min(kExtendedWindow, static_cast<std::size_t>(
                                         route_core().ir.num_two_qubit));
  }
  [[nodiscard]] LoopScore score(const LoopAction& action,
                                const LoopTerms& terms) const {
    double value = terms.front_sum / terms.front_size;
    if (terms.num_extended > 0) {
      value += kExtendedWeight * terms.extended_sum / terms.num_extended;
    }
    return {value, std::max(busy_until_[action.a], busy_until_[action.b]) +
                       swap_cycles_};
  }
  [[nodiscard]] static bool better(const LoopScore& score,
                                   const LoopScore& best) {
    return score.value < best.value - kTieTolerance ||
           (std::abs(score.value - best.value) <= kTieTolerance &&
            score.finish < best.finish);
  }
  void apply(RoutingEmitter& emitter, const LoopAction& action) {
    MaterializedLoopCore::apply(emitter, action);
    const double start =
        std::max(busy_until_[action.a], busy_until_[action.b]);
    busy_until_[action.a] = start + swap_cycles_;
    busy_until_[action.b] = start + swap_cycles_;
  }

 private:
  void occupy_gate(std::uint32_t node) {
    const Gate& gate = route_core().circuit().gate(node);
    const double cycles = device_->cycles_for(gate);
    double start = 0.0;
    for (const int q : gate.qubits) {
      start = std::max(start, busy_until_[route_core().phys_of(q)]);
    }
    for (const int q : gate.qubits) {
      busy_until_[route_core().phys_of(q)] = start + cycles;
    }
  }

  const Device* device_;
  double* busy_until_;  // per physical qubit, in cycles
  double swap_cycles_;
};

}  // namespace

RoutingResult QmapRouter::route(const Circuit& circuit, const Device& device,
                                const Placement& initial) {
  SabreLoopStats stats;
  RoutingResult result = run_sabre_route<QmapLoopCore>(
      circuit, device, initial, DagMode::Sequential,
      SabreLoopParams{/*enable_bridge=*/false, "qmap"},
      [this] { check_cancelled(); }, stats);
  record_sabre_loop(observer(), "router.qmap", stats, result.added_swaps);
  return result;
}

}  // namespace qmap
