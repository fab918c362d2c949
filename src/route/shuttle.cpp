#include "route/shuttle.hpp"

#include "common/error.hpp"
#include "route/sabre_loop.hpp"

namespace qmap {
namespace {

// Cost of one action in native operations: a SWAP is 3 two-qubit gates, a
// Move one shuttle.
constexpr double kSwapActionCost = 3.0;
constexpr double kMoveActionCost = 1.0;
// Weight of the action cost against the distance terms: distance progress
// dominates (routing quality first); among equally useful actions the
// cheaper one (a Move) wins.
constexpr double kActionCostWeight = 0.1;

/// shuttle's loop core: an edge with one free site offers a Move of the
/// other site's occupant into it, an edge with none a SWAP, and an edge
/// of two free sites nothing (moving vacuum around is useless). Actions
/// score by SABRE's terms plus their weighted cost.
class ShuttleLoopCore : public MaterializedLoopCore<HopDistance> {
 public:
  using MaterializedLoopCore::MaterializedLoopCore;

  [[nodiscard]] LoopAction offer(int a, int b) const {
    const bool a_free = route_core().program_at(a) < 0;
    const bool b_free = route_core().program_at(b) < 0;
    if (a_free && b_free) return {};
    if (b_free) return {ActionKind::Move, a, b};
    if (a_free) return {ActionKind::Move, b, a};
    return {ActionKind::Swap, a, b};
  }
  [[nodiscard]] static LoopScore score(const LoopAction& action,
                                       const LoopTerms& terms) {
    const double action_cost = action.kind == ActionKind::Move
                                   ? kMoveActionCost
                                   : kSwapActionCost;
    return {terms.decay *
                (terms.front_mean() +
                 kSabreExtendedWeight * terms.extended_mean() +
                 kActionCostWeight * action_cost),
            0.0};
  }
  void apply(RoutingEmitter& emitter, const LoopAction& action) {
    if (action.kind == ActionKind::Move) {
      route_core().emit_move(emitter, action.a, action.b);
    } else {
      MaterializedLoopCore::apply(emitter, action);
    }
  }
};

}  // namespace

RoutingResult ShuttleRouter::route(const Circuit& circuit,
                                   const Device& device,
                                   const Placement& initial) {
  if (!device.supports_shuttling()) {
    throw MappingError("shuttle router requires a device with shuttling "
                       "support (set_supports_shuttling)");
  }
  SabreLoopStats stats;
  RoutingResult result = run_sabre_route<ShuttleLoopCore>(
      circuit, device, initial, DagMode::Sequential,
      SabreLoopParams{/*enable_bridge=*/false, "shuttle"},
      [this] { check_cancelled(); }, stats);
  record_sabre_loop(observer(), "router.shuttle", stats, result.added_swaps);
  return result;
}

}  // namespace qmap
