#include "route/bridge.hpp"

#include "route/sabre_loop.hpp"
#include "route/stream_core.hpp"

namespace qmap {
namespace {

constexpr SabreLoopParams kBridgeParams{/*enable_bridge=*/true, "bridge"};

void record_bridge_loop(obs::Observer* observer, const SabreLoopStats& stats,
                        std::size_t added_swaps, std::size_t added_bridges) {
  record_sabre_loop(observer, "router.bridge", stats, added_swaps);
  obs::add(observer, "router.bridge.bridges", added_bridges);
  obs::add(observer, "router.bridge.swaps_avoided", stats.swaps_avoided);
}

}  // namespace

RoutingResult BridgeRouter::route(const Circuit& circuit, const Device& device,
                                  const Placement& initial) {
  SabreLoopStats stats;
  RoutingResult result = run_sabre_route<MaterializedLoopCore<HopDistance>>(
      circuit, device, initial, DagMode::Sequential, kBridgeParams,
      [this] { check_cancelled(); }, stats);
  record_bridge_loop(observer(), stats, result.added_swaps,
                     result.added_bridges);
  return result;
}

StreamRouteStats BridgeRouter::route_stream(
    GateSource& source, const Device& device, const Placement& initial,
    GateSink& sink, const StreamRouteOptions& options) {
  SabreLoopStats loop_stats;
  const StreamRouteStats stats = run_sabre_stream(
      source, device, initial, sink, options, kBridgeParams,
      [this] { check_cancelled(); }, &loop_stats);
  record_bridge_loop(observer(), loop_stats, stats.added_swaps,
                     stats.added_bridges);
  return stats;
}

}  // namespace qmap
