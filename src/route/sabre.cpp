#include "route/sabre.hpp"

#include "common/error.hpp"
#include "route/sabre_loop.hpp"
#include "route/stream_core.hpp"

namespace qmap {

RoutingResult SabreRouter::route(const Circuit& circuit, const Device& device,
                                 const Placement& initial) {
  SabreLoopStats stats;
  RoutingResult result = run_sabre_route<MaterializedLoopCore<HopDistance>>(
      circuit, device, initial,
      options_.use_commutation ? DagMode::Commutation : DagMode::Sequential,
      SabreLoopParams{}, [this] { check_cancelled(); }, stats);
  record_sabre_loop(observer(), "router.sabre", stats,
                    result.added_swaps);
  return result;
}

StreamRouteStats SabreRouter::route_stream(GateSource& source,
                                           const Device& device,
                                           const Placement& initial,
                                           GateSink& sink,
                                           const StreamRouteOptions& options) {
  if (options_.use_commutation) {
    throw MappingError(
        "sabre: the commutation-aware DAG cannot be streamed (any later "
        "gate on a shared qubit may commute, so readiness needs unbounded "
        "lookahead); disable use_commutation or materialize and call "
        "route()");
  }
  SabreLoopStats loop_stats;
  const StreamRouteStats stats = run_sabre_stream(
      source, device, initial, sink, options, SabreLoopParams{},
      [this] { check_cancelled(); }, &loop_stats);
  record_sabre_loop(observer(), "router.sabre", loop_stats,
                    stats.added_swaps);
  return stats;
}

}  // namespace qmap
