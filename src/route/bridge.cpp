#include "route/bridge.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "route/route_ir.hpp"
#include "route/sabre_loop.hpp"
#include "route/stream_core.hpp"

namespace qmap {

RoutingResult BridgeRouter::route(const Circuit& circuit, const Device& device,
                                  const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  const CouplingGraph& coupling = device.coupling();
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  RouteCore core(circuit, device, DagMode::Sequential, initial, arena);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  // Output bound: every program gate plus room for SWAPs and direction
  // fixes; generous slack beats mid-route growth reallocations.
  emitter.reserve(circuit.size() * 3 + 16);

  const int num_phys = device.num_qubits();
  const std::size_t ext_cap =
      std::min(static_cast<std::size_t>(options_.extended_window),
               static_cast<std::size_t>(core.ir.num_two_qubit));
  const std::size_t front_cap = core.ir.num_two_qubit;
  SabreLoopBuffers buffers;
  buffers.decay = arena.alloc<double>(num_phys);
  buffers.relevant = arena.alloc<std::uint8_t>(num_phys);
  buffers.extended = arena.alloc<std::uint32_t>(ext_cap);
  buffers.to_bridge = arena.alloc<std::uint32_t>(core.ir.num_two_qubit);
  // Endpoint pairs of the front/extended gates, recollected per swap
  // decision: invariant across candidate edges and across the bridge
  // decisions (pure reads, placement untouched).
  buffers.front_pa = arena.alloc<std::int32_t>(front_cap);
  buffers.front_pb = arena.alloc<std::int32_t>(front_cap);
  buffers.ext_pa = arena.alloc<std::int32_t>(ext_cap);
  buffers.ext_pb = arena.alloc<std::int32_t>(ext_cap);

  SabreLoopParams params;
  params.extended_weight = options_.extended_weight;
  params.decay_increment = options_.decay_increment;
  params.decay_reset_interval = options_.decay_reset_interval;
  params.enable_bridge = true;
  params.label = "bridge";

  MaterializedLoopCore loop_core(core, ext_cap, buffers);
  const SabreLoopStats stats = run_sabre_loop(
      loop_core, emitter, coupling, num_phys, params,
      [this] { check_cancelled(); });

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  RoutingResult result = std::move(emitter).finish(initial, runtime_ms);
  // One flush per route() keeps the loop body free of locking.
  obs::add(observer(), "router.bridge.routes");
  obs::add(observer(), "router.bridge.iterations", stats.iterations);
  obs::add(observer(), "router.bridge.rescues", stats.rescues);
  obs::add(observer(), "router.bridge.bridges", result.added_bridges);
  obs::add(observer(), "router.bridge.swaps_avoided", stats.swaps_avoided);
  obs::observe(observer(), "route.swaps_inserted",
               static_cast<double>(result.added_swaps));
  return result;
}

StreamRouteStats BridgeRouter::route_stream(
    GateSource& source, const Device& device, const Placement& initial,
    GateSink& sink, const StreamRouteOptions& options) {
  SabreLoopParams params;
  params.extended_weight = options_.extended_weight;
  params.decay_increment = options_.decay_increment;
  params.decay_reset_interval = options_.decay_reset_interval;
  params.enable_bridge = true;
  params.label = "bridge";
  SabreLoopStats loop_stats;
  const StreamRouteStats stats = run_sabre_stream(
      source, device, initial, sink, options,
      static_cast<std::size_t>(std::max(options_.extended_window, 0)), params,
      [this] { check_cancelled(); }, &loop_stats);
  obs::add(observer(), "router.bridge.routes");
  obs::add(observer(), "router.bridge.iterations", loop_stats.iterations);
  obs::add(observer(), "router.bridge.rescues", loop_stats.rescues);
  obs::add(observer(), "router.bridge.bridges", stats.added_bridges);
  obs::add(observer(), "router.bridge.swaps_avoided",
           loop_stats.swaps_avoided);
  obs::observe(observer(), "route.swaps_inserted",
               static_cast<double>(stats.added_swaps));
  return stats;
}

}  // namespace qmap
