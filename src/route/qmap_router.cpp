#include "route/qmap_router.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {
namespace {

// A small lookahead over future two-qubit gates, lightly weighted: the
// latency look-back, not the lookahead, is this router's signature.
constexpr std::size_t kExtendedWindow = 10;
constexpr double kExtendedWeight = 0.3;

}  // namespace

RoutingResult QmapRouter::route(const Circuit& circuit, const Device& device,
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
  // Look-back state: when each physical qubit becomes free, in cycles.
  double* busy_until = arena.alloc<double>(num_phys);
  std::fill(busy_until, busy_until + num_phys, 0.0);
  const double swap_cycles =
      device.cycles_for(make_gate(GateKind::SWAP, {0, 1}));

  const auto occupy_pair = [&](int phys_a, int phys_b, double cycles) {
    const double start = std::max(busy_until[phys_a], busy_until[phys_b]);
    busy_until[phys_a] = start + cycles;
    busy_until[phys_b] = start + cycles;
  };
  const auto occupy_gate = [&](std::uint32_t node) {
    const Gate& gate = circuit.gate(node);
    const double cycles = device.cycles_for(gate);
    double start = 0.0;
    for (const int q : gate.qubits) {
      start = std::max(start, busy_until[core.phys_of(q)]);
    }
    for (const int q : gate.qubits) {
      busy_until[core.phys_of(q)] = start + cycles;
    }
  };

  std::uint8_t* relevant = arena.alloc<std::uint8_t>(num_phys);
  const std::size_t ext_cap =
      std::min(kExtendedWindow,
               static_cast<std::size_t>(core.ir.num_two_qubit));
  std::uint32_t* extended = arena.alloc<std::uint32_t>(ext_cap);
  // Endpoint pairs of the front/extended gates, recollected per swap
  // decision (invariant across candidate edges).
  const std::size_t front_cap = core.ir.num_two_qubit;
  std::int32_t* front_pa = arena.alloc<std::int32_t>(front_cap);
  std::int32_t* front_pb = arena.alloc<std::int32_t>(front_cap);
  std::int32_t* ext_pa = arena.alloc<std::int32_t>(ext_cap);
  std::int32_t* ext_pb = arena.alloc<std::int32_t>(ext_cap);

  int stall_guard = 0;
  const int stall_limit = 10 * std::max(1, num_phys);
  std::uint64_t iterations = 0;
  std::uint64_t rescues = 0;
  while (!core.front.all_scheduled()) {
    check_cancelled();
    ++iterations;
    if (core.flush_executable(emitter, occupy_gate)) {
      stall_guard = 0;
      continue;
    }
    core.refresh_front();
    if (core.front_size == 0) {
      throw MappingError("qmap router: stalled without ready two-qubit gate");
    }
    const std::uint32_t num_extended = core.collect_extended(ext_cap, extended);

    core.mark_relevant(relevant);
    core.collect_endpoints(core.front_gates, core.front_size, front_pa,
                           front_pb);
    core.collect_endpoints(extended, num_extended, ext_pa, ext_pb);

    // Primary: distance improvement over front + lookahead. Secondary
    // (latency look-back): earliest finish time of the SWAP itself.
    double best_primary = std::numeric_limits<double>::infinity();
    double best_finish = std::numeric_limits<double>::infinity();
    int best_a = -1;
    int best_b = -1;
    for (const auto& edge : coupling.edges()) {
      if (!relevant[edge.a] && !relevant[edge.b]) continue;
      double primary = 0.0;
      for (std::uint32_t k = 0; k < core.front_size; ++k) {
        primary += core.dist_pair_swapped(front_pa[k], front_pb[k], edge.a,
                                          edge.b);
      }
      primary /= static_cast<double>(core.front_size);
      if (num_extended > 0) {
        double ext = 0.0;
        for (std::uint32_t k = 0; k < num_extended; ++k) {
          ext += core.dist_pair_swapped(ext_pa[k], ext_pb[k], edge.a, edge.b);
        }
        primary += kExtendedWeight * ext / static_cast<double>(num_extended);
      }
      const double finish =
          std::max(busy_until[edge.a], busy_until[edge.b]) + swap_cycles;
      if (primary < best_primary - 1e-12 ||
          (std::abs(primary - best_primary) <= 1e-12 &&
           finish < best_finish)) {
        best_primary = primary;
        best_finish = finish;
        best_a = edge.a;
        best_b = edge.b;
      }
    }
    if (best_a < 0) throw MappingError("qmap router: no candidate SWAP");

    if (++stall_guard > stall_limit) {
      const std::uint32_t gate = core.front_gates[0];
      const int pa = core.phys_of(core.ir.q0[gate]);
      const int pb = core.phys_of(core.ir.q1[gate]);
      const std::vector<int> path = core.shortest_path(pa, pb);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        core.emit_swap(emitter, path[i], path[i + 1]);
        occupy_pair(path[i], path[i + 1], swap_cycles);
      }
      ++rescues;
      stall_guard = 0;
      continue;
    }

    core.emit_swap(emitter, best_a, best_b);
    occupy_pair(best_a, best_b, swap_cycles);
  }

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  RoutingResult result = std::move(emitter).finish(initial, runtime_ms);
  obs::add(observer(), "qmap_router.routes");
  obs::add(observer(), "qmap_router.iterations", iterations);
  obs::add(observer(), "qmap_router.rescues", rescues);
  obs::observe(observer(), "route.swaps_inserted",
               static_cast<double>(result.added_swaps));
  return result;
}

}  // namespace qmap
