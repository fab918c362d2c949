#include "route/shuttle.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "route/route_ir.hpp"
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

}  // namespace

RoutingResult ShuttleRouter::route(const Circuit& circuit,
                                   const Device& device,
                                   const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  if (!device.supports_shuttling()) {
    throw MappingError("shuttle router requires a device with shuttling "
                       "support (set_supports_shuttling)");
  }
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  RouteCore core(circuit, device, DagMode::Sequential, initial, arena);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());

  const int num_phys = device.num_qubits();
  const std::size_t ext_cap = materialized_ext_cap(core);
  const SabreLoopBuffers buffers =
      alloc_sabre_buffers(arena, core, /*enable_bridge=*/false);
  double* const decay = buffers.decay;
  std::fill(decay, decay + num_phys, 1.0);
  int actions_since_reset = 0;
  int actions_since_progress = 0;
  const int stall_limit = 10 * std::max(1, num_phys);
  SabreLoopStats stats;

  while (!core.front.all_scheduled()) {
    check_cancelled();
    ++stats.iterations;
    if (core.flush_executable(emitter, [](std::uint32_t) {})) {
      actions_since_progress = 0;
      continue;
    }
    core.refresh_front();
    const std::uint32_t front_size = core.front_size;
    if (front_size == 0) {
      throw MappingError("shuttle router: stalled");
    }
    const std::uint32_t num_extended =
        core.collect_extended(ext_cap, buffers.extended);
    core.mark_relevant(buffers.relevant);
    core.collect_endpoints(core.front_gates, front_size, buffers.front_pa,
                           buffers.front_pb);
    core.collect_endpoints(buffers.extended, num_extended, buffers.ext_pa,
                           buffers.ext_pb);

    // Candidate actions: SWAP any relevant edge, or Move the occupant of a
    // relevant site into an adjacent empty site.
    double best_score = std::numeric_limits<double>::infinity();
    int best_a = -1;
    int best_b = -1;
    bool best_is_move = false;
    const auto consider = [&](int a, int b, bool is_move) {
      double front_term = 0.0;
      for (std::uint32_t k = 0; k < front_size; ++k) {
        front_term += core.dist_pair_swapped(buffers.front_pa[k],
                                             buffers.front_pb[k], a, b);
      }
      front_term /= static_cast<double>(front_size);
      double extended_term = 0.0;
      if (num_extended > 0) {
        for (std::uint32_t k = 0; k < num_extended; ++k) {
          extended_term += core.dist_pair_swapped(buffers.ext_pa[k],
                                                  buffers.ext_pb[k], a, b);
        }
        extended_term /= static_cast<double>(num_extended);
      }
      const double decay_factor = std::max(decay[a], decay[b]);
      const double action_cost = is_move ? kMoveActionCost : kSwapActionCost;
      const double score =
          decay_factor * (front_term + kSabreExtendedWeight * extended_term +
                          kActionCostWeight * action_cost);
      if (score < best_score) {
        best_score = score;
        best_a = a;
        best_b = b;
        best_is_move = is_move;
      }
    };
    for (const auto& edge : device.coupling().edges()) {
      if (!buffers.relevant[edge.a] && !buffers.relevant[edge.b]) continue;
      const bool a_free = core.program_at(edge.a) < 0;
      const bool b_free = core.program_at(edge.b) < 0;
      if (b_free && !a_free) {
        consider(edge.a, edge.b, /*is_move=*/true);
      } else if (a_free && !b_free) {
        consider(edge.b, edge.a, /*is_move=*/true);
      } else if (!a_free && !b_free) {
        consider(edge.a, edge.b, /*is_move=*/false);
      }
      // Two free sites: moving vacuum around is useless.
    }
    if (best_a < 0) throw MappingError("shuttle router: no candidate action");

    ++actions_since_progress;
    if (actions_since_progress > stall_limit) {
      // Safeguard: walk the first front gate together along a shortest
      // path, preferring moves along it too.
      const std::uint32_t gate = core.front_gates[0];
      const std::vector<int> path = core.shortest_path(
          core.phys_of(core.ir.q0[gate]), core.phys_of(core.ir.q1[gate]));
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        if (core.program_at(path[i + 1]) < 0) {
          core.emit_move(emitter, path[i], path[i + 1]);
        } else {
          core.emit_swap(emitter, path[i], path[i + 1]);
        }
      }
      ++stats.rescues;
      actions_since_progress = 0;
      continue;
    }

    if (best_is_move) {
      core.emit_move(emitter, best_a, best_b);
    } else {
      core.emit_swap(emitter, best_a, best_b);
    }
    decay[best_a] += kSabreDecayIncrement;
    decay[best_b] += kSabreDecayIncrement;
    if (++actions_since_reset >= kSabreDecayResetInterval) {
      std::fill(decay, decay + num_phys, 1.0);
      actions_since_reset = 0;
    }
  }

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  RoutingResult result = std::move(emitter).finish(initial, runtime_ms);
  record_sabre_loop(observer(), "router.shuttle", stats, result.added_swaps);
  return result;
}

}  // namespace qmap
