#include "route/astar_layer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <queue>
#include <unordered_map>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {
namespace {

// A* node-expansion budget per layer before falling back to shortest-path
// routing for that layer.
constexpr std::size_t kMaxExpansions = 200000;

/// ASAP layering: gate -> layer index such that every gate sits one layer
/// after the latest gate it depends on (barriers force a full cut).
std::vector<std::vector<int>> build_layers(const Circuit& circuit) {
  std::vector<int> qubit_layer(static_cast<std::size_t>(circuit.num_qubits()),
                               -1);
  std::vector<std::vector<int>> layers;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& gate = circuit.gate(i);
    int layer = 0;
    for (const int q : gate.qubits) {
      layer = std::max(layer, qubit_layer[static_cast<std::size_t>(q)] + 1);
    }
    if (gate.kind == GateKind::Barrier) {
      // Anything after the barrier starts on a fresh layer.
      for (int& l : qubit_layer) l = std::max(l, layer);
    }
    for (const int q : gate.qubits) {
      qubit_layer[static_cast<std::size_t>(q)] = layer;
    }
    if (static_cast<std::size_t>(layer) >= layers.size()) {
      layers.resize(static_cast<std::size_t>(layer) + 1);
    }
    layers[static_cast<std::size_t>(layer)].push_back(static_cast<int>(i));
  }
  return layers;
}

/// A program->physical map in the arena; nodes reference, never copy.
struct SearchNode {
  const int* program_to_phys = nullptr;
  int parent = -1;
  int swap_a = -1;
  int swap_b = -1;
  int g = 0;
};

/// Hash-map key over an arena-resident map. Arena blocks never move, so
/// the pointers stay valid for the whole per-layer search. Replaces the
/// old std::map<std::vector<int>, int>: the search only ever does point
/// lookups and overwrites, never ordered iteration, so the container swap
/// cannot change any routing decision.
struct MapKey {
  const int* data = nullptr;
  std::size_t size = 0;
};

struct MapKeyHash {
  std::size_t operator()(const MapKey& key) const noexcept {
    // FNV-1a over the raw entries.
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < key.size; ++i) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.data[i]));
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct MapKeyEq {
  bool operator()(const MapKey& x, const MapKey& y) const noexcept {
    return x.size == y.size &&
           std::memcmp(x.data, y.data, x.size * sizeof(int)) == 0;
  }
};

}  // namespace

RoutingResult AStarLayerRouter::route(const Circuit& circuit,
                                      const Device& device,
                                      const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  const CouplingGraph& coupling = device.coupling();
  const std::vector<std::vector<int>> layers = build_layers(circuit);
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  // RouteCore supplies the SoA gate records (layer pair extraction), the
  // flat distance matrix, and the program->physical mirror; the CSR DAG is
  // unused here (layers are the schedule).
  RouteCore core(circuit, device, DagMode::Sequential, initial, arena);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  // Output bound: every program gate plus room for SWAPs and direction
  // fixes; generous slack beats mid-route growth reallocations.
  emitter.reserve(circuit.size() * 3 + 16);
  const int n = circuit.num_qubits();
  const std::size_t nsize = static_cast<std::size_t>(n);

  // Two-qubit gates of the current layer as (program, program) pairs.
  std::vector<std::pair<int, int>> pairs;
  const auto pairs_distance_sum = [&](const int* program_to_phys) {
    int sum = 0;
    for (const auto& [a, b] : pairs) {
      sum += core.dist(program_to_phys[a], program_to_phys[b]) - 1;
    }
    return sum;
  };

  std::uint64_t total_expansions = 0;
  std::uint64_t fallback_layers = 0;

  for (std::size_t layer_index = 0; layer_index < layers.size();
       ++layer_index) {
    pairs.clear();
    for (const int node : layers[layer_index]) {
      const auto u = static_cast<std::uint32_t>(node);
      if (core.ir.is_two_qubit(u)) {
        pairs.emplace_back(static_cast<int>(core.ir.q0[u]),
                           static_cast<int>(core.ir.q1[u]));
      }
    }

    // Current program -> physical map.
    const ArenaScope layer_scope(arena);
    int* current = arena.alloc<int>(nsize);
    for (int k = 0; k < n; ++k) current[k] = core.phys_of(k);

    if (!pairs.empty() && pairs_distance_sum(current) > 0) {
      // A* over placements to make the whole layer executable.
      const auto heuristic = [&](const int* program_to_phys) {
        const int base = pairs_distance_sum(program_to_phys);
        return std::ceil(static_cast<double>(base) / 2.0);
      };

      std::vector<SearchNode> nodes;
      nodes.push_back(SearchNode{current, -1, -1, -1, 0});
      using QueueEntry = std::pair<double, int>;  // (f, node index)
      std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                          std::greater<>>
          open;
      open.emplace(heuristic(current), 0);
      std::unordered_map<MapKey, int, MapKeyHash, MapKeyEq> best_g;
      best_g[MapKey{current, nsize}] = 0;
      int* staged = arena.alloc<int>(nsize);  // candidate scratch map

      int goal = -1;
      std::size_t expansions = 0;
      while (!open.empty()) {
        check_cancelled();
        const auto [f, index] = open.top();
        open.pop();
        // Copy: pushing into `nodes` below invalidates references.
        const SearchNode node = nodes[static_cast<std::size_t>(index)];
        const auto seen = best_g.find(MapKey{node.program_to_phys, nsize});
        if (seen != best_g.end() && seen->second < node.g) continue;
        if (pairs_distance_sum(node.program_to_phys) == 0) {
          goal = index;
          break;
        }
        if (++expansions > kMaxExpansions) break;
        ++total_expansions;
        for (const auto& edge : coupling.edges()) {
          std::memcpy(staged, node.program_to_phys, nsize * sizeof(int));
          for (std::size_t k = 0; k < nsize; ++k) {
            if (staged[k] == edge.a) staged[k] = edge.b;
            else if (staged[k] == edge.b) staged[k] = edge.a;
          }
          const int g = node.g + 1;
          const auto it = best_g.find(MapKey{staged, nsize});
          if (it != best_g.end()) {
            if (it->second <= g) continue;
            it->second = g;  // the existing key's contents equal staged
          }
          int* stored = arena.alloc<int>(nsize);
          std::memcpy(stored, staged, nsize * sizeof(int));
          if (it == best_g.end()) best_g.emplace(MapKey{stored, nsize}, g);
          nodes.push_back(SearchNode{stored, index, edge.a, edge.b, g});
          open.emplace(g + heuristic(stored),
                       static_cast<int>(nodes.size() - 1));
        }
      }

      if (goal >= 0) {
        // Reconstruct and emit the SWAP chain.
        std::vector<std::pair<int, int>> swaps;
        for (int index = goal;
             nodes[static_cast<std::size_t>(index)].parent >= 0;
             index = nodes[static_cast<std::size_t>(index)].parent) {
          swaps.emplace_back(nodes[static_cast<std::size_t>(index)].swap_a,
                             nodes[static_cast<std::size_t>(index)].swap_b);
        }
        std::reverse(swaps.begin(), swaps.end());
        for (const auto& [a, b] : swaps) core.emit_swap(emitter, a, b);
      } else {
        ++fallback_layers;
        // Budget exhausted: fall back to shortest-path walking per pair.
        for (const auto& [qa, qb] : pairs) {
          const int pa = core.phys_of(static_cast<std::uint32_t>(qa));
          const int pb = core.phys_of(static_cast<std::uint32_t>(qb));
          const std::vector<int> path = core.shortest_path(pa, pb);
          for (std::size_t i = 0; i + 2 < path.size(); ++i) {
            core.emit_swap(emitter, path[i], path[i + 1]);
          }
        }
      }
    }

    for (const int node : layers[layer_index]) {
      emitter.emit_program_gate(circuit.gate(static_cast<std::size_t>(node)));
    }
  }

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  RoutingResult result = std::move(emitter).finish(initial, runtime_ms);
  obs::add(observer(), "router.astar.routes");
  obs::add(observer(), "router.astar.expansions", total_expansions);
  obs::add(observer(), "router.astar.fallback_layers", fallback_layers);
  obs::observe(observer(), "route.swaps_inserted",
               static_cast<double>(result.added_swaps));
  return result;
}

}  // namespace qmap
