#include "noise/reliability.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <span>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {

ReliabilityDistance::ReliabilityDistance(const Device& device)
    : num_qubits_(device.num_qubits()), device_(&device) {
  const NoiseModel& noise = device.noise();  // throws without a model
  (void)noise;
  const auto n = static_cast<std::size_t>(num_qubits_);
  cost_.assign(n * n, std::numeric_limits<double>::infinity());
  // Dijkstra from every source over SWAP log-error edge weights.
  for (int source = 0; source < num_qubits_; ++source) {
    auto row = cost_.begin() + static_cast<long>(source) * num_qubits_;
    row[source] = 0.0;
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    open.emplace(0.0, source);
    while (!open.empty()) {
      const auto [d, u] = open.top();
      open.pop();
      if (d > row[u]) continue;
      for (const int v : device.coupling().neighbors(u)) {
        const double w = device.noise().swap_log_cost(u, v);
        if (row[u] + w < row[v]) {
          row[v] = row[u] + w;
          open.emplace(row[v], v);
        }
      }
    }
  }
}

double ReliabilityDistance::cost(int a, int b) const {
  if (a < 0 || a >= num_qubits_ || b < 0 || b >= num_qubits_) {
    throw DeviceError("reliability distance: qubit out of range");
  }
  return cost_[static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(num_qubits_) +
               static_cast<std::size_t>(b)];
}

double ReliabilityDistance::edge_gate_cost(int a, int b) const {
  return -std::log(1.0 - device_->noise().two_qubit_error(a, b));
}

double ReliabilityDistance::swap_cost(int a, int b) const {
  return device_->noise().swap_log_cost(a, b);
}

Placement ReliabilityPlacer::place(const Circuit& circuit,
                                   const Device& device) {
  if (circuit.num_qubits() > device.num_qubits()) {
    throw MappingError("circuit wider than device");
  }
  const ReliabilityDistance distance(device);
  const InteractionGraph interactions(circuit);
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return interactions.degree(a) > interactions.degree(b);
  });

  std::vector<int> program_to_phys(static_cast<std::size_t>(n), -1);
  std::vector<bool> used(static_cast<std::size_t>(m), false);
  for (const int k : order) {
    check_cancelled();  // one poll per O(n*m) placement decision
    int best_phys = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      double score = 0.0;
      bool any_partner = false;
      for (int other = 0; other < n; ++other) {
        const int w = interactions.weight(k, other);
        if (w == 0 || program_to_phys[static_cast<std::size_t>(other)] < 0) {
          continue;
        }
        any_partner = true;
        score += w * distance.cost(
                         phys, program_to_phys[static_cast<std::size_t>(other)]);
      }
      if (!any_partner) {
        // Seed position: total reliability-weighted centrality plus the
        // qubit's own single-qubit quality.
        for (int other = 0; other < m; ++other) {
          score += distance.cost(phys, other);
        }
        score += 100.0 * device.noise().single_qubit_error(phys);
      }
      if (score < best_score) {
        best_score = score;
        best_phys = phys;
      }
    }
    program_to_phys[static_cast<std::size_t>(k)] = best_phys;
    used[static_cast<std::size_t>(best_phys)] = true;
  }
  return Placement::from_program_map(program_to_phys, m);
}

RoutingResult ReliabilityRouter::route(const Circuit& circuit,
                                       const Device& device,
                                       const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  const ReliabilityDistance distance(device);
  const CouplingGraph& coupling = device.coupling();
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  FrontLayer layer(ir, arena);
  // Ready-list snapshot (mark_scheduled mutates the list) and front.
  std::uint32_t* const ready_buf = arena.alloc<std::uint32_t>(ir.num_gates);
  std::uint32_t* const front_buf = arena.alloc<std::uint32_t>(ir.num_two_qubit);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());

  std::vector<double> decay(static_cast<std::size_t>(device.num_qubits()),
                            1.0);
  int swaps_since_reset = 0;
  int swaps_since_progress = 0;
  const int stall_limit = 10 * std::max(1, device.num_qubits());

  const auto executable = [&](int node) {
    const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
    if (!gate.is_two_qubit()) return true;
    return coupling.connected(
        emitter.placement().phys_of_program(gate.qubits[0]),
        emitter.placement().phys_of_program(gate.qubits[1]));
  };

  const auto flush_executable = [&] {
    bool progressed = true;
    bool any = false;
    while (progressed) {
      progressed = false;
      const std::uint32_t count = layer.ready_size();
      std::copy_n(layer.ready(), count, ready_buf);
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t node = ready_buf[k];
        if (!executable(static_cast<int>(node))) continue;
        emitter.emit_program_gate(circuit.gate(node));
        layer.mark_scheduled(node);
        progressed = true;
        any = true;
      }
    }
    return any;
  };

  const auto gate_cost = [&](int node, const Placement& placement) {
    const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
    return distance.cost(placement.phys_of_program(gate.qubits[0]),
                         placement.phys_of_program(gate.qubits[1]));
  };

  while (!layer.all_scheduled()) {
    if (flush_executable()) {
      swaps_since_progress = 0;
      continue;
    }
    const std::span<const std::uint32_t> front(
        front_buf, layer.ready_two_qubit(front_buf));
    if (front.empty()) {
      throw MappingError("reliability router: stalled");
    }
    std::vector<int> extended;
    for (std::size_t i = 0;
         i < circuit.size() &&
         extended.size() < static_cast<std::size_t>(options_.extended_window);
         ++i) {
      const int node = static_cast<int>(i);
      if (layer.scheduled(static_cast<std::uint32_t>(i))) continue;
      if (std::find(front.begin(), front.end(), node) != front.end()) continue;
      if (circuit.gate(i).is_two_qubit()) extended.push_back(node);
    }

    std::vector<bool> relevant(static_cast<std::size_t>(device.num_qubits()),
                               false);
    for (const int node : front) {
      const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
      for (const int q : gate.qubits) {
        relevant[static_cast<std::size_t>(
            emitter.placement().phys_of_program(q))] = true;
      }
    }

    double best_score = std::numeric_limits<double>::infinity();
    int best_a = -1;
    int best_b = -1;
    for (const auto& edge : coupling.edges()) {
      if (!relevant[static_cast<std::size_t>(edge.a)] &&
          !relevant[static_cast<std::size_t>(edge.b)]) {
        continue;
      }
      Placement trial = emitter.placement();
      trial.apply_swap(edge.a, edge.b);
      double front_term = 0.0;
      for (const int node : front) front_term += gate_cost(node, trial);
      front_term /= static_cast<double>(front.size());
      double extended_term = 0.0;
      if (!extended.empty()) {
        for (const int node : extended) {
          extended_term += gate_cost(node, trial);
        }
        extended_term /= static_cast<double>(extended.size());
      }
      const double decay_factor =
          std::max(decay[static_cast<std::size_t>(edge.a)],
                   decay[static_cast<std::size_t>(edge.b)]);
      // The SWAP itself costs log-error; add it so noisy couplers are used
      // only when the downstream gain justifies them.
      const double score =
          decay_factor * (distance.swap_cost(edge.a, edge.b) + front_term +
                          options_.extended_weight * extended_term);
      if (score < best_score) {
        best_score = score;
        best_a = edge.a;
        best_b = edge.b;
      }
    }
    if (best_a < 0) throw MappingError("reliability router: no candidate");

    ++swaps_since_progress;
    if (swaps_since_progress > stall_limit) {
      const Gate& gate = circuit.gate(static_cast<std::size_t>(front.front()));
      const int pa = emitter.placement().phys_of_program(gate.qubits[0]);
      const int pb = emitter.placement().phys_of_program(gate.qubits[1]);
      const std::vector<int> path = phys_shortest_path(device, pa, pb);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        emitter.emit_swap(path[i], path[i + 1]);
      }
      swaps_since_progress = 0;
      continue;
    }

    emitter.emit_swap(best_a, best_b);
    decay[static_cast<std::size_t>(best_a)] += options_.decay_increment;
    decay[static_cast<std::size_t>(best_b)] += options_.decay_increment;
    if (++swaps_since_reset >= options_.decay_reset_interval) {
      std::fill(decay.begin(), decay.end(), 1.0);
      swaps_since_reset = 0;
    }
  }

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
