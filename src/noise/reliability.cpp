#include "noise/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/error.hpp"
#include "route/sabre_loop.hpp"

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
  SabreLoopStats stats;
  RoutingResult result =
      run_sabre_route<MaterializedLoopCore<ReliabilityDistance>>(
          circuit, device, initial, DagMode::Sequential,
          SabreLoopParams{/*enable_bridge=*/false, "reliability"},
          [this] { check_cancelled(); }, stats);
  record_sabre_loop(observer(), "router.reliability", stats,
                    result.added_swaps);
  return result;
}

}  // namespace qmap
