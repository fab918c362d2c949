#include "layout/placers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace qmap {

InteractionGraph::InteractionGraph(const Circuit& circuit)
    : n_(circuit.num_qubits()),
      weights_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
               0) {
  for (const Gate& gate : circuit) {
    if (!gate.is_two_qubit()) continue;
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    ++weights_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(b)];
    ++weights_[static_cast<std::size_t>(b) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(a)];
  }
}

int InteractionGraph::weight(int a, int b) const {
  if (a < 0 || a >= n_ || b < 0 || b >= n_) {
    throw CircuitError("interaction weight: qubit out of range");
  }
  return weights_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(b)];
}

int InteractionGraph::degree(int q) const {
  int total = 0;
  for (int other = 0; other < n_; ++other) total += weight(q, other);
  return total;
}

std::vector<std::pair<int, int>> InteractionGraph::edges() const {
  std::vector<std::pair<int, int>> out;
  for (int a = 0; a < n_; ++a) {
    for (int b = a + 1; b < n_; ++b) {
      if (weight(a, b) > 0) out.emplace_back(a, b);
    }
  }
  return out;
}

long placement_cost(const InteractionGraph& interactions,
                    const Placement& placement, const Device& device) {
  long cost = 0;
  for (const auto& [a, b] : interactions.edges()) {
    const int d = device.artifacts()->distance(placement.phys_of_program(a),
                                               placement.phys_of_program(b));
    if (d < 0) return std::numeric_limits<long>::max();
    cost += static_cast<long>(interactions.weight(a, b)) * (d - 1);
  }
  return cost;
}

namespace {

void check_fits(const Circuit& circuit, const Device& device) {
  if (circuit.num_qubits() > device.num_qubits()) {
    throw MappingError("circuit has " + std::to_string(circuit.num_qubits()) +
                       " qubits; device '" + device.name() + "' has only " +
                       std::to_string(device.num_qubits()));
  }
}

}  // namespace

Placement IdentityPlacer::place(const Circuit& circuit, const Device& device) {
  check_fits(circuit, device);
  return Placement::identity(circuit.num_qubits(), device.num_qubits());
}

Placement GreedyPlacer::place(const Circuit& circuit, const Device& device) {
  check_fits(circuit, device);
  const InteractionGraph interactions(circuit);
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();

  // Program qubits by descending interaction degree (ties: lower index).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return interactions.degree(a) > interactions.degree(b);
  });

  std::vector<int> program_to_phys(static_cast<std::size_t>(n), -1);
  std::vector<bool> used(static_cast<std::size_t>(m), false);

  for (const int k : order) {
    check_cancelled();  // O(n*m) per qubit: one poll per placement decision
    int best_phys = -1;
    long best_score = std::numeric_limits<long>::max();
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      long score = 0;
      bool any_partner = false;
      for (int other = 0; other < n; ++other) {
        const int w = interactions.weight(k, other);
        if (w == 0 || program_to_phys[static_cast<std::size_t>(other)] < 0) {
          continue;
        }
        any_partner = true;
        const int d = device.artifacts()->distance(
            phys, program_to_phys[static_cast<std::size_t>(other)]);
        if (d < 0) {
          score = std::numeric_limits<long>::max() / 2;
          break;
        }
        score += static_cast<long>(w) * d;
      }
      if (!any_partner) {
        // First qubit (or isolated one): prefer the graph center.
        score = device.artifacts()->total_distance_from(phys);
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

Placement ExhaustivePlacer::place(const Circuit& circuit,
                                  const Device& device) {
  check_fits(circuit, device);
  // Entry checkpoint: small searches can finish in fewer than one polling
  // interval, but an already-fired token must still interrupt them.
  check_cancelled();
  const InteractionGraph interactions(circuit);
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();

  // Work estimate: m * (m-1) * ... * (m-n+1) assignments.
  double assignments = 1.0;
  for (int i = 0; i < n; ++i) assignments *= static_cast<double>(m - i);
  if (assignments > static_cast<double>(max_assignments_)) {
    throw ResourceError("exhaustive placement too large (" +
                        std::to_string(static_cast<long>(assignments)) +
                        " assignments); use AnnealingPlacer");
  }

  std::vector<int> program_to_phys(static_cast<std::size_t>(n), -1);
  std::vector<int> best = program_to_phys;
  std::vector<bool> used(static_cast<std::size_t>(m), false);
  long best_cost = std::numeric_limits<long>::max();

  // Depth-first over assignments with incremental cost and pruning.
  // Cancellation is polled every 1024 visited nodes: frequent enough that
  // a 1 ms deadline interrupts the search promptly, rare enough that the
  // steady-clock read never shows up in profiles.
  long visited = 0;
  const auto recurse = [&](const auto& self, int k, long partial) -> void {
    if ((++visited & 1023) == 0) check_cancelled();
    if (partial >= best_cost) return;
    if (k == n) {
      best_cost = partial;
      best = program_to_phys;
      return;
    }
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      long delta = 0;
      bool feasible = true;
      for (int other = 0; other < k; ++other) {
        const int w = interactions.weight(k, other);
        if (w == 0) continue;
        const int d = device.artifacts()->distance(
            phys, program_to_phys[static_cast<std::size_t>(other)]);
        if (d < 0) {
          feasible = false;
          break;
        }
        delta += static_cast<long>(w) * (d - 1);
      }
      if (!feasible) continue;
      used[static_cast<std::size_t>(phys)] = true;
      program_to_phys[static_cast<std::size_t>(k)] = phys;
      self(self, k + 1, partial + delta);
      used[static_cast<std::size_t>(phys)] = false;
      program_to_phys[static_cast<std::size_t>(k)] = -1;
    }
  };
  recurse(recurse, 0, 0);
  if (best_cost == std::numeric_limits<long>::max()) {
    throw MappingError("no feasible placement (device disconnected?)");
  }
  return Placement::from_program_map(best, m);
}

Placement AnnealingPlacer::place(const Circuit& circuit,
                                 const Device& device) {
  check_fits(circuit, device);
  const InteractionGraph interactions(circuit);
  const int m = device.num_qubits();

  Placement current = GreedyPlacer().place(circuit, device);
  long current_cost = placement_cost(interactions, current, device);
  Placement best = current;
  long best_cost = current_cost;

  Rng rng(seed_);
  const double t_start = 4.0;
  const double t_end = 0.05;
  for (int it = 0; it < iterations_; ++it) {
    // One poll per 256 sweeps: each iteration is O(edges), so a deadline
    // interrupts within a fraction of a millisecond even on wide devices.
    if ((it & 255) == 0) check_cancelled();
    const double fraction =
        static_cast<double>(it) / std::max(1, iterations_ - 1);
    const double temperature =
        t_start * std::pow(t_end / t_start, fraction);
    // Propose: exchange the wires on two random physical qubits.
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
    int b = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
    if (a == b) continue;
    Placement proposal = current;
    proposal.apply_swap(a, b);
    const long proposal_cost =
        placement_cost(interactions, proposal, device);
    const long delta = proposal_cost - current_cost;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-static_cast<double>(delta) / temperature)) {
      current = std::move(proposal);
      current_cost = proposal_cost;
      if (current_cost < best_cost) {
        best = current;
        best_cost = current_cost;
      }
    }
  }
  return best;
}

}  // namespace qmap
