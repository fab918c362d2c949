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
  const int* dist = device.artifacts()->distance_data();

  // Program qubits by descending interaction degree (ties: lower index).
  std::vector<int> degree(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    degree[static_cast<std::size_t>(k)] = interactions.degree(k);
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return degree[static_cast<std::size_t>(a)] >
           degree[static_cast<std::size_t>(b)];
  });

  std::vector<int> program_to_phys(static_cast<std::size_t>(n), -1);
  std::vector<bool> used(static_cast<std::size_t>(m), false);

  for (const int k : order) {
    check_cancelled();  // O(n*m) per qubit: one poll per placement decision
    const int* weights = interactions.row(k);
    int best_phys = -1;
    long best_score = std::numeric_limits<long>::max();
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      const int* dist_row = dist + static_cast<std::ptrdiff_t>(phys) * m;
      long score = 0;
      bool any_partner = false;
      for (int other = 0; other < n; ++other) {
        const int w = weights[other];
        const int other_phys = program_to_phys[static_cast<std::size_t>(other)];
        if (w == 0 || other_phys < 0) continue;
        any_partner = true;
        const int d = dist_row[other_phys];
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

  const int* dist = device.artifacts()->distance_data();
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
    const int* weights = interactions.row(k);
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      const int* dist_row = dist + static_cast<std::ptrdiff_t>(phys) * m;
      long delta = 0;
      bool feasible = true;
      for (int other = 0; other < k; ++other) {
        const int w = weights[other];
        if (w == 0) continue;
        const int d =
            dist_row[program_to_phys[static_cast<std::size_t>(other)]];
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
  obs::add(observer(), "placer.exhaustive.visited",
           static_cast<std::uint64_t>(visited));
  return Placement::from_program_map(best, m);
}

Placement AnnealingPlacer::place(const Circuit& circuit,
                                 const Device& device) {
  check_fits(circuit, device);
  const InteractionGraph interactions(circuit);
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();
  const int* dist = device.artifacts()->distance_data();
  constexpr long kDisconnected = std::numeric_limits<long>::max();

  // CSR adjacency of the interaction graph: partners of program qubit p
  // are partner[offset[p] .. offset[p + 1]), with their gate counts.
  std::vector<int> offset(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> partner;
  std::vector<int> weight;
  for (int p = 0; p < n; ++p) {
    const int* row = interactions.row(p);
    for (int r = 0; r < n; ++r) {
      if (r == p || row[r] == 0) continue;
      partner.push_back(r);
      weight.push_back(row[r]);
    }
    offset[static_cast<std::size_t>(p) + 1] = static_cast<int>(partner.size());
  }

  Placement current = GreedyPlacer().place(circuit, device);
  // Flat mirrors of `current`: program -> physical, physical -> program
  // (-1 = free site; free sites have no interaction edges).
  std::vector<int> phys_of(static_cast<std::size_t>(n));
  std::vector<int> program_at(static_cast<std::size_t>(m), -1);
  for (int p = 0; p < n; ++p) {
    const int phys = current.phys_of_program(p);
    phys_of[static_cast<std::size_t>(p)] = phys;
    program_at[static_cast<std::size_t>(phys)] = p;
  }

  // placement_cost() split in two: the finite sum over connected pairs and
  // the number of disconnected pairs (any makes the cost the maximum).
  long finite = 0;
  int disconnected = 0;
  const auto add_edge = [&](int w, int d, int sign) {
    if (d < 0) {
      disconnected += sign;
    } else {
      finite += sign * static_cast<long>(w) * (d - 1);
    }
  };
  for (int p = 0; p < n; ++p) {
    const int site = phys_of[static_cast<std::size_t>(p)];
    const int* dist_row = dist + static_cast<std::ptrdiff_t>(site) * m;
    for (int e = offset[static_cast<std::size_t>(p)];
         e < offset[static_cast<std::size_t>(p) + 1]; ++e) {
      const int r = partner[static_cast<std::size_t>(e)];
      if (r < p) continue;  // each pair once
      add_edge(weight[static_cast<std::size_t>(e)],
               dist_row[phys_of[static_cast<std::size_t>(r)]], +1);
    }
  }
  long current_cost = disconnected > 0 ? kDisconnected : finite;
  Placement best = current;
  long best_cost = current_cost;

  // Moves program qubit p from physical `from` to `to` in the running
  // sums. The edge to `skip` (the other swapped qubit) keeps its length:
  // hop distance is symmetric, so swapping both ends leaves it unchanged.
  const auto move = [&](int p, int from, int to, int skip) {
    const int* from_row = dist + static_cast<std::ptrdiff_t>(from) * m;
    const int* to_row = dist + static_cast<std::ptrdiff_t>(to) * m;
    for (int e = offset[static_cast<std::size_t>(p)];
         e < offset[static_cast<std::size_t>(p) + 1]; ++e) {
      const int r = partner[static_cast<std::size_t>(e)];
      if (r == skip) continue;
      const int w = weight[static_cast<std::size_t>(e)];
      const int site = phys_of[static_cast<std::size_t>(r)];
      add_edge(w, from_row[site], -1);
      add_edge(w, to_row[site], +1);
    }
  };

  Rng rng(seed_);
  const double t_start = 4.0;
  const double t_end = 0.05;
  std::uint64_t accepted = 0;
  for (int it = 0; it < iterations_; ++it) {
    // One poll per 256 sweeps: each iteration is O(degree), so a deadline
    // interrupts within a fraction of a millisecond even on wide devices.
    if ((it & 255) == 0) check_cancelled();
    // Propose: exchange the wires on two random physical qubits.
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
    const int b = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
    if (a == b) continue;
    const int pa = program_at[static_cast<std::size_t>(a)];
    const int pb = program_at[static_cast<std::size_t>(b)];
    const long kept_finite = finite;
    const int kept_disconnected = disconnected;
    if (pa >= 0) move(pa, a, b, pb);
    if (pb >= 0) move(pb, b, a, pa);
    const long proposal_cost = disconnected > 0 ? kDisconnected : finite;
    const long delta = proposal_cost - current_cost;
    bool accept = delta <= 0;
    if (!accept) {
      // The temperature is read only here, so it is computed only here.
      const double fraction =
          static_cast<double>(it) / std::max(1, iterations_ - 1);
      const double temperature =
          t_start * std::pow(t_end / t_start, fraction);
      accept = rng.uniform() <
               std::exp(-static_cast<double>(delta) / temperature);
    }
    if (!accept) {
      finite = kept_finite;
      disconnected = kept_disconnected;
      continue;
    }
    ++accepted;
    current.apply_swap(a, b);
    program_at[static_cast<std::size_t>(a)] = pb;
    program_at[static_cast<std::size_t>(b)] = pa;
    if (pa >= 0) phys_of[static_cast<std::size_t>(pa)] = b;
    if (pb >= 0) phys_of[static_cast<std::size_t>(pb)] = a;
    current_cost = proposal_cost;
    if (current_cost < best_cost) {
      best = current;
      best_cost = current_cost;
    }
  }
  obs::add(observer(), "placer.annealing.places");
  obs::add(observer(), "placer.annealing.iterations",
           static_cast<std::uint64_t>(std::max(0, iterations_)));
  obs::add(observer(), "placer.annealing.accepted", accepted);
  return best;
}

}  // namespace qmap
