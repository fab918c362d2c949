#include "route/token_swap.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/error.hpp"

namespace qmap {

std::size_t TokenSwapPlan::total_swaps() const {
  std::size_t total = 0;
  for (const SwapRound& round : rounds) total += round.size();
  return total;
}

namespace {

std::pair<int, int> ordered(int a, int b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

TokenSwapPlan plan_token_swaps(const Placement& current,
                               const Placement& target, const Device& device,
                               int escape_budget) {
  const int n = device.num_qubits();
  if (current.num_physical_qubits() != n ||
      target.num_physical_qubits() != n ||
      current.num_program_qubits() != target.num_program_qubits()) {
    throw MappingError(
        "token swap: current/target placements disagree with the device");
  }
  const ArchArtifacts& artifacts = *device.artifacts();
  if (!artifacts.connected()) {
    throw MappingError("token swap: device coupling graph is disconnected");
  }

  TokenSwapPlan plan;
  Placement place = current;
  const int num_program = current.num_program_qubits();

  // Home of the token on physical qubit p, or -1 for a don't-care free wire.
  const auto goal_of = [&](int p) {
    const int wire = place.wire_at_phys(p);
    return wire < num_program ? target.phys_of_wire(wire) : -1;
  };
  const auto first_misplaced = [&] {
    for (int p = 0; p < n; ++p) {
      const int goal = goal_of(p);
      if (goal >= 0 && goal != p) return p;
    }
    return -1;
  };
  // Reduction in total program-token distance if (a, b) swap now.
  const auto swap_gain = [&](int a, int b) {
    const int goal_a = goal_of(a);
    const int goal_b = goal_of(b);
    int gain = 0;
    if (goal_a >= 0) {
      gain += artifacts.distance(a, goal_a) - artifacts.distance(b, goal_a);
    }
    if (goal_b >= 0) {
      gain += artifacts.distance(b, goal_b) - artifacts.distance(a, goal_b);
    }
    return gain;
  };

  // Phases 1 + 2. Every greedy round strictly reduces the total distance
  // and escapes never increase it, so the loop terminates; the escape
  // budget bounds time spent before conceding to the fallback.
  int consecutive_escapes = 0;
  if (escape_budget < 0) escape_budget = 2 * n + 4;
  while (first_misplaced() >= 0) {
    SwapRound round;
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (;;) {
      int best_gain = 0;
      int best_a = -1;
      int best_b = -1;
      for (const auto& edge : device.coupling().edges()) {
        if (used[static_cast<std::size_t>(edge.a)] ||
            used[static_cast<std::size_t>(edge.b)]) {
          continue;
        }
        const int gain = swap_gain(edge.a, edge.b);
        if (gain > best_gain) {
          best_gain = gain;
          best_a = edge.a;
          best_b = edge.b;
        }
      }
      if (best_a < 0) break;
      round.push_back(ordered(best_a, best_b));
      used[static_cast<std::size_t>(best_a)] = true;
      used[static_cast<std::size_t>(best_b)] = true;
      place.apply_swap(best_a, best_b);
    }
    if (!round.empty()) {
      plan.greedy_swaps += round.size();
      plan.rounds.push_back(std::move(round));
      consecutive_escapes = 0;
      continue;
    }
    if (++consecutive_escapes > escape_budget) break;
    const int stuck = first_misplaced();
    const std::vector<int> path = artifacts.shortest_path(stuck, goal_of(stuck));
    // stuck is misplaced, so the path has at least two vertices. The hop
    // has gain exactly 0: our token gets 1 closer, and a positive net gain
    // would have been taken by the greedy sweep above.
    const int hop = path[1];
    plan.rounds.push_back({ordered(stuck, hop)});
    ++plan.escape_swaps;
    place.apply_swap(stuck, hop);
  }

  if (first_misplaced() < 0) return plan;

  // Phase 3: BFS spanning tree rooted at 0, then home tokens deepest-first.
  // When vertex v is processed every deeper vertex is settled, so v is a
  // leaf of the still-alive tree and routing its token along the tree path
  // never disturbs a settled vertex. Homes the full bijection (free wires
  // included) — stricter than required, but trivially terminating.
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<int> bfs{0};
  seen[0] = true;
  for (std::size_t head = 0; head < bfs.size(); ++head) {
    const int v = bfs[head];
    for (const int w : device.coupling().neighbors(v)) {
      if (seen[static_cast<std::size_t>(w)]) continue;
      seen[static_cast<std::size_t>(w)] = true;
      parent[static_cast<std::size_t>(w)] = v;
      depth[static_cast<std::size_t>(w)] = depth[static_cast<std::size_t>(v)] + 1;
      bfs.push_back(w);
    }
  }
  const auto tree_path = [&](int s, int t) {
    std::vector<int> up;
    std::vector<int> down;
    int x = s;
    int y = t;
    while (depth[static_cast<std::size_t>(x)] >
           depth[static_cast<std::size_t>(y)]) {
      up.push_back(x);
      x = parent[static_cast<std::size_t>(x)];
    }
    while (depth[static_cast<std::size_t>(y)] >
           depth[static_cast<std::size_t>(x)]) {
      down.push_back(y);
      y = parent[static_cast<std::size_t>(y)];
    }
    while (x != y) {
      up.push_back(x);
      x = parent[static_cast<std::size_t>(x)];
      down.push_back(y);
      y = parent[static_cast<std::size_t>(y)];
    }
    up.push_back(x);
    up.insert(up.end(), down.rbegin(), down.rend());
    return up;  // s .. t inclusive
  };

  std::vector<int> by_depth = bfs;
  std::stable_sort(by_depth.begin(), by_depth.end(), [&](int a, int b) {
    return depth[static_cast<std::size_t>(a)] >
           depth[static_cast<std::size_t>(b)];
  });
  for (const int v : by_depth) {
    const int wire = target.wire_at_phys(v);
    const int s = place.phys_of_wire(wire);
    if (s == v) continue;
    const std::vector<int> path = tree_path(s, v);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      plan.rounds.push_back({ordered(path[i], path[i + 1])});
      ++plan.fallback_swaps;
      place.apply_swap(path[i], path[i + 1]);
    }
  }
  return plan;
}

TokenSwapPlan splice_token_swap_cleanup(std::vector<Gate>& gates,
                                        Placement& current,
                                        const Placement& target,
                                        const Device& device) {
  TokenSwapPlan plan = plan_token_swaps(current, target, device);
  if (plan.rounds.empty()) return plan;
  std::vector<Gate> swaps;
  swaps.reserve(plan.total_swaps());
  // position_of[p]: where the wire sitting on p before the cleanup ends up
  // once all rounds have run; content_at is its running inverse.
  std::vector<int> position_of(static_cast<std::size_t>(device.num_qubits()));
  std::vector<int> content_at(position_of.size());
  std::iota(position_of.begin(), position_of.end(), 0);
  std::iota(content_at.begin(), content_at.end(), 0);
  for (const SwapRound& round : plan.rounds) {
    for (const auto& [a, b] : round) {
      swaps.push_back(make_gate(GateKind::SWAP, {a, b}));
      current.apply_swap(a, b);
      const int x = content_at[static_cast<std::size_t>(a)];
      const int y = content_at[static_cast<std::size_t>(b)];
      std::swap(content_at[static_cast<std::size_t>(a)],
                content_at[static_cast<std::size_t>(b)]);
      position_of[static_cast<std::size_t>(x)] = b;
      position_of[static_cast<std::size_t>(y)] = a;
    }
  }

  // The list is edited in place: the prefix (which dominates) is never
  // copied gate-by-gate.
  std::size_t split = gates.size();
  while (split > 0) {
    const GateKind kind = gates[split - 1].kind;
    if (kind != GateKind::Measure && kind != GateKind::Barrier) break;
    --split;
  }
  for (std::size_t i = split; i < gates.size(); ++i) {
    for (int& q : gates[i].qubits) {
      q = position_of[static_cast<std::size_t>(q)];
    }
  }
  gates.insert(gates.begin() + static_cast<std::ptrdiff_t>(split),
               std::make_move_iterator(swaps.begin()),
               std::make_move_iterator(swaps.end()));
  return plan;
}

}  // namespace qmap
