// Shared helpers for the benchmark harness.
//
// Every bench binary prints the table/figure data it reproduces (workload,
// parameters, measured values, and the paper's expectation) and then runs
// its google-benchmark timing section. Benches exit non-zero if a
// correctness verification fails, so the harness doubles as an integration
// check.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "arch/builtin.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "decompose/decomposer.hpp"
#include "ir/ascii.hpp"
#include "ir/metrics.hpp"
#include "layout/placers.hpp"
#include "schedule/schedulers.hpp"
#include "sim/equivalence.hpp"
#include "workloads/workloads.hpp"

namespace qmap::bench {

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void paper_note(const std::string& note) {
  std::cout << "[paper] " << note << "\n";
}

/// Route + finalize, returning the final native circuit and the routing
/// stats; verifies equivalence and aborts the bench on mismatch.
struct MappedOutcome {
  RoutingResult routing;
  Circuit final_circuit;
  CircuitMetrics metrics;
};

inline MappedOutcome map_and_verify(const Circuit& circuit,
                                    const Device& device,
                                    const std::string& router,
                                    const Placement& initial) {
  MappedOutcome outcome;
  const Circuit lowered = lower_to_device(circuit, device, /*keep_swaps=*/true);
  outcome.routing = make_router(router)->route(lowered, device, initial);
  outcome.final_circuit = finalize_routed(outcome.routing.circuit, device);
  outcome.metrics = compute_metrics(outcome.final_circuit);
  Rng rng(0xBE7C);
  if (!mapping_equivalent(circuit, outcome.final_circuit,
                          outcome.routing.initial.wire_to_phys(),
                          outcome.routing.final.wire_to_phys(), rng, 2)) {
    std::cerr << "FATAL: mapped circuit not equivalent (" << router << " on "
              << device.name() << ", " << circuit.name() << ")\n";
    std::exit(1);
  }
  return outcome;
}

/// Enumerates every placement whose interaction-distance cost is optimal
/// (several exist by device symmetry) and returns the one whose routed SWAP
/// count is smallest — the ILP-quality joint placement+routing Qmap's
/// initial-placement stage provides (see DESIGN.md substitutions). Only
/// viable for paper-scale instances (enumerates m-permutations of n).
inline Placement best_optimal_placement(const Circuit& lowered,
                                        const Device& device,
                                        const std::string& router) {
  const InteractionGraph interactions(lowered);
  const int n = lowered.num_qubits();
  const int m = device.num_qubits();
  const long optimal_cost = placement_cost(
      interactions, ExhaustivePlacer().place(lowered, device), device);

  Placement best = ExhaustivePlacer().place(lowered, device);
  std::size_t best_swaps =
      make_router(router)->route(lowered, device, best).added_swaps;

  std::vector<int> program_to_phys(static_cast<std::size_t>(n), -1);
  std::vector<bool> used(static_cast<std::size_t>(m), false);
  const auto recurse = [&](const auto& self, int k) -> void {
    if (k == n) {
      const Placement candidate =
          Placement::from_program_map(program_to_phys, m);
      if (placement_cost(interactions, candidate, device) != optimal_cost) {
        return;
      }
      const std::size_t swaps =
          make_router(router)->route(lowered, device, candidate).added_swaps;
      if (swaps < best_swaps) {
        best_swaps = swaps;
        best = candidate;
      }
      return;
    }
    for (int phys = 0; phys < m; ++phys) {
      if (used[static_cast<std::size_t>(phys)]) continue;
      used[static_cast<std::size_t>(phys)] = true;
      program_to_phys[static_cast<std::size_t>(k)] = phys;
      self(self, k + 1);
      used[static_cast<std::size_t>(phys)] = false;
    }
  };
  recurse(recurse, 0);
  return best;
}

}  // namespace qmap::bench
