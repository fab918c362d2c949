// Router shoot-out across devices and workloads — the Sec. III-B design
// space (cost functions, exact vs heuristic, look-ahead/look-back) made
// runnable. For each (device, workload) the example routes with every
// router and reports added SWAPs, direction fixes, final gate count, depth
// and router runtime, verifying each result by simulation.
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/builtin.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "decompose/decomposer.hpp"
#include "ir/metrics.hpp"
#include "layout/placers.hpp"
#include "sim/equivalence.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace qmap;
  Rng workload_rng(42);

  const std::vector<Device> targets = {devices::ibm_qx4(),
                                       devices::surface17(),
                                       devices::grid(4, 4)};
  std::vector<std::pair<std::string, Circuit>> workloads = {
      {"fig1", workloads::fig1_example()},
      {"ghz5", workloads::ghz(5)},
      {"qft5", workloads::qft(5)},
      {"bv4", workloads::bernstein_vazirani({1, 0, 1, 1}).unitary_part()},
      {"random6", workloads::random_circuit(6, 60, workload_rng, 0.4)},
  };

  for (const Device& device : targets) {
    std::cout << "=== " << device.name() << " ===\n";
    TextTable table({"workload", "router", "swaps", "dir-fixes",
                     "native gates", "depth", "runtime ms", "verified"});
    for (const auto& [label, circuit] : workloads) {
      if (circuit.num_qubits() > device.num_qubits()) continue;
      const Circuit lowered =
          lower_to_device(circuit, device, /*keep_swaps=*/true);
      const Placement initial = GreedyPlacer().place(lowered, device);
      for (const char* router_name :
           {"naive", "sabre", "astar", "qmap", "exact"}) {
        if (std::string(router_name) == "exact" && device.num_qubits() > 5) {
          continue;  // exact is for small devices by design (Sec. IV)
        }
        const RoutingResult routed =
            make_router(router_name)->route(lowered, device, initial);
        const Circuit final_circuit = finalize_routed(routed.circuit, device);
        const CircuitMetrics metrics = compute_metrics(final_circuit);
        Rng verify_rng(7);
        const bool ok = mapping_equivalent(
            circuit, final_circuit, routed.initial.wire_to_phys(),
            routed.final.wire_to_phys(), verify_rng, 2);
        table.add_row({label, router_name, TextTable::num(routed.added_swaps),
                       TextTable::num(routed.direction_fixes),
                       TextTable::num(metrics.total_gates),
                       TextTable::num(metrics.depth),
                       TextTable::num(routed.runtime_ms, 3),
                       ok ? "yes" : "NO"});
        if (!ok) {
          std::cerr << "verification failed for " << label << " with "
                    << router_name << " on " << device.name() << "\n";
          return 1;
        }
      }
    }
    std::cout << table.str() << "\n";
  }
  return 0;
}
