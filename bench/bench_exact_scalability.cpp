// E9 / Sec. IV — "exact approaches ... are often not that scalable";
// heuristics "are still the best solution" for actual use cases.
//
// Measures the exact router's runtime wall against the heuristics as the
// device (and hence the placement-permutation state space) grows, plus the
// quality gap on instances the exact router can still solve. Expected
// shape: exact runtime explodes combinatorially with device size while
// heuristic runtime stays flat in the milliseconds, at a modest SWAP-count
// premium for the heuristics.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "route/exact.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

Circuit chain_workload(int n, int gates, Rng& rng) {
  // Dependency-chain CNOTs: a fair instance family for the order-exact
  // router (no commuting freedom; see route/exact.hpp).
  Circuit circuit(n, "chain" + std::to_string(n));
  int previous = 0;
  for (int g = 0; g < gates; ++g) {
    int other = static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)));
    if (other >= previous) ++other;
    circuit.cx(previous, other);
    previous = other;
  }
  return circuit;
}

void print_figure() {
  paper_note(
      "Sec. IV: exact approaches 'can guarantee minimal or close-to-minimal "
      "solutions [but] are often not that scalable'.");
  section("Runtime vs device size (line devices, 12-CNOT chain circuits)");
  TextTable table({"device qubits", "exact ms", "sabre ms", "astar ms",
                   "exact swaps", "sabre swaps", "astar swaps",
                   "states stored", "states expanded"});
  for (int n = 3; n <= 10; ++n) {
    const Device device = devices::linear(n);
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    const Circuit circuit = chain_workload(n, 12, rng);
    const Placement initial = Placement::identity(n, n);
    double runtime[3] = {0, 0, 0};
    std::size_t swaps[3] = {0, 0, 0};
    std::uint64_t stored = 0;  // the exact router's A* search size
    std::uint64_t expanded = 0;
    const char* routers[] = {"exact", "sabre", "astar"};
    for (int r = 0; r < 3; ++r) {
      // Median of 3 runs.
      std::vector<double> times;
      RoutingResult result;
      for (int rep = 0; rep < 3; ++rep) {
        obs::Observer observer;
        const auto router = make_router(routers[r]);
        router->set_observer(&observer);
        result = router->route(circuit, device, initial);
        times.push_back(result.runtime_ms);
        if (r == 0) {
          stored = observer.metrics().counter("router.exact.stored");
          expanded = observer.metrics().counter("router.exact.expanded");
        }
      }
      std::sort(times.begin(), times.end());
      runtime[r] = times[1];
      swaps[r] = result.added_swaps;
    }
    table.add_row({TextTable::num(n), TextTable::num(runtime[0], 3),
                   TextTable::num(runtime[1], 3),
                   TextTable::num(runtime[2], 3), TextTable::num(swaps[0]),
                   TextTable::num(swaps[1]), TextTable::num(swaps[2]),
                   TextTable::num(static_cast<std::size_t>(stored)),
                   TextTable::num(static_cast<std::size_t>(expanded))});
    // Heuristics never beat exact on these chain instances.
    if (swaps[1] < swaps[0] || swaps[2] < swaps[0]) {
      std::cerr << "FATAL: heuristic beat the exact router on a fixed-order "
                   "instance\n";
      std::exit(1);
    }
  }
  std::cout << table.str();

  section("Exact router state budget wall");
  ExactRouter::Options tight;
  tight.max_states = 50000;
  Rng rng(77);
  const Device grid = devices::grid(3, 3);
  const Circuit big = chain_workload(9, 20, rng);
  try {
    (void)ExactRouter(tight).route(big, grid, Placement::identity(9, 9));
    std::cout << "9-qubit grid instance fit in 50k states\n";
  } catch (const MappingError& e) {
    std::cout << "9-qubit grid instance exceeds 50k states: " << e.what()
              << "\n";
  }
  paper_note(
      "'For actual use cases, however, the heuristic approaches are still "
      "the best solution.'");
}

void BM_ExactByDeviceSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Device device = devices::linear(n);
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  const Circuit circuit = chain_workload(n, 12, rng);
  const Placement initial = Placement::identity(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_router("exact")->route(circuit, device, initial));
  }
}
BENCHMARK(BM_ExactByDeviceSize)->DenseRange(3, 7);

void BM_SabreByDeviceSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Device device = devices::linear(n);
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  const Circuit circuit = chain_workload(n, 12, rng);
  const Placement initial = Placement::identity(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_router("sabre")->route(circuit, device, initial));
  }
}
BENCHMARK(BM_SabreByDeviceSize)->DenseRange(3, 7);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
