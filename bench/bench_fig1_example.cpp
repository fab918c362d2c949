// E1 / Fig. 1 — the running example circuit.
//
// Regenerates both panels of Fig. 1: (a) the full example circuit with its
// single-qubit gates, (b) the CNOT skeleton used by the mapping discussion,
// plus the structural facts the rest of the paper relies on (first CNOT is
// q3->q4 in paper notation; the interaction graph contains a triangle).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "route/route_ir.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

void print_figure() {
  const Circuit example = workloads::fig1_example();
  section("Fig. 1(a): example quantum circuit");
  std::cout << draw_ascii(example);
  section("Fig. 1(b): CNOT skeleton (single-qubit gates removed)");
  std::cout << draw_ascii(workloads::fig1_skeleton());

  section("Structural facts");
  const CircuitMetrics metrics = compute_metrics(example);
  std::cout << "metrics: " << metrics.to_string() << "\n";
  RouteArena arena;
  const RouteIR dag = RouteIR::build(example, DagMode::Sequential, arena);
  const FrontLayer front(dag, arena);
  std::cout << "dependency-DAG depth: " << metrics.depth
            << ", initial front layer size: " << front.ready_size() << "\n";
  const Gate first_cnot = workloads::fig1_skeleton().gate(0);
  std::cout << "first CNOT: " << first_cnot.to_string()
            << "  (paper notation: control q3, target q4)\n";
  paper_note(
      "Sec. IV: under the trivial placement this CNOT is not allowed on "
      "IBM QX4's coupling graph.");
  const Device qx4 = devices::ibm_qx4();
  std::cout << "allowed on QX4 as placed? "
            << (qx4.coupling().orientation_allowed(first_cnot.qubits[0],
                                                   first_cnot.qubits[1])
                    ? "yes (MISMATCH)"
                    : "no (matches the paper)")
            << "\n";
}

void BM_BuildFig1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::fig1_example());
  }
}
BENCHMARK(BM_BuildFig1);

void BM_Fig1Metrics(benchmark::State& state) {
  const Circuit example = workloads::fig1_example();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_metrics(example));
  }
}
BENCHMARK(BM_Fig1Metrics);

void BM_Fig1DependencyGraph(benchmark::State& state) {
  const Circuit example = workloads::fig1_example();
  RouteArena arena;
  for (auto _ : state) {
    const ArenaScope scope(arena);
    benchmark::DoNotOptimize(
        RouteIR::build(example, DagMode::Sequential, arena).num_edges());
  }
}
BENCHMARK(BM_Fig1DependencyGraph);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
