// E8 / Sec. III-B — the survey's solution-space, made measurable:
//   * cost functions: gate count vs depth vs latency (Sec. III-B "Cost
//     function") across routers that optimize different objectives,
//   * solution features: look-ahead (sabre/astar) and look-back (qmap),
//   * exact vs heuristic quality gap.
//
// One table per device over the standard workload suite. Expected shape:
// naive is worst on every metric; the latency-aware router wins latency;
// lookahead routers win SWAP count on deep circuits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>

#include "bench_util.hpp"
#include "route/route_ir.hpp"
#include "schedule/constraints.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

std::vector<std::pair<std::string, Circuit>> suite() {
  Rng rng(99);
  std::vector<std::pair<std::string, Circuit>> rows;
  rows.emplace_back("fig1", workloads::fig1_example());
  rows.emplace_back("ghz8", workloads::ghz(8));
  rows.emplace_back("qft6", workloads::qft(6));
  rows.emplace_back("bv7",
                    workloads::bernstein_vazirani({1, 0, 1, 1, 0, 1})
                        .unitary_part());
  rows.emplace_back("adder2", workloads::cuccaro_adder(2));
  rows.emplace_back("qv8", workloads::quantum_volume(8, 2, rng));
  rows.emplace_back("random10", workloads::random_circuit(10, 80, rng, 0.45));
  return rows;
}

void print_figure() {
  paper_note(
      "Sec. III-B: 'The most common cost functions are the number of gates "
      "... and the circuit depth or latency.' Different routers optimize "
      "different objectives; this table measures all three per router.");
  for (const Device& device :
       {devices::surface17(), devices::ibm_qx5(), devices::grid(4, 4)}) {
    section("Router comparison on " + device.name());
    TextTable table({"workload", "router", "swaps", "bridges", "gates",
                     "depth", "latency cycles", "runtime ms"});
    for (const auto& [label, circuit] : suite()) {
      if (circuit.num_qubits() > device.num_qubits()) continue;
      const Circuit lowered =
          lower_to_device(circuit, device, /*keep_swaps=*/true);
      const Placement initial = GreedyPlacer().place(lowered, device);
      for (const char* router : {"naive", "sabre", "bridge", "astar",
                                 "qmap"}) {
        const MappedOutcome outcome =
            map_and_verify(circuit, device, router, initial);
        const Schedule schedule =
            schedule_for_device(outcome.final_circuit, device);
        table.add_row({label, router,
                       TextTable::num(outcome.routing.added_swaps),
                       TextTable::num(outcome.routing.added_bridges),
                       TextTable::num(outcome.metrics.total_gates),
                       TextTable::num(outcome.metrics.depth),
                       TextTable::num(schedule.total_cycles()),
                       TextTable::num(outcome.routing.runtime_ms, 3)});
      }
    }
    std::cout << table.str();
  }
}

// Router x workload grid. Besides wall time, each entry exports quality
// counters so the snapshot script can diff routers: added_cx counts the
// CXs the router inserted (3 per SWAP, 3 net per BRIDGE — the template is
// 4 CXs replacing the 1 the bare gate would have been) and depth is the
// mapped circuit's depth. bench_snapshot.sh derives bridge-vs-sabre deltas
// from these.
void BM_Router(benchmark::State& state) {
  static const char* routers[] = {"naive", "sabre", "bridge", "astar",
                                  "qmap"};
  const char* router = routers[state.range(0)];
  const int workload = static_cast<int>(state.range(1));
  Device device = devices::surface17();
  Circuit program;
  const char* workload_label = "random10";
  if (workload == 0) {
    Rng rng(99);
    program = workloads::random_circuit(10, 80, rng, 0.45);
  } else if (workload == 1) {
    // The paper's Fig. 1 example on QX5: the front-layer CX at distance 2
    // is exactly the shape BRIDGE exists for — sabre pays two SWAPs where
    // bridge pays one 4-CX template and keeps the placement.
    device = devices::ibm_qx5();
    program = workloads::fig1_example();
    workload_label = "fig1@qx5";
  } else {
    // QFT(8) on QX5: the dense controlled-phase ladder keeps every router's
    // front layer busy — the headline workload for RouteIR's route-time
    // gate in scripts/bench_snapshot.sh.
    device = devices::ibm_qx5();
    program = workloads::qft(8);
    workload_label = "qft8@qx5";
  }
  const Circuit circuit = lower_to_device(program, device, true);
  const Placement initial = GreedyPlacer().place(circuit, device);
  const MappedOutcome quality =
      map_and_verify(program, device, router, initial);
  state.counters["added_cx"] = static_cast<double>(
      3 * (quality.routing.added_swaps + quality.routing.added_bridges));
  state.counters["bridges"] =
      static_cast<double>(quality.routing.added_bridges);
  state.counters["depth"] = static_cast<double>(quality.metrics.depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_router(router)->route(circuit, device, initial));
  }
  state.SetLabel(std::string(router) + "/" + workload_label);
}
BENCHMARK(BM_Router)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}});

// Conversion overhead at the pass boundary: Circuit -> RouteIR (SoA gate
// records + CSR dependency DAG) + FrontLayer init, alone. The argument is
// the BM_Router workload index (1 = fig1@qx5, 2 = qft8@qx5) so
// bench_snapshot.sh can express this as a percentage of the matching sabre
// route time; its gate fails the snapshot when conversion exceeds 5%.
void BM_RouteIRConvert(benchmark::State& state) {
  const Device device = devices::ibm_qx5();
  const Circuit program =
      state.range(0) == 1 ? workloads::fig1_example() : workloads::qft(8);
  const Circuit circuit = lower_to_device(program, device, true);
  RouteArena& arena = RouteArena::scratch();
  for (auto _ : state) {
    const ArenaScope scope(arena);
    const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
    const FrontLayer front(ir, arena);
    benchmark::DoNotOptimize(ir.num_edges() + front.ready_size());
  }
  state.SetLabel(std::string("convert/") +
                 (state.range(0) == 1 ? "fig1@qx5" : "qft8@qx5"));
}
BENCHMARK(BM_RouteIRConvert)->Arg(1)->Arg(2);

void BM_GreedyPlacement(benchmark::State& state) {
  const Device device = devices::surface17();
  Rng rng(99);
  const Circuit circuit = workloads::random_circuit(10, 80, rng, 0.45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyPlacer().place(circuit, device));
  }
}
BENCHMARK(BM_GreedyPlacement);

}  // namespace

int main(int argc, char** argv) {
  // The figure takes minutes; a --benchmark_filter run times only the
  // benchmarks it names.
  const bool filtered =
      std::any_of(argv + 1, argv + argc, [](const char* arg) {
        return std::string_view(arg).starts_with("--benchmark_filter");
      });
  if (!filtered) print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
