// E14 / Sec. IV — gate-commutation rules in mapping ([58], "Quantum
// circuit compilers using gate commutation rules").
//
// Ablation: the SABRE-style router with the strict sequential dependency
// DAG vs the commutation-aware DAG, on commutation-rich workloads (QFT
// phase ladders, shared-control CNOT fans) and on commutation-poor random
// circuits. Expected shape: the relaxed DAG never hurts and helps most on
// diagonal-heavy circuits.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "ir/dag.hpp"
#include "route/route_ir.hpp"
#include "route/sabre.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

Circuit cnot_fan(int n) {
  // All CNOTs share the control: fully commuting fan.
  Circuit c(n, "fan" + std::to_string(n));
  for (int q = 1; q < n; ++q) c.cx(0, q);
  for (int q = n - 1; q >= 1; --q) c.cx(0, q);
  return c;
}

Circuit phase_ladder(int n, int gates, Rng& rng) {
  Circuit c(n, "ladder" + std::to_string(n));
  for (int i = 0; i < gates; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    int b = static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)));
    if (b >= a) ++b;
    c.cp(rng.uniform(0.1, 1.2), a, b);
  }
  return c;
}

void print_figure() {
  paper_note(
      "Sec. IV cites commutation-rule compilers [58]; this ablation "
      "measures what the relaxed dependency DAG buys the router.");
  section("Strict vs commutation-aware SABRE routing (added SWAPs)");
  TextTable table({"workload", "device", "strict swaps", "commute swaps",
                   "strict depth", "commute depth"});
  Rng rng(21);
  std::vector<std::pair<std::string, Circuit>> suite;
  suite.emplace_back("qft6", workloads::qft(6, false));
  suite.emplace_back("fan8", cnot_fan(8));
  suite.emplace_back("ladder8", phase_ladder(8, 16, rng));
  suite.emplace_back("random8", workloads::random_circuit(8, 50, rng, 0.5));
  for (const Device& device :
       {devices::linear(8), devices::grid(3, 3), devices::surface17()}) {
    for (const auto& [label, circuit] : suite) {
      const Circuit lowered = lower_to_device(circuit, device, true);
      const Placement initial = GreedyPlacer().place(lowered, device);
      const RoutingResult strict =
          SabreRouter().route(lowered, device, initial);
      SabreRouter::Options options;
      options.use_commutation = true;
      const RoutingResult relaxed =
          SabreRouter(options).route(lowered, device, initial);
      // Verify the relaxed result (reordering must stay equivalent).
      Circuit legal = expand_swaps(relaxed.circuit, device);
      legal = fix_cx_directions(legal, device);
      Rng verify_rng(3);
      if (!mapping_equivalent(circuit, legal,
                              relaxed.initial.wire_to_phys(),
                              relaxed.final.wire_to_phys(), verify_rng, 2)) {
        std::cerr << "FATAL: commutation routing incorrect on " << label
                  << "\n";
        std::exit(1);
      }
      table.add_row({label, device.name(),
                     TextTable::num(strict.added_swaps),
                     TextTable::num(relaxed.added_swaps),
                     TextTable::num(compute_metrics(strict.circuit).depth),
                     TextTable::num(compute_metrics(relaxed.circuit).depth)});
    }
  }
  std::cout << table.str();

  section("Front-layer width after the opening Hadamard (QFT-6)");
  const Circuit qft = workloads::qft(6, false);
  RouteArena arena;
  const RouteIR strict_ir = RouteIR::build(qft, DagMode::Sequential, arena);
  const RouteIR relaxed_ir = RouteIR::build(qft, DagMode::Commutation, arena);
  FrontLayer sequential(strict_ir, arena);
  FrontLayer relaxed(relaxed_ir, arena);
  sequential.mark_scheduled(sequential.ready()[0]);
  relaxed.mark_scheduled(relaxed.ready()[0]);
  std::vector<std::uint32_t> two(strict_ir.num_two_qubit);
  std::cout << "strict ready 2q gates:  "
            << sequential.ready_two_qubit(two.data()) << "\n"
            << "relaxed ready 2q gates: " << relaxed.ready_two_qubit(two.data())
            << "\n";
}

void BM_DagConstruction(benchmark::State& state) {
  Rng rng(4);
  const Circuit circuit = workloads::random_circuit(10, 200, rng, 0.5);
  const DagMode mode =
      state.range(0) == 0 ? DagMode::Sequential : DagMode::Commutation;
  RouteArena arena;
  for (auto _ : state) {
    const ArenaScope scope(arena);
    benchmark::DoNotOptimize(RouteIR::build(circuit, mode, arena).num_edges());
  }
  state.SetLabel(state.range(0) == 0 ? "sequential" : "commutation");
}
BENCHMARK(BM_DagConstruction)->Arg(0)->Arg(1);

void BM_SabreCommutation(benchmark::State& state) {
  const Device device = devices::surface17();
  const Circuit lowered =
      lower_to_device(workloads::qft(6, false), device, true);
  const Placement initial = GreedyPlacer().place(lowered, device);
  SabreRouter::Options options;
  options.use_commutation = state.range(0) == 1;
  SabreRouter router(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(lowered, device, initial));
  }
  state.SetLabel(state.range(0) == 1 ? "commutation" : "strict");
}
BENCHMARK(BM_SabreCommutation)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
